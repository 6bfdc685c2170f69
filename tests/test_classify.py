import ast
import math
import pathlib

import pytest

import lambda2
from lambda2 import classify, cli, ffield
from lambda2.classify import (
    AdmissibleSet,
    DegreeNotCoprime,
    InvariantViolation,
    LambdaSet,
    NotAdmissible,
    OutOfHasseWindow,
    admissible_traces,
    diophantine_triples,
    field_of_order,
    hasse_window,
    isogeny_class_two_torsion_profile,
    lambda_exact,
    lambda_formula,
    lambda_formula_resolved,
    lambda_set,
    ramification_solutions,
    two_torsion_profile_by_trace,
    weil_poly,
)
from lambda2.classify import _rigid
from lambda2.ecurve import EllipticCurve, FieldTooLarge, curve_inventory, make_curve
from lambda2.ffield import make_field
from object_reference import all_pairs_kani_traces

# complementary traces for every isomorphism class over F_5, frozen from an
# independent hand enumeration of genus-2 double covers
GOLDEN_LAMBDA_F5 = {
    (0, 1): (-4, -2, 0, 2, 4),
    (0, 2): (-4, -2, 0, 2, 4),
    (1, 0): (-2, 2),
    (1, 1): (-3, -1, 1, 3),
    (1, 2): (-4, -2, 0, 2, 4),
    (2, 0): (-2, 0, 2),
    (2, 1): (-3, -1, 1, 3),
    (3, 0): (-2, 0, 2),
    (3, 2): (-3, -1, 1, 3),
    (4, 0): (-2, 2),
    (4, 1): (-4, -2, 0, 2, 4),
    (4, 2): (-3, -1, 1, 3),
}


def _curves(q):
    return curve_inventory(field_of_order(q))


def test_field_of_order():
    assert field_of_order(25).order == 25
    assert field_of_order(49).p == 7
    assert field_of_order(7) is make_field(7)
    with pytest.raises(ValueError):
        field_of_order(10)


def test_hasse_window_frozen():
    assert hasse_window(5) == (-4, 4)
    assert hasse_window(7) == (-5, 5)
    assert hasse_window(25) == (-10, 10)
    assert hasse_window(49) == (-14, 14)


def test_admissible_traces_frozen():
    assert admissible_traces(5).traces == tuple(range(-4, 5))
    assert admissible_traces(7).traces == tuple(range(-5, 6))
    assert admissible_traces(9).traces == tuple(range(-6, 7))
    expected_25 = tuple(a for a in range(-10, 11) if a != 0)
    assert admissible_traces(25).traces == expected_25
    expected_49 = tuple(a for a in range(-14, 15) if abs(a) != 7)
    assert admissible_traces(49).traces == expected_49


def test_admissible_matches_realized_traces():
    # Waterhouse arithmetic against the actual curve inventory
    for q in (5, 7, 11, 13, 25):
        realized = {curve.trace() for curve in _curves(q)}
        assert realized == set(admissible_traces(q).traces), q


def test_admissible_set_is_symmetric_and_cached():
    for q in (5, 7, 9, 11, 13, 25, 49, 121):
        adm = admissible_traces(q)
        assert all(-a in adm for a in adm)
        assert admissible_traces(q) is adm


def test_broken_invariants_raise_runtime_errors():
    # a broken invariant is a bug, not bad input: it must not be a
    # ValueError (the CLI's exit 2) and must survive python -O
    assert issubclass(InvariantViolation, RuntimeError)
    assert not issubclass(InvariantViolation, ValueError)
    assert InvariantViolation is ffield.InvariantViolation is lambda2.InvariantViolation
    with pytest.raises(InvariantViolation, match="symmetry"):
        AdmissibleSet(5, [-1, 1, 2])
    curve = make_curve(5, 1, 0)  # trace 2: every complementary trace is even
    with pytest.raises(InvariantViolation, match="parity"):
        LambdaSet(curve, 2, [-1, 1], "kani")
    with pytest.raises(InvariantViolation, match="inadmissible"):
        LambdaSet(curve, 2, [-6, 6], "kani")
    with pytest.raises(InvariantViolation, match="symmetry"):
        LambdaSet(curve, 2, [-2, 0], "kani")
    # an unknown mode is a bad argument, not a broken invariant
    with pytest.raises(ValueError, match="mode"):
        LambdaSet(curve, 2, [-2, 2], "guess")


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so every invariant check in the
    # package must raise an exception instead
    found = []
    for path in sorted(pathlib.Path(lambda2.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(node, ast.Assert) or (
                isinstance(exc, ast.Name) and exc.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_weil_poly():
    assert weil_poly(5, -2) == (5, 2, 1)
    assert weil_poly(49, 14) == (49, -14, 1)
    with pytest.raises(OutOfHasseWindow):
        weil_poly(5, 5)


def test_lambda_exact_matches_golden_f5():
    for (a, b), expected in GOLDEN_LAMBDA_F5.items():
        curve = make_curve(5, a, b)
        assert lambda_exact(curve).traces == expected, (a, b)


def test_lambda_set_polynomials():
    curve = make_curve(5, 1, 0)
    lam = lambda_exact(curve)
    assert lam.polynomials() == [(5, 2, 1), (5, -2, 1)]


def test_lambda_formula_candidates_and_flags():
    # j = 1728 with split 2-torsion: every candidate needs resolution
    curve = make_curve(5, 3, 0)
    candidates, flagged = lambda_formula(curve)
    assert candidates.traces == (-4, -2, 0, 2, 4)
    assert flagged == frozenset({-4, -2, 0, 2, 4})
    assert lambda_formula_resolved(curve).traces == (-2, 0, 2)

    # generic j: no flags, formula is already exact
    curve = make_curve(5, 2, 1)
    candidates, flagged = lambda_formula(curve)
    assert candidates.traces == (-3, -1, 1, 3)
    assert flagged == frozenset()

    # rational 2-torsion point count pins the candidate grid mod 4
    curve = make_curve(5, 1, 0)
    candidates, flagged = lambda_formula(curve)
    assert candidates.traces == (-2, 2)
    assert flagged == frozenset()


# every prime from 5 to 167, and the extension fields F_25 and F_49, whose
# object x-line scans cost most
RIGID_FIELDS = [
    q for q in range(5, 170) if all(q % d for d in range(2, math.isqrt(q) + 1))
] + [25, 49]


@pytest.mark.parametrize("q", RIGID_FIELDS)
def test_rigid_closed_form_matches_x_line(q):
    # _rigid decides the 2-torsion structure at j = 0 and 1728 by a power;
    # the x-line root count of every such model is the reference
    field = field_of_order(q)
    for c in field.nonzero_elements():
        for curve in (make_curve(field, c, 0), make_curve(field, 0, c)):
            structure = curve.two_torsion_structure()
            rigid = (structure == "C2" and curve.b.is_zero()) or (
                structure == "Trivial" and curve.a.is_zero()
            )
            assert _rigid(curve) == rigid, (q, str(curve.a), str(curve.b))


def test_rigid_formula_query_above_cap_refused_before_scan(monkeypatch):
    # a rigid curve settles its flagged traces on the inventory, so above
    # INVENTORY_CAP it is refused before the O(q) x-line scan: j = 1728 with
    # C2 (-1 is a nonsquare mod 999983) and j = 0 with Trivial (-2 is not a
    # cube mod 1009)
    def no_scan(self):
        raise RuntimeError("the x-line was scanned")

    monkeypatch.setattr(EllipticCurve, "_xline", no_scan)
    for q, a, b in [(999983, 1, 0), (1009, 0, 2)]:
        with pytest.raises(FieldTooLarge, match="inventory is capped at field size 343"):
            lambda_formula_resolved(make_curve(q, a, b))
    # the Kani route reads the inventory before the base's structure
    with pytest.raises(FieldTooLarge, match="inventory is capped at field size 343"):
        lambda_exact(make_curve(999983, 1, 1))
    # a j = 1728 curve with Full structure is not rigid, and scans
    with pytest.raises(RuntimeError, match="x-line"):
        lambda_formula_resolved(make_curve(1009, 1, 0))


# every field of characteristic at least 5 up to 49
ALL_PAIRS_FIELDS = [5, 7, 11, 13, 17, 19, 23, 25, 29, 31, 37, 41, 43, 47, 49]


def test_lambda_exact_equals_all_pairs_reference():
    classes = 0
    for q in ALL_PAIRS_FIELDS:
        for curve in _curves(q):
            assert lambda_exact(curve).traces == all_pairs_kani_traces(curve), (q, curve)
            classes += 1
    assert classes == 842


@pytest.mark.parametrize("q", [25, 49, 59])
def test_kani_route_does_not_read_the_waterhouse_list(q, monkeypatch, tmp_path):
    # the Kani set comes from the inventory alone, and the Waterhouse list
    # only validates it: a list that lost +-2 must raise, not hide trace 2
    curve = next(c for c in _curves(q) if 2 in lambda_exact(c).traces)
    real = classify.admissible_traces

    def without_two(order):
        return AdmissibleSet(order, [t for t in real(order) if abs(t) != 2])

    monkeypatch.setattr(classify, "admissible_traces", without_two)
    with pytest.raises(InvariantViolation, match="inadmissible trace"):
        lambda_exact(curve)
    with pytest.raises(InvariantViolation, match="inadmissible trace"):
        cli.main(["verify", "--q", str(q), "--cache-dir", str(tmp_path)])


def test_unflagged_candidates_always_survive():
    for q in (5, 7):
        for curve in _curves(q):
            candidates, flagged = lambda_formula(curve)
            exact = set(lambda_exact(curve).traces)
            assert exact <= set(candidates.traces)
            assert set(candidates.traces) - flagged <= exact, (q, curve)


@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_formula_resolved_equals_exact(q):
    for curve in _curves(q):
        assert lambda_formula_resolved(curve).traces == lambda_exact(curve).traces


def test_formula_resolved_equals_exact_square_field_sample():
    field = make_field(5, 2)
    sample = curve_inventory(field)[:6]
    for curve in sample:
        assert lambda_formula_resolved(curve).traces == lambda_exact(curve).traces


def test_lambda_square_field_excludes_extreme_even_traces():
    # over F_25 a curve with 2 rational 2-torsion points never pairs with the
    # trace +-10 classes, which consist of maximal-torsion curves only
    field = make_field(5, 2)
    curve = next(
        c for c in curve_inventory(field) if c.two_torsion_structure() == "C2"
    )
    candidates, _ = lambda_formula(curve)
    assert 10 not in candidates.traces and -10 not in candidates.traces


def test_lambda_cube_class_split_over_f7():
    # four twist-inequivalent curves y^2 = x^3 + b with irreducible cubic:
    # whether traces +-5 survive depends on the cube class of b
    assert lambda_exact(make_curve(7, 0, 2)).traces == (-5, -3, -1, 1, 3, 5)
    assert lambda_exact(make_curve(7, 0, 5)).traces == (-5, -3, -1, 1, 3, 5)
    assert lambda_exact(make_curve(7, 0, 3)).traces == (-3, -1, 1, 3)
    assert lambda_exact(make_curve(7, 0, 4)).traces == (-3, -1, 1, 3)


def test_lambda_full_structure_f7():
    curve = make_curve(7, 0, 1)
    assert curve.trace() == -4
    assert lambda_exact(curve).traces == (-4, 0, 4)


def test_lambda_set_dispatch():
    curve = make_curve(5, 1, 1)
    assert lambda_set(curve, 2) == lambda_exact(curve)
    assert lambda_set(curve, 3).traces == ()
    assert lambda_set(curve, 4).traces == ()
    with pytest.raises(DegreeNotCoprime):
        lambda_set(curve, 5)
    with pytest.raises(DegreeNotCoprime):
        lambda_set(make_curve(7, 1, 1), 14)
    with pytest.raises(ValueError):
        lambda_set(curve, 1)


def test_profile_frozen_examples():
    assert two_torsion_profile_by_trace(5, 2) == {"Full", "C2"}
    assert two_torsion_profile_by_trace(5, -3) == {"Trivial"}
    assert two_torsion_profile_by_trace(25, 10) == {"Full"}
    assert two_torsion_profile_by_trace(25, 4) == {"C2"}
    assert two_torsion_profile_by_trace(25, 2) == {"Full", "C2"}
    with pytest.raises(NotAdmissible):
        two_torsion_profile_by_trace(25, 0)
    with pytest.raises(NotAdmissible):
        isogeny_class_two_torsion_profile(49, 7)


@pytest.mark.parametrize("q", [5, 7, 25])
def test_profile_theorem_matches_inventory(q):
    for a in admissible_traces(q):
        assert two_torsion_profile_by_trace(q, a) == isogeny_class_two_torsion_profile(
            q, a
        ), (q, a)


def test_profile_extremes_require_square_field():
    # +-2*sqrt(q) admissible over F_49 and entirely maximal 2-torsion
    assert two_torsion_profile_by_trace(49, 14) == {"Full"}
    assert two_torsion_profile_by_trace(49, -14) == {"Full"}
    assert math.isqrt(49) * 2 == 14


def test_ramification_solutions_frozen():
    deg6 = ramification_solutions("degree6")
    assert deg6.coefficients == (5, 4, 3) and deg6.target == 14
    assert deg6.solutions == {(2, 1, 0), (1, 0, 3), (0, 2, 2)}

    deg8 = ramification_solutions("degree8")
    assert deg8.coefficients == (7, 6, 4) and deg8.target == 18
    assert deg8.solutions == {(2, 0, 1), (0, 3, 0), (0, 1, 3)}

    with pytest.raises(ValueError):
        ramification_solutions("degree7")


def test_diophantine_triples():
    assert diophantine_triples((5, 4, 3), 1) == []
    assert diophantine_triples((5, 4, 3), 3) == [(0, 0, 1)]
    for triple in diophantine_triples((7, 6, 4), 18):
        m1, m2, m3 = triple
        assert 7 * m1 + 6 * m2 + 4 * m3 == 18
