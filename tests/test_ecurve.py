import math
import random

import pytest

from lambda2 import ecurve
from lambda2.ecurve import (
    FieldTooLarge,
    BadCharacteristic,
    EllipticCurve,
    SingularCurve,
    curve_inventory,
    make_curve,
)
from lambda2.ffield import embedding, make_field, prime_power
from object_reference import enumerate_curves

F5 = make_field(5)
F7 = make_field(7)
F13 = make_field(13)
F25 = make_field(5, 2)
F49 = make_field(7, 2)

# (a, b) -> (j, trace, supersingular, aut) over F_5, all independently recounted
GOLDEN_F5 = {
    (0, 1): (0, 0, True, 2),
    (0, 2): (0, 0, True, 2),
    (1, 0): (3, 2, False, 4),
    (1, 1): (2, -3, False, 2),
    (1, 2): (1, 2, False, 2),
    (2, 0): (3, 4, False, 4),
    (2, 1): (4, -1, False, 2),
    (3, 0): (3, -4, False, 4),
    (3, 2): (4, 1, False, 2),
    (4, 0): (3, -2, False, 4),
    (4, 1): (1, -2, False, 2),
    (4, 2): (2, 3, False, 2),
}


# the orbit reference, on field elements: curve_inventory reads each class's
# lex-min model off the cosets of (F*)^4 and (F*)^6 without any orbit, and
# the tests hold it to these


def isomorphism_orbit(E):
    """All (a, b) models isomorphic to E: {(u^4 a, u^6 b) : u != 0}."""
    orbit = set()
    for u in E.field.nonzero_elements():
        u2 = u * u
        u4 = u2 * u2
        orbit.add((u4 * E.a, u2 * u4 * E.b))
    return orbit


def class_representative(E):
    """The lex-smallest (a, b) of E's orbit, by element index."""
    return min(isomorphism_orbit(E), key=lambda t: (t[0].index, t[1].index))


def is_isomorphic(E1, E2):
    return E1.field == E2.field and (E2.a, E2.b) in isomorphism_orbit(E1)


def reference_inventory(field):
    """Lex-minimal representatives, by the object orbit walk over all models."""
    seen = set()
    reps = []
    for E in enumerate_curves(field):
        if (E.a, E.b) not in seen:
            orbit = isomorphism_orbit(E)
            seen |= orbit
            reps.append((E, orbit))
    return reps


def test_constructor_validation():
    with pytest.raises(SingularCurve):
        make_curve(F5, 0, 0)
    with pytest.raises(SingularCurve):
        make_curve(F5, 2, 2)  # 4*8 + 27*4 = 140 = 0 mod 5
    with pytest.raises(BadCharacteristic):
        make_curve(make_field(3), 1, 1)


def test_singular_locus_is_exact():
    # 4a^3 + 27b^2 = 0 over F_5 at exactly five pairs
    singular = [
        (a, b)
        for a in range(5)
        for b in range(5)
        if (4 * a**3 + 27 * b**2) % 5 == 0
    ]
    assert len(singular) == 5
    for a, b in singular:
        with pytest.raises(SingularCurve):
            make_curve(F5, a, b)


def test_golden_invariants_over_f5():
    for (a, b), (j, trace, ss, aut) in GOLDEN_F5.items():
        E = make_curve(F5, a, b)
        assert E.j_invariant() == F5.element(j), (a, b)
        assert E.trace() == trace, (a, b)
        assert E.is_supersingular() is ss, (a, b)
        assert E.automorphism_count() == aut, (a, b)


def test_trace_satisfies_hasse_bound():
    for field in (F5, F7, F13, F25):
        bound = math.isqrt(4 * field.order)
        for E in curve_inventory(field):
            assert abs(E.trace()) <= bound


def test_point_count_matches_affine_enumeration():
    # prime fields count on residues, F_25 on elements; both against the
    # object point list and a brute-force count over all (x, y) pairs
    for field in (F5, F7, make_field(11), F13, make_field(43), F25):
        elems = list(field.elements())
        y_squares = [y * y for y in elems]
        for E in curve_inventory(field):
            pts = E.affine_points()
            assert E.point_count() == len(pts) + 1, (field, E)
            for x, y in pts:
                assert E.contains((x, y))
            pairs = 0
            for x in elems:
                v = E.rhs(x)
                pairs += sum(1 for y2 in y_squares if y2 == v)
            assert E.point_count() == pairs + 1, (field, E)
            roots = sum(1 for _, y in pts if y.is_zero())
            shape = {3: "Full", 1: "C2", 0: "Trivial"}[roots]
            assert E.two_torsion_structure() == shape, (field, E)


def test_point_count_recursion_matches_direct_extension_count():
    for E in curve_inventory(F5):
        assert E.point_count(2) == E.base_change(2).point_count()
    E = make_curve(F7, 1, 3)
    assert E.point_count(2) == E.base_change(2).point_count()
    assert E.point_count(3) == E.base_change(3).point_count()


def test_trace_over_frozen_supersingular_case():
    # trace 0 over F_5 forces trace -10 over F_25
    E = make_curve(F5, 0, 1)
    assert E.trace_over(2) == -10
    assert E.base_change(2).trace() == -10


def test_quadratic_twist_negates_trace():
    E = make_curve(F5, 1, 1)
    Et = E.quadratic_twist()
    assert (Et.a, Et.b) == (F5.element(4), F5.element(3))
    assert Et.trace() == -E.trace() == 3
    for field in (F7, F25):
        for E in curve_inventory(field):
            assert E.quadratic_twist().trace() == -E.trace()


def test_twist_preserves_j_and_is_nontrivial_generically():
    for E in curve_inventory(F13):
        Et = E.quadratic_twist()
        assert Et.j_invariant() == E.j_invariant()
        if E.trace() != 0:
            assert not is_isomorphic(E, Et)


def test_automorphism_count_matches_orbit_stabilizer():
    for field in (F5, F7, F13, F25):
        n = field.order - 1
        for E in curve_inventory(field):
            stab = sum(
                1
                for u in field.nonzero_elements()
                if u**4 * E.a == E.a and u**6 * E.b == E.b
            )
            assert E.automorphism_count() == stab
            assert stab * len(isomorphism_orbit(E)) == n


def test_inventory_class_counts():
    # 2q - 4 + gcd(4, q-1) + gcd(6, q-1) classes for q = 5 mod 12 etc.
    expected = {5: 12, 7: 18, 11: 22, 13: 32, 25: 56, 49: 104}
    for q, count in expected.items():
        if q == 25:
            field = make_field(5, 2)
        elif q == 49:
            field = make_field(7, 2)
        else:
            field = make_field(q)
        inv = curve_inventory(field)
        assert len(inv) == count
        formula = 2 * q - 4 + math.gcd(4, q - 1) + math.gcd(6, q - 1)
        assert count == formula


def test_inventory_mass_formula():
    # orbit sizes partition the nonsingular (a, b) plane: sum 1/|Aut| = q
    for field in (F5, F7, F13, F25):
        total = sum(1 for _ in enumerate_curves(field))
        orbit_sum = 0
        mass = 0.0
        for E in curve_inventory(field):
            orbit_sum += len(isomorphism_orbit(E))
            mass += 1.0 / E.automorphism_count()
        assert orbit_sum == total
        assert abs(mass - field.order) < 1e-9


def test_inventory_reps_are_lex_minimal_and_sorted():
    inv = curve_inventory(F5)
    assert [
        (E.a.index, E.b.index) for E in inv
    ] == sorted((E.a.index, E.b.index) for E in inv)
    assert set(GOLDEN_F5) == {(E.a.index, E.b.index) for E in inv}
    for E in inv:
        assert class_representative(E) == (E.a, E.b)


# every q <= 49 of characteristic at least 5
SMALL_Q = [5, 7, 11, 13, 17, 19, 23, 25, 29, 31, 37, 41, 43, 47, 49]


@pytest.mark.parametrize("q", SMALL_Q)
def test_inventory_matches_the_object_orbit_walk(q):
    # every class is one object orbit, in the reference's order, and its
    # representative is the orbit's lex-min
    field = make_field(*prime_power(q))
    inv = curve_inventory(field)
    ref = reference_inventory(field)
    assert [(E.a, E.b) for E in inv] == [(E.a, E.b) for E, _ in ref]
    for E, (_, orbit) in zip(inv, ref):
        assert isomorphism_orbit(E) == orbit
        assert class_representative(E) == (E.a, E.b)
        assert len(orbit) * E.automorphism_count() == q - 1


def test_every_j_value_is_realized():
    for field in (F5, F7):
        js = {E.j_invariant().index for E in curve_inventory(field)}
        assert js == set(range(field.order))


def test_enumeration_cap():
    with pytest.raises(FieldTooLarge):
        list(enumerate_curves(make_field(353)))


def test_base_change_embeds_rational_points():
    E = make_curve(F5, 1, 1)
    E2 = E.base_change(2)
    phi = embedding(F5, F25)
    for pt in E.affine_points():
        assert E2.contains((phi(pt[0]), phi(pt[1])))


GOLDEN_STRUCTURE_F5 = {
    (0, 1): "C2",
    (0, 2): "C2",
    (1, 0): "Full",
    (1, 1): "Trivial",
    (1, 2): "C2",
    (2, 0): "C2",
    (2, 1): "Trivial",
    (3, 0): "C2",
    (3, 2): "Trivial",
    (4, 0): "Full",
    (4, 1): "C2",
    (4, 2): "Trivial",
}


def test_two_torsion_structure_golden():
    for (a, b), want in GOLDEN_STRUCTURE_F5.items():
        assert make_curve(F5, a, b).two_torsion_structure() == want, (a, b)


def test_two_torsion_structure_parity_and_twist_invariance():
    # odd trace exactly characterizes the Trivial structure
    for field in (F5, F7, F13, F25):
        for E in curve_inventory(field):
            structure = E.two_torsion_structure()
            assert (E.trace() % 2 == 1) == (structure == "Trivial")
            n = E.point_count()
            if structure == "Full":
                assert n % 4 == 0
            if n % 4 == 2:
                assert structure == "C2"
            assert E.quadratic_twist().two_torsion_structure() == structure


@pytest.mark.parametrize("field", [F25, F49], ids=["F25", "F49"])
def test_one_xline_pass_per_curve(field, monkeypatch):
    # fresh class representatives, so no count is memoized yet; the trace and
    # the 2-torsion structure, each asked twice, cost one index pass of q
    # values per curve
    classes = curve_inventory.__wrapped__(field)
    passes = []
    index_pass = ecurve._rhs_indices

    def counted(field, ai, bi):
        values = list(index_pass(field, ai, bi))
        passes.append((ai, bi, len(values)))
        return iter(values)

    monkeypatch.setattr(ecurve, "_rhs_indices", counted)
    for E in classes:
        for _ in range(2):
            E.trace()
            E.point_count()
            E.two_torsion_structure()
    assert passes == [(E.a.index, E.b.index, field.order) for E in classes]


@pytest.mark.parametrize("p,m", [(5, 2), (7, 2), (5, 3), (7, 3)])
def test_index_pass_equals_the_object_rhs(p, m):
    # the log/Zech x-line takes every value of x^3 + a*x + b, with
    # multiplicity; F_125 and F_343 on a seeded sample of classes
    field = make_field(p, m)
    classes = curve_inventory(field)
    if len(classes) > 120:
        classes = random.Random(343).sample(classes, 40)
    for E in classes:
        want = sorted(E.rhs(x).index for x in field.elements())
        assert sorted(ecurve._rhs_indices(field, E.a.index, E.b.index)) == want, E


@pytest.mark.parametrize(
    "p, m, classes", [(7, 2, 104), (7, 3, 690)], ids=["F49", "F343"]
)
def test_inventory_builds_only_class_representatives(p, m, classes, monkeypatch):
    # the candidates are read off the cosets of (F*)^4 and (F*)^6, so the
    # constructor runs once per class and once per singular candidate:
    # 4a^3 = -27b^2 has at most two roots b for each of the gcd(4, q - 1)
    # values of a
    field = make_field(p, m)
    built = []
    init = EllipticCurve.__init__

    def counted(self, field, a, b):
        built.append((a, b))
        init(self, field, a, b)

    monkeypatch.setattr(EllipticCurve, "__init__", counted)
    inv = curve_inventory.__wrapped__(field)
    assert len(inv) == classes
    assert len(built) <= classes + 2 * math.gcd(4, field.order - 1)
