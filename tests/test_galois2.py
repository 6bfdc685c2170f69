import itertools

import pytest

from lambda2.classify import kani_admissible
from lambda2.ecurve import curve_inventory, make_curve
from lambda2.ffield import field_of_order, make_field
from lambda2.galois2 import (
    all_isos_are_restrictions,
    geometric_restrictions,
    module_isomorphisms,
    scaling_set,
    two_torsion_module,
)

F5 = make_field(5)
F7 = make_field(7)

# structure of the 2-division cubic for every class over F_5
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

_CYCLE_TYPE = {"Full": [1, 1, 1], "C2": [1, 2], "Trivial": [3]}


def _cycle_lengths(perm):
    seen, out = set(), []
    for i in range(3):
        if i in seen:
            continue
        j, n = i, 0
        while j not in seen:
            seen.add(j)
            j = perm[j]
            n += 1
        out.append(n)
    return sorted(out)


def test_structures_match_golden_table():
    for (a, b), want in GOLDEN_STRUCTURE_F5.items():
        E = make_curve(F5, a, b)
        assert two_torsion_module(E).structure == want, (a, b)


@pytest.mark.parametrize("field", [F5, F7])
def test_module_internal_consistency(field):
    for E in curve_inventory(field):
        mod = two_torsion_module(E)
        # roots really solve the division cubic, inside the right field
        for r in mod.roots:
            assert mod.extension_curve.rhs(r).is_zero()
        assert mod.field.m == field.m * mod.splitting_degree
        assert [r.index for r in mod.roots] == sorted(r.index for r in mod.roots)
        # the Frobenius cycle type is what the structure label says
        assert _cycle_lengths(mod.frobenius) == _CYCLE_TYPE[mod.structure]


@pytest.mark.parametrize("q", [5, 7, 11, 13, 25])
def test_x_line_structure_matches_factor_route(q):
    # kani_admissible reads the x-line scan; the module factors the cubic
    for E in curve_inventory(field_of_order(q)):
        assert two_torsion_module(E).structure == E.two_torsion_structure(), E


def _glues_by_roots(E1, E2):
    # the root-level reference: some equivariant isomorphism of the 2-torsion
    # modules is not the restriction of a geometric isomorphism
    return bool(set(module_isomorphisms(E1, E2)) - set(geometric_restrictions(E1, E2)))


def test_kani_admissible_equals_full_module_test():
    # the closed form against the root-level reference: every ordered pair
    # over the small fields, and every ordered same-j pair at j = 0 or 1728
    # over larger fields, where the twist pairs the counting argument leaves
    # open live (j = 1728 C2, j = 0 C2 and j = 0 Trivial)
    kinds = {}
    for q in (5, 7, 11, 13, 25):
        inv = curve_inventory(field_of_order(q))
        for E1, E2 in itertools.product(inv, inv):
            assert kani_admissible(E1, E2) is _glues_by_roots(E1, E2), (E1, E2)
    for q in (17, 19, 37, 43, 49, 59, 121, 125, 169):
        inv = curve_inventory(field_of_order(q))
        special = [E for E in inv if E.a.is_zero() or E.b.is_zero()]
        for E1, E2 in itertools.product(special, special):
            if E1.j_invariant() != E2.j_invariant():
                continue
            got = kani_admissible(E1, E2)
            assert got is _glues_by_roots(E1, E2), (q, E1, E2)
            if E1.two_torsion_structure() == E2.two_torsion_structure():
                kind = ("j=0" if E1.a.is_zero() else "j=1728", E1.two_torsion_structure())
                kinds.setdefault(kind, set()).add(got)
    assert kinds[("j=0", "Trivial")] == {True, False}
    assert kinds[("j=1728", "C2")] == {False}
    assert kinds[("j=0", "C2")] == {True}


def test_two_torsion_module_is_cached():
    E = make_curve(F5, 1, 1)
    assert two_torsion_module(E) is two_torsion_module(E)


def test_module_isomorphism_counts():
    # 6 / 2 / 3 for matching structures (centralizer cosets), 0 otherwise
    sizes = {"Full": 6, "C2": 2, "Trivial": 3}
    inv = curve_inventory(F5)
    for E1, E2 in itertools.product(inv, inv):
        s1 = two_torsion_module(E1).structure
        s2 = two_torsion_module(E2).structure
        isos = module_isomorphisms(E1, E2)
        if s1 == s2:
            assert len(isos) == sizes[s1]
        else:
            assert isos == ()
        f1 = two_torsion_module(E1).frobenius
        f2 = two_torsion_module(E2).frobenius
        for tau in isos:
            assert all(tau[f1[i]] == f2[tau[i]] for i in range(3))


def test_scaling_set_empty_iff_different_j():
    inv = curve_inventory(F5)
    for E1, E2 in itertools.product(inv, inv):
        _, scalings = scaling_set(E1, E2)
        if E1.j_invariant() == E2.j_invariant():
            assert scalings
        else:
            assert scalings == ()


def test_scaling_set_frozen_values():
    # both j = 1728: u^2 runs over the square roots of a'/a = 4, i.e. {2, 3}
    field, scalings = scaling_set(make_curve(F5, 1, 0), make_curve(F5, 4, 0))
    assert field is F5
    assert {s.index for s in scalings} == {2, 3}
    # generic j: the single value a*b'/(a'*b); for a twist pair this is the
    # twisting non-residue itself
    E = make_curve(F5, 1, 1)
    field, scalings = scaling_set(E, E.quadratic_twist())
    assert field is F5 and len(scalings) == 1
    assert scalings[0] == F5.nonsquare() == F5.element(2)


def test_scaling_set_cardinality_by_j():
    for field in (F5, F7):
        inv = curve_inventory(field)
        for E1, E2 in itertools.product(inv, inv):
            if E1.j_invariant() != E2.j_invariant():
                continue
            _, scalings = scaling_set(E1, E2)
            if E1.a.is_zero():
                assert len(scalings) == 3
            elif E1.b.is_zero():
                assert len(scalings) == 2
            else:
                assert len(scalings) == 1


def test_scaling_splitting_fields():
    # cube roots of 2 over F_5 need a quadratic extension (one root rational)
    field, scalings = scaling_set(make_curve(F5, 0, 1), make_curve(F5, 0, 2))
    assert field.order == 25 and len(scalings) == 3
    # over F_7 the non-cube 2 keeps all three roots in the cubic extension
    field, scalings = scaling_set(make_curve(F7, 0, 1), make_curve(F7, 0, 2))
    assert field.order == 7**3 and len(scalings) == 3


def test_geometric_restrictions_are_bijections():
    for field in (F5, F7):
        inv = curve_inventory(field)
        for E1, E2 in itertools.product(inv, inv):
            taus = geometric_restrictions(E1, E2)
            if E1.j_invariant() != E2.j_invariant():
                assert taus == ()
                continue
            for tau in taus:
                assert sorted(tau) == [0, 1, 2]
            # distinct scalings induce distinct bijections
            _, scalings = scaling_set(E1, E2)
            assert len(taus) == len(scalings)


def test_identity_restriction_on_self():
    for E in curve_inventory(F5):
        assert (0, 1, 2) in geometric_restrictions(E, E)


def test_all_isos_are_restrictions_corrected_closed_form():
    # rigid cases: j=1728 with C2, and j=0 with Trivial provided b'/b is a
    # cube (same Frobenius orientation on the root triangle); everything else
    # admits a non-restriction isomorphism
    for field in (F5, F7):
        cubes = {(e**3).index for e in field.elements()}
        inv = curve_inventory(field)
        for E1, E2 in itertools.product(inv, inv):
            if E1.j_invariant() != E2.j_invariant():
                continue
            s1 = two_torsion_module(E1).structure
            s2 = two_torsion_module(E2).structure
            if s1 != s2:
                # no equivariant isomorphisms at all: vacuous, never admissible
                assert module_isomorphisms(E1, E2) == ()
                assert all_isos_are_restrictions(E1, E2)
                assert not kani_admissible(E1, E2)
                continue
            if E1.a.is_zero() and s1 == "Trivial":
                expected = (E2.b / E1.b).index in cubes
            else:
                expected = E1.b.is_zero() and s1 == "C2"
            assert all_isos_are_restrictions(E1, E2) is expected, (E1, E2)
            assert kani_admissible(E1, E2) is not expected


def test_rigidity_closed_form_gap_is_exactly_the_cube_condition():
    # with the cube condition on b'/b in its j=0 clause, and no gluing on
    # pairs of different structure (where the subset test is vacuously true),
    # the closed form's negation equals the subset test on every ordered
    # pair; j=0 Trivial pairs exist at q = 7 and 13 (q = 1 mod 3), where both
    # outcomes of the cube test must occur
    outcomes = set()
    for q in (5, 7, 11, 13):
        inv = curve_inventory(make_field(q))
        for E1, E2 in itertools.product(inv, inv):
            rigid = all_isos_are_restrictions(E1, E2)
            assert (not kani_admissible(E1, E2)) is rigid, (q, E1, E2)
            if (
                E1.a.is_zero()
                and E2.a.is_zero()
                and two_torsion_module(E1).structure == "Trivial"
                and two_torsion_module(E2).structure == "Trivial"
            ):
                outcomes.add(rigid)
    assert outcomes == {True, False}
    # frozen pair: same j = 0, both Trivial, ratio 3/2 not a cube mod 7, so
    # no equivariant isomorphism is a restriction and the curves glue
    E1, E2 = make_curve(F7, 0, 2), make_curve(F7, 0, 3)
    assert all_isos_are_restrictions(E1, E2) is False
    assert kani_admissible(E1, E2) is True
    # while the cube-ratio partner pair is genuinely rigid
    E3 = make_curve(F7, 0, 5)
    assert kani_admissible(E1, E3) is False
    assert all_isos_are_restrictions(E1, E3) is True


def test_kani_admissible_is_symmetric():
    for field in (F5, F7):
        inv = curve_inventory(field)
        for E1, E2 in itertools.product(inv, inv):
            assert kani_admissible(E1, E2) == kani_admissible(E2, E1)


def test_kani_admissible_requires_matching_structure():
    E1 = make_curve(F5, 1, 0)  # Full
    E2 = make_curve(F5, 1, 1)  # Trivial
    assert not kani_admissible(E1, E2)
    assert not kani_admissible(E2, E1)


def test_kani_admissible_frozen_exception_pair():
    # the two j=1728 classes of trace +-4 over F_5 are C2: rigid, no gluing
    assert not kani_admissible(make_curve(F5, 2, 0), make_curve(F5, 3, 0))
    assert not kani_admissible(make_curve(F5, 2, 0), make_curve(F5, 2, 0))
    # while the Full j=1728 classes glue fine
    assert kani_admissible(make_curve(F5, 1, 0), make_curve(F5, 4, 0))


def test_module_isomorphisms_symmetric_counts():
    inv = curve_inventory(F7)
    for E1, E2 in itertools.product(inv[:8], inv[:8]):
        assert len(module_isomorphisms(E1, E2)) == len(module_isomorphisms(E2, E1))
