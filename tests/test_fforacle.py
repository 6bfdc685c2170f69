import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from lambda2.classify import _rigid, lambda_exact
from lambda2.ecurve import FieldTooLarge, curve_inventory, make_curve
from lambda2.ffield import (
    Polynomial,
    factor,
    field_of_order,
    make_field,
    squarefree_decomposition,
)
from lambda2.fforacle import (
    ZeroFunction,
    _candidates,
    _count_places,
    _points,
    branch_degree,
    cover_census,
    lambda_oracle,
    squarefree_by_discriminant,
)
from lambda2.galois2 import geometric_restrictions, module_isomorphisms

from divisor_route import (
    INFINITE_PLACE,
    EllipticFunction,
    divisor_odd_part,
    local_valuation,
    norm_polynomial,
    places_above,
)
from object_reference import (
    NotGenusTwo,
    cover_complementary_trace,
    cover_point_count,
    cover_representatives,
    full_scan_census,
    local_units,
    zero_place_counts,
)

# same frozen table as test_classify: the enumeration route must land on the
# identical sets without ever touching isogeny machinery
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

F5 = make_field(5)
F25 = make_field(5, 2)
E_F5 = make_curve(5, 1, 0)


def _poly(field, coeffs):
    return Polynomial(field, coeffs)


def test_branch_degree_hand_checked():
    # x + 1 is inert at its zero (f(-1) = 3 is a nonsquare): one degree-2
    # branch place, genus 2
    assert branch_degree(E_F5, (1, 1), 0) == 2
    # x vanishes doubly at the 2-torsion point (0,0): unramified, genus 1
    assert branch_degree(E_F5, (0, 1), 0) == 0
    # x^2 + x picks up the split zero at x = -1 again
    assert branch_degree(E_F5, (0, 1, 1), 0) == 2
    # y alone ramifies at all three 2-torsion points and at infinity
    assert branch_degree(E_F5, (), 1) == 4
    # constants give the trivial (disconnected or base) extension
    assert branch_degree(E_F5, (3,), 0) == 0


def test_discriminant_gate_matches_squarefree_decomposition():
    # every cubic and quartic over F_5 and F_7, then seeded random ones over
    # F_11 to F_19: N is squarefree exactly when gcd(N, N') is constant
    def cases():
        for p in (5, 7):
            for deg in (3, 4):
                for low in itertools.product(range(p), repeat=deg):
                    for lead in range(1, p):
                        yield p, [*low, lead]
        rng = random.Random(0x5EED)
        for p in (11, 13, 17, 19):
            for _ in range(1000):
                low = [rng.randrange(p) for _ in range(rng.choice((3, 4)))]
                yield p, low + [rng.randrange(1, p)]

    seen = set()
    for p, f in cases():
        poly = Polynomial(make_field(p), f)
        want = poly.gcd(poly.derivative()).degree() == 0
        assert squarefree_by_discriminant(make_field(p), f) == want, (p, f)
        seen.add(want)
    assert seen == {True, False}


def test_branch_degree_always_even():
    curve = make_curve(5, 2, 1)
    for ucoeffs, v in cover_representatives(F5):
        assert branch_degree(curve, ucoeffs, v) % 2 == 0


def test_point_count_hand_checked():
    u = _poly(F5, [1, 1])
    zero = F5.zero
    assert cover_point_count(E_F5, u, zero) == 6
    assert cover_complementary_trace(E_F5, u, zero) == -2
    assert cover_point_count(E_F5, u, zero, k=2) == 38
    # twisting by the nonsquare flips every local square class
    nu = F5.nonsquare()
    twisted = _poly(F5, [nu, nu])
    assert cover_complementary_trace(E_F5, twisted, zero) == 2


def test_point_count_through_a_zero_of_g():
    # g = x^2 + x vanishes at the 2-torsion point (0,0): exercises the
    # power-series valuation path
    u = _poly(F5, [0, 1, 1])
    assert cover_point_count(E_F5, u, F5.zero) == 6
    assert cover_complementary_trace(E_F5, u, F5.zero) == -2


def test_second_power_count_identity():
    # a' is derived from the count over F_q alone; the count over F_{q^2}
    # must then follow from the two quadratic factors of the zeta function
    for q, a, b in [(5, 1, 0), (5, 2, 1), (7, 0, 2), (7, 1, 3)]:
        curve = make_curve(q, a, b)
        field = curve.field
        checked = 0
        for ucoeffs, v in cover_representatives(field):
            if branch_degree(curve, ucoeffs, v) != 2:
                continue
            n1 = cover_point_count(curve, ucoeffs, v)
            ap = q + 1 - n1 - curve.trace()
            n2 = cover_point_count(curve, ucoeffs, v, k=2)
            at, act = curve.trace(), ap
            assert n2 == q * q + 1 - (at * at - 2 * q) - (act * act - 2 * q)
            checked += 1
            if checked == 12:
                break
        assert checked == 12


def test_census_of_smallest_full_torsion_curve():
    # E(F_5) for y^2 = x^3 + x is exactly its 2-torsion, so branch divisors
    # are the two Frobenius-stable quadratic place pairs with trivial class
    # sum, each carrying 4 * 2 = 8 extensions: 16 covers in total
    census = cover_census(E_F5)
    assert census == {-2: 8, 2: 8}


def test_oracle_matches_golden_f5():
    for (a, b), expected in GOLDEN_LAMBDA_F5.items():
        assert lambda_oracle(make_curve(5, a, b)).traces == expected, (a, b)


def test_oracle_sees_the_cube_class_split_over_f7():
    # the pure-enumeration route confirms that equal j and equal 2-torsion
    # type do not force equal trace sets
    assert lambda_oracle(make_curve(7, 0, 2)).traces == (-5, -3, -1, 1, 3, 5)
    assert lambda_oracle(make_curve(7, 0, 3)).traces == (-3, -1, 1, 3)


def test_oracle_matches_kani_everywhere_small():
    for q in (5, 7):
        for curve in curve_inventory(field_of_order(q)):
            assert lambda_oracle(curve).traces == lambda_exact(curve).traces, (
                q,
                curve.a,
                curve.b,
            )


def test_cover_representatives_shape():
    for field in (F5, F25):
        reps = list(cover_representatives(field))
        q = field.order
        nu = field.nonsquare().index
        assert len(reps) == 2 * q**3 + 2 * q**2 + 2 * q
        assert len(set(reps)) == len(reps)
        for (u0, u1, u2), v in reps:
            # element indices, never the constant function
            assert all(c in range(q) for c in (u0, u1, u2))
            assert v or u1 or u2
            assert v in (0, 1, nu)


def test_oracle_lambda_set_mode():
    lam = lambda_oracle(make_curve(5, 4, 0))
    assert lam.mode == "oracle"
    assert lam.d == 2
    assert lam.polynomials() == [(5, 2, 1), (5, -2, 1)]


def test_elliptic_function_validation():
    with pytest.raises(ZeroFunction):
        EllipticFunction(E_F5, 0, 0)
    with pytest.raises(ValueError):
        EllipticFunction(E_F5, [0, 0, 0, 1], 0)
    with pytest.raises(ValueError):
        EllipticFunction(E_F5, [0, 0, 0, 0, 1], 0)
    with pytest.raises(ValueError):
        EllipticFunction(E_F5, 0, [0, 0, 1])
    # 1, x, y and x^2 have pole orders 0, 2, 3 and 4 at infinity
    curve = make_curve(5, 1, 1)
    for u, v, order in ((1, 0, 0), ([0, 1], 0, 2), (0, 1, 3), ([0, 0, 1], 0, 4)):
        assert EllipticFunction(curve, u, v).pole_order() == order


def test_norm_polynomial_examples():
    e = make_curve(5, 1, 1)
    # g = y: minus the curve cubic
    assert norm_polynomial(e, (0, 1)).coeffs == _poly(F5, [4, 4, 0, 4]).coeffs
    assert norm_polynomial(e, ([0, 1], 0)).coeffs == _poly(F5, [0, 0, 1]).coeffs
    got = norm_polynomial(E_F5, ([0, 1], 1))
    assert got.coeffs == _poly(F5, [0, 4, 1, 4]).coeffs


def test_places_above_kinds():
    e = make_curve(5, 1, 1)
    x = Polynomial.x(F5)
    split = places_above(e, x)  # f(0) = 1 is a square
    assert [p.kind for p in split] == ["split-plus", "split-minus"]
    assert [(p.degree, p.point) for p in split] == [
        (1, (F5.zero, F5.one)),
        (1, (F5.zero, -F5.one)),
    ]
    ram = places_above(E_F5, x)  # x divides x^3 + x
    assert [(p.kind, p.degree) for p in ram] == [("ramified-2-torsion", 1)]
    assert ram[0].point[1].is_zero()
    inert = places_above(e, _poly(F5, [-1, 1]))  # f(1) = 3 is a nonsquare
    assert [(p.kind, p.degree) for p in inert] == [("inert", 2)]
    x0, y0 = inert[0].point
    assert y0 * y0 == inert[0].lift(e.rhs(F5.one))
    # h must be monic of positive degree: a bad argument, not a broken invariant
    for h in (_poly(F5, [1, 2]), _poly(F5, [3])):
        with pytest.raises(ValueError, match="monic"):
            places_above(e, h)


def test_local_valuation_examples():
    x = Polynomial.x(F5)
    origin = places_above(E_F5, x)[0]
    assert local_valuation(E_F5, (x, 0), origin) == 2
    assert local_valuation(E_F5, (x, 0), INFINITE_PLACE) == -2
    e = make_curve(5, 1, 1)
    plus = places_above(e, x)[0]  # the branch through (0, 1)
    assert local_valuation(e, (x, 0), plus) == 1
    assert local_valuation(e, (0, 1), INFINITE_PLACE) == -3


def test_divisor_odd_part_examples():
    x = Polynomial.x(F5)
    e = make_curve(5, 1, 1)
    sketch = divisor_odd_part(e, (x, 0))
    assert sketch.odd_degree() == 2
    assert {p.kind for p in sketch.odd_places} == {"split-plus", "split-minus"}
    # double zero at a 2-torsion point: nothing odd
    assert divisor_odd_part(E_F5, (x, 0)).odd_degree() == 0
    # g = y on a curve whose cubic is irreducible: a degree-3 branch place
    # plus the odd pole at infinity (the cover would have genus 3)
    tall = divisor_odd_part(e, (0, 1))
    assert tall.odd_degree() == 4
    assert sorted(p.kind for p in tall.odd_places) == [
        "infinite",
        "ramified-2-torsion",
    ]
    assert max(p.degree for p in tall.odd_places) == 3


def _branch_cases(curve, ucoeffs, v):
    """Which cases of branch_degree the input reaches, read off a full
    factorization of the norm.  The closed form it takes: for v = 0 (norm
    u^2) a square u, or deg u and the number c of roots u shares with the
    cubic; for v != 0 the shape of the norm.  And a doubled prime coprime to
    the cubic: a prime of multiplicity 2 mod 4, for v = 0, or as an
    irreducible quadratic with v != 0, tagged with how the divisor route
    splits it."""
    cubic = Polynomial(curve.field, [curve.b, curve.a, 0, 1])
    norm = norm_polynomial(curve, (ucoeffs, v))
    factors = factor(norm)
    cases = set()
    for h, mult in factors:
        if mult % 4 != 2 or (cubic % h).is_zero():
            continue
        if not v:
            cases.add("v = 0")
        elif h.degree() == 2:
            cases.add("quadratic " + places_above(curve, h)[0].kind)
    mults = [mult for _, mult in factors]
    if not v:
        if any(mult > 2 for mult in mults):
            cases.add("v = 0, square u")
        else:
            shared = sum(h.degree() for h, _ in factors if (cubic % h).is_zero())
            cases.add(f"v = 0, deg u = {norm.degree() // 2}, c = {shared}")
    elif all(mult == 1 for mult in mults):
        cases.add("squarefree norm")
    elif norm.degree() == 3:
        cases.add("repeated cubic")
    elif all(mult % 2 == 0 for mult in mults):
        cases.add("square quartic")
    else:
        cases.add("repeated non-square quartic")
    return cases


def test_divisor_route_agrees_with_branch_degree():
    # the place-by-place factorization route and the closed forms must read
    # off the same branch data for every candidate function; the curves span
    # every 2-torsion structure (F_5: Trivial, Full; F_7: Full, C2, Trivial)
    reached = set()
    for q, a, b in [(5, 2, 1), (5, 1, 0), (7, 0, 1), (7, 1, 0), (7, 0, 2)]:
        curve = make_curve(q, a, b)
        for ucoeffs, v in cover_representatives(curve.field):
            sketch = divisor_odd_part(curve, (ucoeffs, v))
            assert sketch.odd_degree() == branch_degree(curve, ucoeffs, v), (
                q, a, b, ucoeffs, v,
            )
            reached |= _branch_cases(curve, ucoeffs, v)
    # every closed form ran, the v = 0 doubled prime too, and an irreducible
    # quadratic prime with v != 0, which always splits since f = (u/v)^2 at
    # its roots
    assert reached == {
        "v = 0",
        "quadratic split-plus",
        "v = 0, square u",
        "v = 0, deg u = 1, c = 0",
        "v = 0, deg u = 1, c = 1",
        "v = 0, deg u = 2, c = 0",
        "v = 0, deg u = 2, c = 1",
        "v = 0, deg u = 2, c = 2",
        "squarefree norm",
        "repeated cubic",
        "square quartic",
        "repeated non-square quartic",
    }


def test_branch_degree_matches_squarefree_parts():
    # every cover of every class over F_5, F_7 and F_11, against squarefree
    # decompositions of Polynomial objects.  v = 0: twice the degree of the
    # odd-multiplicity part of u less the roots it shares with the cubic.
    # v != 0: the odd-multiplicity part of the norm N, plus infinity when
    # u2 = 0.  A norm that the discriminant gate calls squarefree is its own
    # odd part, of degree 4 - [u2 = 0], so only the other norms are
    # decomposed; the gate is held to gcd(N, N') in
    # test_discriminant_gate_matches_squarefree_decomposition
    decomposed = set()
    for q in (5, 7, 11):
        field = field_of_order(q)
        covers = list(cover_representatives(field))
        odd_parts_of_u = {}
        for u, v in covers:
            if not v:
                parts = squarefree_decomposition(Polynomial(field, list(u)))
                odd_parts_of_u[u] = [h for h, mult in parts if mult % 2]
        for curve in curve_inventory(field):
            a, b = curve.a.coeffs[0], curve.b.coeffs[0]
            cubic = Polynomial(field, [b, a, 0, 1])
            shared = {}  # deg gcd(h, cubic) for each odd part h of some u
            for (u0, u1, u2), v in covers:
                got = branch_degree(curve, (u0, u1, u2), v)
                if not v:
                    want = 0
                    for h in odd_parts_of_u[u0, u1, u2]:
                        if h not in shared:
                            shared[h] = h.gcd(cubic).degree()
                        want += 2 * (h.degree() - shared[h])
                    assert got == want, (q, a, b, (u0, u1, u2), v)
                    continue
                vv = v * v
                norm = [
                    (u0 * u0 - vv * b) % q,
                    (2 * u0 * u1 - vv * a) % q,
                    (u1 * u1 + 2 * u0 * u2) % q,
                    (2 * u1 * u2 - vv) % q,
                    u2 * u2 % q,
                ]
                if squarefree_by_discriminant(field, norm):
                    assert got == 4, (q, a, b, (u0, u1, u2), v)
                    continue
                parts = squarefree_decomposition(norm_polynomial(curve, ((u0, u1, u2), v)))
                want = sum(h.degree() for h, mult in parts if mult % 2) + (0 if u2 else 1)
                assert got == want, (q, a, b, (u0, u1, u2), v)
                decomposed.add(want)
    # non-squarefree norms of both outcomes were decomposed
    assert decomposed == {0, 2}


def test_scaling_by_square_leaves_counts_alone():
    curve = make_curve(5, 2, 1)
    checked = 0
    for ucoeffs, v in cover_representatives(F5):
        if branch_degree(curve, ucoeffs, v) != 2:
            continue
        # 4 = 2^2 in F_5
        scaled = tuple(4 * c % 5 for c in ucoeffs)
        assert branch_degree(curve, scaled, 4 * v % 5) == 2
        for k in (1, 2):
            assert cover_point_count(curve, scaled, 4 * v % 5, k=k) == (
                cover_point_count(curve, ucoeffs, v, k=k)
            )
        checked += 1
        if checked == 10:
            break
    assert checked == 10


def test_verified_trace_matches_census_f5():
    # rebuild every census through the checked single-cover route, which
    # runs the branch test, the Hasse window and the N2 identity per cover;
    # the object place count it uses is the reference for the census's
    # index count, checked over F_5 and on one F_7 curve (F_25 in
    # test_index_place_count_matches_the_object_reference_over_f25)
    cases = [((5, a, b), expected) for (a, b), expected in GOLDEN_LAMBDA_F5.items()]
    cases.append(((7, 0, 2), (-5, -3, -1, 1, 3, 5)))
    for (q, a, b), expected in cases:
        curve = make_curve(q, a, b)
        tally = {}
        for ucoeffs, v in cover_representatives(curve.field):
            if branch_degree(curve, ucoeffs, v) != 2:
                continue
            ap = cover_complementary_trace(curve, ucoeffs, v)
            tally[ap] = tally.get(ap, 0) + 1
        assert tally == cover_census(curve)
        assert tuple(sorted(tally)) == expected


def test_trace_and_oracle_guards():
    with pytest.raises(NotGenusTwo):
        cover_complementary_trace(E_F5, _poly(F5, [0, 1]), 0)
    with pytest.raises(FieldTooLarge):
        lambda_oracle(make_curve(41, 1, 1))
    with pytest.raises(FieldTooLarge):
        lambda_oracle(curve_inventory(field_of_order(25))[0])
    # the branch test and the covers run on element indices over every field:
    # F_25's first cover is g = x, and its first class (0, b) has f(0) = b != 0,
    # so x shares no root with the cubic and branches at two places; u of
    # degree above 2 and the zero function are refused
    e25 = curve_inventory(F25)[0]
    assert e25.a.is_zero() and not e25.b.is_zero()
    assert next(cover_representatives(F25)) == ((0, 1, 0), 0)
    assert branch_degree(e25, (0, 1), 0) == 2
    with pytest.raises(ValueError):
        branch_degree(E_F5, (1, 0, 0, 1), 0)
    with pytest.raises(ZeroFunction):
        branch_degree(E_F5, (0, 0, 0), 0)
    # the place count refuses it too, at its first zero
    points = [(x.index, y.index) for x, y in E_F5.affine_points()]
    with pytest.raises(ZeroFunction):
        _count_places(E_F5, points, F5.squares_table(), (0, 0, 0), 0)


def test_degenerate_constant_covers():
    # w^2 = square constant is two disjoint copies of E; a nonsquare
    # constant has no rational points at all until the field is extended
    e = make_curve(5, 1, 1)
    assert cover_point_count(e, (4, 0, 0), 0) == 2 * e.point_count()
    assert cover_point_count(e, (2, 0, 0), 0) == 0
    assert cover_point_count(e, (2, 0, 0), 0, k=2) == 2 * e.point_count(2)


def test_branch_degree_refuses_indices_outside_the_field():
    # a negative index would wrap around in the tables and answer silently
    e25 = curve_inventory(F25)[0]
    for curve, u, v in (
        (E_F5, (-1, 1), 0),
        (E_F5, (0, 5), 0),
        (E_F5, (1, 1, 1), -1),
        (E_F5, (1,), 5),
        (e25, (25, 1), 0),
        (e25, (0, 0, -24), 1),
    ):
        with pytest.raises(ValueError, match="range"):
            branch_degree(curve, u, v)
    # the top index of each field is served
    assert branch_degree(E_F5, (4, 4, 4), 4) in (0, 2, 4)
    assert branch_degree(e25, (24, 24, 24), 24) in (0, 2, 4)


def test_census_matches_kani_on_the_rigid_classes_of_f25():
    # rigid bases (j = 0 with Trivial 2-torsion, j = 1728 with C2) are where
    # formula equals Kani by construction, so actual covers are the only
    # independent check; four of these are supersingular j = 0 Trivial
    # classes, a kind that no prime field has
    rigid = [curve for curve in curve_inventory(F25) if _rigid(curve)]
    assert len(rigid) == 6
    assert sum(
        c.a.is_zero() and c.is_supersingular() and c.two_torsion_structure() == "Trivial"
        for c in rigid
    ) == 4
    for curve in rigid:
        assert tuple(sorted(cover_census(curve))) == lambda_exact(curve).traces, curve


def test_index_place_count_matches_the_object_reference_over_f25():
    # seeded covers of F_25 classes, half of them forced through a rational
    # point so the zero path runs: the census's index count equals the
    # object count, and the a' it gives fits the object count over F_625
    rng = random.Random(0x5EED)
    inventory = curve_inventory(F25)
    nu = F25.nonsquare().index
    add, mul, neg, _ = F25.index_arithmetic()
    q = F25.order
    checked = zeros = 0
    while checked < 12:
        curve = rng.choice(inventory)
        points = [(x.index, y.index) for x, y in curve.affine_points()]
        u = [rng.randrange(q) for _ in range(3)]
        v = rng.choice((0, 1, nu))
        if checked % 2:
            x0, y0 = rng.choice(points)
            # u0 = -(x0*(u1 + x0*u2) + v*y0), so g vanishes at (x0, y0)
            u[0] = neg[add[mul[x0][add[u[1]][mul[x0][u[2]]]]][mul[v][y0]]]
        if not (v or u[1] or u[2]) or branch_degree(curve, u, v) != 2:
            continue
        got = _count_places(curve, points, F25.squares_table(), u, v)
        elems, ve = [F25.from_index(c) for c in u], F25.from_index(v)
        assert got == cover_point_count(curve, elems, ve), (curve, u, v)
        at = curve.trace()
        ap = q + 1 - got - at
        n2 = cover_point_count(curve, elems, ve, k=2)
        assert n2 == q * q + 1 - (at * at - 2 * q) - (ap * ap - 2 * q), (curve, u, v)
        checked += 1
        zeros += checked % 2 == 0
    assert zeros == 6


@pytest.mark.parametrize("q", [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 25, 49])
def test_index_points_and_nonsquare_match_the_object_ones(q):
    # the census lists its points on element indices, each square's roots
    # off the mul diagonal, and reads nu off the square table: the list is
    # affine_points' (Tonelli-Shanks roots), in its order, on every class,
    # and the census's nonzero v are 1 and the canonical nonsquare
    field = field_of_order(q)
    inventory = curve_inventory(field)
    for curve in inventory:
        points = _points(curve)
        assert points == [(x.index, y.index) for x, y in curve.affine_points()], curve
    vs = {v for _, v in _candidates(inventory[0], _points(inventory[0]))}
    assert vs == {0, 1, field.nonsquare().index}


@pytest.mark.parametrize("q", [5, 7, 11, 13, 17, 19])
def test_tangency_census_matches_the_full_scan(q):
    # the census tests the v = 0 representatives and, for v != 0, only the
    # functions tangent to E at an affine point; the full scan tests all
    # 2q^3 + 2q^2 + 2q covers, and the histograms must be equal, multiplicities
    # included, so each genus-2 cover is generated exactly once
    for curve in curve_inventory(field_of_order(q)):
        assert cover_census(curve) == full_scan_census(curve), curve


def test_index_place_count_at_two_torsion_zeros():
    # every genus-2 cover vanishing at a rational 2-torsion point (e, 0), over
    # every class of F_5, F_7 and F_11: the closed form (valuation 1 for
    # v != 0, else 2 with the unit u'(e)/f'(e)) equals the object count
    # through the fixed-point series in y.  Valuation 4 with the unit u2
    # needs u = u2*(x - e)^2, branch degree 0 and never a census cover, so
    # those u are counted on their own
    checked = 0
    for q in (5, 7, 11):
        field = field_of_order(q)
        nu = field.nonsquare().index
        for curve in curve_inventory(field):
            for u, v, _, got, want in zero_place_counts(curve, True):
                assert got == want, (curve, u, v)
                checked += 1
            points = [(x.index, y.index) for x, y in curve.affine_points()]
            for e in (x0 for x0, y0 in points if not y0):
                for c in (1, nu):
                    u = (c * e * e % q, -2 * c * e % q, c)
                    got = _count_places(curve, points, field.squares_table(), u, 0)
                    assert got == cover_point_count(curve, u, 0), (curve, u)
    assert checked == 1152


def test_index_place_count_at_smooth_zeros():
    # every genus-2 cover vanishing at an affine point (x0, y0) with y0 != 0,
    # over every class of F_5, F_7 and F_11: the closed forms (u'(x0) and u2
    # for v = 0, the norm's Taylor coefficients at x0 for v != 0) equal the
    # object count through y's series in x - x0.  Every kind of zero a
    # genus-2 cover has occurs, tallied as (valuation, v != 0, square unit)
    tally = Counter()
    checked = 0
    for q in (5, 7, 11):
        for curve in curve_inventory(field_of_order(q)):
            for u, v, zeros, got, want in zero_place_counts(curve, False):
                assert got == want, (curve, u, v)
                checked += 1
                for w, square in zeros:
                    tally[w, bool(v), square if w % 2 == 0 else None] += 1
    assert checked == 6988
    assert tally == {
        (1, False, None): 1352,
        (1, True, None): 5192,
        (2, True, True): 2812,
        (2, True, False): 2812,
        (3, True, None): 688,
    }


def test_index_place_count_on_every_tangent_function():
    # the functions tangent to E at an affine point (x0, y0) with y0 != 0,
    # whatever their branch degree: for v != 0 every candidate the census
    # draws, and for v = 0 the squares c*(x - x0)^2.  Besides the zeros of
    # genus-2 covers they reach a double zero with v = 0 and a 4-fold zero,
    # g with divisor 4P - 4*infinity at a point P of order 4, where N4 is the
    # first nonzero coefficient; tallied as (valuation, v != 0, branch degree)
    orders = Counter()
    for q in (5, 7):
        field = field_of_order(q)
        nu = field.nonsquare().index
        squares = field.squares_table()
        for curve in curve_inventory(field):
            points = [(x.index, y.index) for x, y in curve.affine_points()]
            smooth = [(x0, y0) for x0, y0 in points if y0]
            covers = [(u, v) for u, v in _candidates(curve, points) if v]
            for x0 in {x0 for x0, _ in smooth}:
                covers += [((c * x0 * x0 % q, -2 * c * x0 % q, c), 0) for c in (1, nu)]
            for u, v in covers:
                got = _count_places(curve, points, squares, u, v)
                assert got == cover_point_count(curve, u, v), (curve, u, v)
                degree = branch_degree(curve, u, v)
                for w, _ in local_units(curve, smooth, u, v):
                    orders[w, bool(v), degree] += 1
    assert orders == {
        (1, True, 2): 1408,
        (2, True, 2): 1512,
        (3, True, 2): 280,
        (2, True, 0): 384,
        (2, False, 0): 316,
        (4, True, 0): 36,
    }


def test_census_multiplicities_follow_kanis_count():
    # census(E)[a'] = 2*#E(F_q) * sum over the classes E' of trace a' of
    # n(E, E')/|Aut E'|, n(E, E') the Frobenius-equivariant isomorphisms of
    # the 2-torsion modules that no geometric isomorphism restricts to (a
    # set difference: the restrictions need not be equivariant).  Every
    # class of F_5 to F_13; neither the place count nor the full scan enters
    # the right-hand side
    for q in (5, 7, 11, 13):
        inventory = curve_inventory(field_of_order(q))
        for curve in inventory:
            want = {}
            for other in inventory:
                isos = set(module_isomorphisms(curve, other))
                n = len(isos - set(geometric_restrictions(curve, other))) if isos else 0
                if n:
                    ap = other.trace()
                    weight = Fraction(2 * curve.point_count() * n, other.automorphism_count())
                    want[ap] = want.get(ap, 0) + weight
            assert cover_census(curve) == want, curve
