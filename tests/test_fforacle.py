import itertools
import random

import pytest

from lambda2.classify import lambda_exact
from lambda2.ecurve import FieldTooLarge, curve_inventory, make_curve
from lambda2.ffield import (
    Polynomial,
    factor,
    field_of_order,
    make_field,
    squarefree_decomposition,
)
from lambda2.fforacle import (
    INFINITE_PLACE,
    EllipticFunction,
    NotGenusTwo,
    NotPrimeField,
    ZeroFunction,
    branch_degree,
    cover_census,
    cover_complementary_trace,
    cover_point_count,
    cover_representatives,
    divisor_odd_part,
    lambda_oracle,
    local_valuation,
    norm_polynomial,
    places_above,
    squarefree_by_discriminant,
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
        assert squarefree_by_discriminant(p, f) == want, (p, f)
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
    reps = list(cover_representatives(F5))
    q = 5
    assert len(reps) == 2 * q**3 + 2 * q**2 + 2 * q
    assert len(set(reps)) == len(reps)
    for (u0, u1, u2), v in reps:
        # residues mod p, never the constant function
        assert all(c in range(q) for c in (u0, u1, u2))
        assert v or u1 or u2
        assert v in (0, 1, F5.nonsquare().coeffs[0])


def test_oracle_lambda_set_mode():
    lam = lambda_oracle(make_curve(5, 4, 0))
    assert lam.mode == "oracle"
    assert lam.d == 2
    assert lam.polynomials() == [(5, 2, 1), (5, -2, 1)]


def test_elliptic_function_validation():
    with pytest.raises(ZeroFunction):
        EllipticFunction(E_F5, 0, 0)
    with pytest.raises(ValueError):
        EllipticFunction(E_F5, [0, 0, 0, 0, 1], 0)
    with pytest.raises(ValueError):
        EllipticFunction(E_F5, 0, [0, 0, 1])
    tall = EllipticFunction(E_F5, [2, 0, 0, 1], [1, 1])
    assert tall.pole_order() == 6
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
                if squarefree_by_discriminant(q, norm):
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
    # residue count, checked over F_5 and on one F_7 curve
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
        lambda_oracle(make_curve(23, 1, 1))
    with pytest.raises(FieldTooLarge):
        lambda_oracle(curve_inventory(field_of_order(25))[0])
    # the branch test works on residues mod p: extension fields are refused,
    # and so are u of degree above 2 and the zero function
    with pytest.raises(NotPrimeField):
        branch_degree(curve_inventory(field_of_order(25))[0], (0, 1), 0)
    with pytest.raises(NotPrimeField):
        next(cover_representatives(field_of_order(25)))
    with pytest.raises(ValueError):
        branch_degree(E_F5, (1, 0, 0, 1), 0)
    with pytest.raises(ZeroFunction):
        branch_degree(E_F5, (0, 0, 0), 0)


def test_degenerate_constant_covers():
    # w^2 = square constant is two disjoint copies of E; a nonsquare
    # constant has no rational points at all until the field is extended
    e = make_curve(5, 1, 1)
    assert cover_point_count(e, (4, 0, 0), 0) == 2 * e.point_count()
    assert cover_point_count(e, (2, 0, 0), 0) == 0
    assert cover_point_count(e, (2, 0, 0), 0, k=2) == 2 * e.point_count(2)
