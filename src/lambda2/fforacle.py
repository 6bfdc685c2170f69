"""Brute-force oracle: enumerate genus-2 double covers as function fields.

Every genus-2 curve mapping 2-to-1 onto E arises as w^2 = g for some g in
the Riemann-Roch space of 4*O, i.e. g = u(x) + v*y with deg u <= 2 and v a
scalar (a pole-order argument plus translation by 2-torsion classes shows
nothing outside that space produces new covers).  The cover has genus 2
exactly when the branch divisor of the quadratic extension has degree 2, a
condition read off the norm u^2 - v^2*f without ever constructing the
extension.  For v != 0 the norm has degree 3 or 4, and when its discriminant
is nonzero it is squarefree: every prime of it branches and the degree
is 4, so most covers of the full scan (but no census candidate, see below)
are rejected by one closed form.  For v = 0 the degree follows from u and
its common roots with the cubic.  The remaining norms, repeated cubics and
quartics, are settled by their shape: a prime branches exactly when its
multiplicity is odd, so a repeated quartic branches nowhere exactly when it
is a constant times a square (branch_degree gives the case proof).

For survivors, the degree-1 places of the extension are counted directly:
each rational point of E contributes 2, 1 or 0 places according to the
square class of the local unit of g.  The complementary trace is then

    a' = q + 1 - #places - trace(E)

and the oracle's answer is the set of a' over all covers.  No isogeny
theory enters: this route double-checks both the closed-form candidates and
the 2-torsion gluing criterion from first principles.

At a zero Q = (x0, y0) of g only the parity of the valuation and the square
class of the leading coefficient in a local parameter count.  With y0 != 0
the parameter is t = x - x0, and for v = 0, g = u'(x0)*t + u2*t^2.  For
v != 0, g*(u - v*y) = N = u^2 - v^2*f, and u - v*y takes the value
2u(x0) = -2v*y0 != 0 at Q: g has N's order at x0, and its unit the square
class of 2u(x0)*N_k, N_k the first nonzero of N1 = 2u(x0)*u'(x0) -
v^2*f'(x0), N2 = u'(x0)^2 + 2u(x0)*u2 - 3v^2*x0, N3 = 2u'(x0)*u2 - v^2 and
N4 = u2^2 (N is nonzero of degree at most 4, and N(x0) = 0).  At a
2-torsion point T = (e, 0) the parameter is y: f(x) = (x - e)*(f'(e) +
3e*(x - e) + (x - e)^2) gives x - e = y^2/f'(e) + O(y^4), f'(e) != 0.  With
u(e) = 0 and u'(e) = u1 + 2*u2*e, g = v*y + u'(e)*(x - e) + u2*(x - e)^2 is
v*y + (u'(e)/f'(e))*y^2 + O(y^4), and u2*y^4/f'(e)^2 + O(y^6) when
v = u'(e) = 0.  So v != 0 gives valuation 1 and one place; v = 0 and
u'(e) != 0 valuation 2 and two places or none by the square class of
u'(e)/f'(e); otherwise valuation 4 and the unit u2, as at a double zero
with y0 != 0 and v = 0 (u = u2*(x - x0)^2 branches nowhere, so no census
cover has either).

The census tests about 4q^2 functions, not all 2q^3 + 2q^2 + 2q.  Scaling g
by a square changes nothing, so v is 0, 1 or the canonical nonsquare nu,
and for v = 0 one u per scaling class is taken, monic up to nu and not
constant.  For v != 0 only the functions tangent to E at an affine point
are taken, by a lemma read off branch_degree's case list.  With v != 0 and
branch degree 2, N = u^2 - v^2*f has exactly one repeated linear factor l
(N is l^2*m, l^3, l^2*Q or l^3*m, m linear, Q squarefree and prime to l).
At its root r, f(r) != 0, since a common root of u and f would be a simple
root of N (N'(r) = -v^2*f'(r) != 0).  So g vanishes at exactly one point
above r, P = (r, -u(r)/v) with y0 != 0, where x - r is a local parameter and
u - v*y is a unit; g takes the whole multiplicity of l and vanishes to
order at least 2 at P and nowhere else.  Conversely g(P) = 0 = dg(P) forces
u = A + B*(x - x0) + C*(x - x0)^2, A = -v*y0, B = -v*f'(x0)/(2*y0), C free.
So each genus-2 cover with v != 0 comes from one (P, v, C), and the
candidates, which still pass branch_degree, give the full scan's histogram,
multiplicities included.  Every such candidate has N(x0) = N'(x0) = 0, so
squarefree_by_discriminant never returns True on one: branch_degree
settles them all by the shape of the repeated norm.

The census runs on element indices for every field of characteristic at
least 5, the point list included: sums, products, negatives and inverses
come off the field's q x q tables (FiniteField.index_arithmetic), and a
prime field's indices are its residues.  The tests hold it to references on
field elements: the full scan, the object place counter on local series and
affine_points in tests/object_reference.py, and a slower route to the branch
data, factoring the norm place by place, in tests/divisor_route.py.
"""

from __future__ import annotations

# unused here; perfbench/tracer.py patches this name
from .ffield import squarefree_decomposition
from .ecurve import FieldTooLarge
from .classify import LambdaSet

# the census tests about 4q^2 candidates with an O(q) place count each, about
# 0.05 s a curve at q = 37; it runs on any field, but oracle_serves offers it
# on prime fields up to here only, and the other two routes serve the rest
ORACLE_MAX_Q = 37


class ZeroFunction(ValueError):
    """Raised for the zero function, which has no divisor."""


def squarefree_by_discriminant(field, f):
    """Whether f of degree 3 or 4, a list of element indices, is squarefree.

    For f = a*x^4 + b*x^3 + c*x^2 + d*x + e take the invariants
    I = 12ae - 3bd + c^2 and J = 72ace + 9bcd - 27ad^2 - 27b^2e - 2c^3.  Then
    4I^3 - J^2 is 27 times the discriminant of f, and for a = 0 it is 27*b^2
    times the discriminant of the cubic.  With characteristic at least 5 and a
    nonzero leading coefficient it vanishes exactly when f has a repeated
    factor.
    """
    add, mul, neg, _ = field._arith or field.index_arithmetic()
    p = field.p
    e, d, c, b, a = f if len(f) == 5 else (*f, 0)
    mc = mul[c]
    ae, bd, cc = mul[a][e], mul[b][d], mc[c]
    i = add[add[mul[12 % p][ae]][neg[mul[3][bd]]]][cc]
    # J = 9c(8ae + bd) - 27(ad^2 + b^2e) - 2c^3
    j = add[mul[9 % p][mc[add[mul[8 % p][ae]][bd]]]][
        neg[add[mul[27 % p][add[mul[a][mul[d][d]]][mul[mul[b][b]][e]]]][mul[2][mc[cc]]]]
    ]
    return mul[4][mul[i][mul[i][i]]] != mul[j][j]


def branch_degree(curve, u, v):
    """Degree of the branch divisor of w^2 = u(x) + v*y over the curve.

    u is a sequence of at most three element indices (u0, u1, u2) and v an
    index, as the census's candidates come; on a prime field these are the
    residues.  An index outside range(q) raises ValueError, and so does
    u of degree above 2; u = v = 0 raises ZeroFunction.  Every case below is
    a closed form on the field's index tables; no polynomial is built.  The
    characteristic is at least 5, so 2, 3 and 4 are their own indices.

    v = 0: g = u(x), and a prime of u of multiplicity w has valuation w at
    each place above it, or 2w when it divides f (it ramifies in E); the pole
    order 2*deg u at infinity is even.  With deg u <= 2, u is a constant times
    a square (u2 != 0, u1^2 = 4*u0*u2) and branches nowhere, or is squarefree:
    the degree is 2*(deg u - c), c the number of roots u shares with f.  For
    linear u, c = 1 exactly when f vanishes at the root of u.  For
    u = u2*(x^2 + s*x + t), x^3 = (s^2 - t)*x + s*t mod x^2 + s*x + t, so
    f = (s^2 - t + a)*x + (s*t + b) mod it: both coefficients zero gives c = 2,
    a nonzero x coefficient gives c = 1 exactly when u vanishes at that
    remainder's root, and otherwise c = 0.

    v != 0: a prime of multiplicity w in N = u^2 - v^2*f adds its degree when
    w is odd: it ramifies in E (one place of valuation w) or splits
    (valuations summing to w).  Even w adds nothing.  At a root r,
    u(r)^2 = v^2*f(r), so f(r) = (u(r)/v)^2 is a square and the prime is never
    inert.  At a split prime, g and its conjugate u - v*y cannot both vanish
    at one place (2*v*y would, and y != 0 there), so one place takes the
    whole even w.  Infinity adds one place when u2 = 0.

    So with v != 0, N has degree 4 (leading u2^2) or, if u2 = 0, degree 3
    (leading -v^2).  A squarefree N, which squarefree_by_discriminant
    detects, has only odd multiplicities: the degree is deg N + [u2 = 0] = 4.
    A repeated cubic is l^2*m or l^3 with l, m linear: odd part of degree 1,
    plus infinity, gives 2.  A repeated quartic is l^2 times a squarefree
    quadratic coprime to l, l^3*m, l^2*m^2, Q^2 or l^4, giving 2, 2, 0, 0
    and 0: the degree is 0 exactly when N/u2^2 = (x^2 + alpha*x + beta)^2,
    which forces alpha = n3/2 and beta = (n2 - alpha^2)/2 from the top
    coefficients of the monic N/u2^2 and leaves n1 = 2*alpha*beta and
    n0 = beta^2 to check; otherwise it is 2.
    """
    field = curve.field
    q = field.order
    if len(u) != 3:
        # pad a short u; a longer one may carry only zeros above degree 2
        if any(u[3:]):
            raise ValueError("u must have degree at most 2")
        u = (*u, 0, 0, 0)[:3]
    u0, u1, u2 = u
    # a negative index would wrap around in the tables and answer silently
    if not (0 <= u0 < q and 0 <= u1 < q and 0 <= u2 < q and 0 <= v < q):
        raise ValueError(f"u and v must be element indices in range({q})")
    # the built tables, read without a method call on every cover
    add, mul, neg, inv = field._arith or field.index_arithmetic()
    a, b = curve.indices
    if not v:
        if u2:
            if mul[u1][u1] == mul[4][mul[u0][u2]]:
                return 0
            s, t = mul[u1][inv[u2]], mul[u0][inv[u2]]
            r1, r0 = add[add[mul[s][s]][neg[t]]][a], add[mul[s][t]][b]
            if not r1:
                shared = 0 if r0 else 2
            else:
                x0 = neg[mul[r0][inv[r1]]]
                shared = 0 if add[t][mul[x0][add[s][x0]]] else 1
            return 2 * (2 - shared)
        if u1:
            x0 = neg[mul[u0][inv[u1]]]
            return 0 if add[b][mul[x0][add[a][mul[x0][x0]]]] == 0 else 2
        if u0:
            return 0
        raise ZeroFunction("the zero function has no branch divisor")
    vv, m0, m1, two = mul[v][v], mul[u0], mul[u1], mul[2]
    norm = [
        add[m0[u0]][neg[mul[vv][b]]],
        add[two[m0[u1]]][neg[mul[vv][a]]],
        add[m1[u1]][two[m0[u2]]],
        add[two[m1[u2]]][neg[vv]],
        mul[u2][u2],
    ]
    if squarefree_by_discriminant(field, norm):
        return 4
    if not u2:
        return 2
    half, lead = inv[2], inv[norm[4]]
    n0, n1, n2, n3 = (mul[c][lead] for c in norm[:4])
    alpha = mul[n3][half]
    beta = mul[add[n2][neg[mul[alpha][alpha]]]][half]
    square = n1 == mul[2][mul[alpha][beta]] and n0 == mul[beta][beta]
    return 0 if square else 2


def _count_places(curve, points, squares, ucoeffs, v):
    """Rational places of w^2 = u(x) + v*y for any non-constant (u, v), on
    element indices: index points, u and v, and the field's square table.
    A point where g is a nonzero square gives 2 places and a nonsquare none.
    At a zero of g, the module docstring's closed forms give the valuation
    (odd: 1 place) and the unit (even: 2 or 0 by its square class).  The
    zero function raises ZeroFunction."""
    add, mul, neg, _ = curve.field.index_arithmetic()
    a = curve.indices[0]
    u0, u1, u2 = ucoeffs
    if v and not u2:
        total = 1  # odd pole order at infinity: a single ramified place
    else:
        # even order at infinity: the unit there is the leading coefficient
        total = 2 if squares[u2 or u1 or u0] else 0
    vrow = mul[v]
    vv = vrow[v]
    for x0, y0 in points:
        val = add[add[u0][mul[x0][add[u1][mul[x0][u2]]]]][vrow[y0]]
        if val:
            if squares[val]:
                total += 2
            continue
        du = add[u1][mul[2][mul[u2][x0]]]  # u'(x0)
        df = add[mul[3][mul[x0][x0]]][a]  # f'(x0)
        if v:
            if not y0:
                total += 1  # v*y + O(y^2): valuation 1
                continue
            two_u = neg[mul[2][vrow[y0]]]  # 2u(x0), the conjugate's value
            if add[mul[two_u][du]][neg[mul[vv][df]]]:  # N1
                total += 1
                continue
            n2 = add[add[mul[du][du]][mul[two_u][u2]]][neg[mul[vv][mul[3][x0]]]]
            if not n2 and add[mul[2][mul[du][u2]]][neg[vv]]:  # N3
                total += 1
                continue
            unit = mul[two_u][n2 or mul[u2][u2]]  # 2u(x0)*N2, or *N4
        elif du:
            if y0:
                total += 1  # u'(x0)*t + u2*t^2: valuation 1
                continue
            unit = mul[du][df]  # (u'(e)/f'(e))*y^2 up to the square f'(e)^2
        elif u2:
            unit = u2  # u2*t^2, or u2*y^4/f'(e)^2 at (e, 0)
        else:
            raise ZeroFunction("the zero function has no divisor")
        if squares[unit]:
            total += 2
    return total


def _candidates(curve, points):
    """Index triples (u0, u1, u2) and index v of the covers the census tests:
    the v = 0 representatives and, for v != 0, the functions tangent to E at
    an affine point with y0 != 0 (see the module docstring)."""
    field = curve.field
    add, mul, neg, inv = field.index_arithmetic()
    nu = field.squares_table().index(0)  # the canonical nonsquare
    for scale in (1, nu):
        row = mul[scale]
        for c0 in row:
            yield (c0, scale, 0), 0
        for c0 in row:
            for c1 in row:
                yield (c0, c1, scale), 0
    a = curve.indices[0]
    for x0, y0 in points:
        if not y0:
            continue
        # dy/dx = f'(x0) / (2*y0) at the point
        slope = mul[add[mul[3][mul[x0][x0]]][a]][inv[mul[2][y0]]]
        x0x0, minus_2x0 = mul[x0][x0], neg[mul[2][x0]]
        for v in (1, nu):
            # u = A + B*(x - x0) + C*(x - x0)^2 with A = -v*y0, B = -v*slope:
            # u0 = (A - B*x0) + C*x0^2, u1 = B - 2*C*x0 and u2 = C
            lin = neg[mul[v][slope]]
            const = neg[add[mul[v][y0]][mul[lin][x0]]]
            for c in range(field.order):
                yield (add[const][mul[c][x0x0]], add[lin][mul[c][minus_2x0]], c), v


def _points(curve):
    """The affine points as index pairs, sorted as affine_points sorts them:
    by x, then by y, with the roots of each square read off mul's diagonal."""
    add, mul = curve.field.index_arithmetic()[:2]
    a, b = curve.indices
    roots = {}
    for y, row in enumerate(mul):
        roots.setdefault(row[y], []).append(y)
    # f(x) = x*(x^2 + a) + b
    fx = (add[row[add[row[x]][a]]][b] for x, row in enumerate(mul))
    return [(x, y) for x, v in enumerate(fx) for y in roots.get(v, ())]


def cover_census(curve):
    """Complementary-trace histogram over all genus-2 double covers."""
    field = curve.field
    points = _points(curve)
    squares = field.squares_table()
    base = field.order + 1 - curve.trace()
    counts = {}
    for ucoeffs, v in _candidates(curve, points):
        if branch_degree(curve, ucoeffs, v) != 2:
            continue
        ap = base - _count_places(curve, points, squares, ucoeffs, v)
        counts[ap] = counts.get(ap, 0) + 1
    return counts


def oracle_serves(field):
    """Whether the cover census runs over this field: prime, at most ORACLE_MAX_Q."""
    return field.m == 1 and field.order <= ORACLE_MAX_Q


def lambda_oracle(curve):
    """Complementary-trace set computed by exhaustive cover enumeration."""
    if not oracle_serves(curve.field):
        raise FieldTooLarge(f"the oracle serves prime q up to {ORACLE_MAX_Q} only")
    return LambdaSet(curve, 2, sorted(cover_census(curve)), "oracle")
