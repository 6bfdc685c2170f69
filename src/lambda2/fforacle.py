"""Brute-force oracle: enumerate genus-2 double covers as function fields.

Every genus-2 curve mapping 2-to-1 onto E arises as w^2 = g for some g in
the Riemann-Roch space of 4*O, i.e. g = u(x) + v*y with deg u <= 2 and v a
scalar (a pole-order argument plus translation by 2-torsion classes shows
nothing outside that space produces new covers).  The cover has genus 2
exactly when the branch divisor of the quadratic extension has degree 2, a
condition read off the norm u^2 - v^2*f without ever constructing the
extension.  For v != 0 the norm has degree 3 or 4, and when its discriminant
is nonzero it is squarefree: every prime of it branches and the degree
is 4, so most covers are rejected by one closed form.  For v = 0 the degree
follows from u and its common roots with the cubic.  The remaining norms,
repeated cubics and quartics, are settled by their shape: a prime branches
exactly when its multiplicity is odd, so a repeated quartic branches nowhere
exactly when it is a constant times a square (branch_degree gives the case
proof).  Every case is a closed form on element indices; no polynomial is
built per cover.

For survivors, the degree-1 places of the extension are counted directly:
each rational point of E contributes 2, 1 or 0 places according to the
square class of the local unit of g (a short power-series expansion at the
finitely many zeros of g).  The complementary trace is then

    a' = q + 1 - #places - trace(E)

and the oracle's answer is the set of a' over all covers.  No isogeny
theory enters: this route double-checks both the closed-form candidates and
the 2-torsion gluing criterion from first principles.

The census runs on element indices, with one arithmetic for every field of
characteristic at least 5: cover_representatives yields indices, and the
branch test, the place count and the local units at the zeros of g read
sums, products, negatives and inverses off the field's q x q index tables
(FiniteField.index_arithmetic).  A prime field's indices are its residues,
so prime and extension fields share every line.  Field objects appear once
per point of E, to build its local expansions.  The object place counter,
which also runs over F_{q^2}, is the test reference in
tests/object_reference.py; the tests hold the census to it.

A second, slower route to the same branch data, which factors the norm and
reads valuations off local expansions place by place, is the reference in
tests/divisor_route.py; the tests hold branch_degree to it on every cover of
five curves over F_5 and F_7.  No production route needs it.
"""

from __future__ import annotations

from .ffield import (
    InvariantViolation,
    squarefree_decomposition,  # unused here; perfbench/tracer.py patches this name
)
from .ecurve import FieldTooLarge
from .classify import LambdaSet

# truncation order for local expansions: g has at most 4 zeros, so every
# needed valuation sits strictly below this
SERIES_PRECISION = 6

# enumeration is cubic in q, so the oracle stops here; the census itself runs
# on any field, but oracle_serves offers it on prime fields only, and larger
# and non-prime fields are served by the other two routes
ORACLE_MAX_Q = 19


class ZeroFunction(ValueError):
    """Raised for the zero function, which has no divisor."""


def _series_mul(a, b, zero):
    n = len(a)
    out = [zero] * n
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j in range(n - i):
            bj = b[j]
            if not bj.is_zero():
                out[i + j] = out[i + j] + ai * bj
    return out


def _series_sqrt_one(t, field):
    """Square root of a unit series with constant term 1 (char > 2)."""
    n = len(t)
    half = field.element(2).inverse()
    s = [field.one] + [field.zero] * (n - 1)
    for k in range(1, n):
        acc = t[k]
        for i in range(1, k):
            acc = acc - s[i] * s[k - i]
        s[k] = acc * half
    return s


def _point_series(a, b, x0, y0, n):
    """Series for (x, y) in the local parameter at a point of y^2 = x^3+ax+b.

    The coefficients a, b and the point must live in one field.  At a smooth
    point the parameter is x - x0 and y = y0*sqrt(f(x)/f(x0)) on the chosen
    branch; at a 2-torsion point the parameter is y and x - x0 solves
    f(x0 + s) = y^2 by a fixed-point iteration that gains two orders of
    precision per pass.
    """
    field = x0.field
    zero, one = field.zero, field.one
    if not y0.is_zero():
        xs = [x0, one] + [zero] * (n - 2)
        x2 = _series_mul(xs, xs, zero)
        x3 = _series_mul(x2, xs, zero)
        fs = [x3[i] + a * xs[i] for i in range(n)]
        fs[0] = fs[0] + b
        inv = (y0 * y0).inverse()
        ys = [y0 * c for c in _series_sqrt_one([c * inv for c in fs], field)]
    else:
        fp = (field.element(3) * x0 * x0 + a).inverse()
        three_x0 = field.element(3) * x0
        s = [zero] * n
        for _ in range(n // 2 + 1):
            s2 = _series_mul(s, s, zero)
            s3 = _series_mul(s2, s, zero)
            s = [(-three_x0 * s2[i] - s3[i]) * fp for i in range(n)]
            s[2] = s[2] + fp
        xs = [x0 + s[0]] + s[1:]
        ys = [zero, one] + [zero] * (n - 2)
    return xs, ys


def _point_powers(curve, x0, y0):
    """Expansions (x, x^2, y) in the local parameter at (x0, y0).

    They depend only on the curve and the point, so the census computes them
    once per point and reuses them for every cover vanishing there.
    """
    xs, ys = _point_series(curve.a, curve.b, x0, y0, SERIES_PRECISION)
    return xs, _series_mul(xs, xs, curve.field.zero), ys


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
    index, as cover_representatives yields them; on a prime field these are
    the residues.  An index outside range(q) raises ValueError, and so does
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


def _count_places(curve, points, squares, ucoeffs, v, powers):
    """Rational places of w^2 = u(x) + v*y, on element indices: index points,
    index u and v, and the field's square table.  A point where g is a
    nonzero square gives 2 places and a nonsquare none.  At a zero of g the
    valuation and unit are read off the point's expansions (x, x^2, y) as
    index lists, built once per point and kept in the caller's dict powers,
    keyed by index point: odd valuation gives 1 place, even 2 or 0 by the
    unit's square class."""
    add, mul, _, _ = curve.field.index_arithmetic()
    u0, u1, u2 = ucoeffs
    if v and not u2:
        total = 1  # odd pole order at infinity: a single ramified place
    else:
        # even order at infinity: the unit there is the leading coefficient
        total = 2 if squares[u2 or u1 or u0] else 0
    for x0, y0 in points:
        val = add[add[u0][mul[x0][add[u1][mul[x0][u2]]]]][mul[v][y0]]
        if val:
            if squares[val]:
                total += 2
            continue
        at = powers.get((x0, y0))
        if at is None:
            field = curve.field
            series = _point_powers(curve, field.from_index(x0), field.from_index(y0))
            at = powers[x0, y0] = tuple([c.index for c in s] for s in series)
        xs, x2, ys = at
        # the constant term is val = 0
        for w in range(1, SERIES_PRECISION):
            unit = add[add[mul[u1][xs[w]]][mul[u2][x2[w]]]][mul[v][ys[w]]]
            if unit:
                break
        else:
            raise InvariantViolation("zero of unexpected multiplicity")
        if w % 2 == 1:
            total += 1
        elif squares[unit]:
            total += 2
    return total


def cover_representatives(field):
    """Generators of the quadratic extensions, one per square-scaling class.

    Yields index triples (u0, u1, u2) and an index v, residues on a prime
    field.  Scaling g by a square changes nothing, so v is pinned to 0, 1 or
    the canonical nonsquare, and for v = 0 the polynomial u is monic up to
    that same nonsquare.  Constants are skipped (they give the trivial
    cover).
    """
    q = field.order
    mul = field.index_arithmetic()[1]
    nu = field.nonsquare().index
    for scale in (1, nu):
        row = mul[scale]
        for c0 in range(q):
            yield (row[c0], scale, 0), 0
        for c0 in range(q):
            for c1 in range(q):
                yield (row[c0], row[c1], scale), 0
    for v in (1, nu):
        for u0 in range(q):
            for u1 in range(q):
                for u2 in range(q):
                    yield (u0, u1, u2), v


def cover_census(curve):
    """Complementary-trace histogram over all genus-2 double covers."""
    field = curve.field
    points = [(x.index, y.index) for x, y in curve.affine_points()]
    squares = field.squares_table()
    base = field.order + 1 - curve.trace()
    powers = {}  # index expansions per point, shared by every cover
    counts = {}
    for ucoeffs, v in cover_representatives(field):
        if branch_degree(curve, ucoeffs, v) != 2:
            continue
        ap = base - _count_places(curve, points, squares, ucoeffs, v, powers)
        counts[ap] = counts.get(ap, 0) + 1
    return counts


def oracle_serves(field):
    """Whether the cover census runs over this field: prime, at most ORACLE_MAX_Q."""
    return field.m == 1 and field.order <= ORACLE_MAX_Q


def lambda_oracle(curve):
    """Complementary-trace set computed by exhaustive cover enumeration."""
    if not oracle_serves(curve.field):
        raise FieldTooLarge(
            f"cover enumeration is limited to prime fields of order"
            f" at most {ORACLE_MAX_Q}"
        )
    return LambdaSet(curve, 2, sorted(cover_census(curve)), "oracle")
