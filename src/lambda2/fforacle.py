"""Brute-force oracle: enumerate genus-2 double covers as function fields.

Every genus-2 curve mapping 2-to-1 onto E arises as w^2 = g for some g in
the Riemann-Roch space of 4*O, i.e. g = u(x) + v*y with deg u <= 2 and v a
scalar (a pole-order argument plus translation by 2-torsion classes shows
nothing outside that space produces new covers).  The cover has genus 2
exactly when the branch divisor of the quadratic extension has degree 2, a
condition read off the norm u^2 - v^2*f without ever constructing the
extension.  For v != 0 the norm has degree 3 or 4, and when its discriminant
is nonzero mod p it is squarefree: every prime of it branches and the degree
is 4, so most covers are rejected by one closed form.  For v = 0 the degree
follows from u and its common roots with the cubic.  The remaining norms,
repeated cubics and quartics, are settled by their shape: a prime branches
exactly when its multiplicity is odd, so a repeated quartic branches nowhere
exactly when it is a constant times a square (branch_degree gives the case
proof).  Every case is a closed form in residues; no polynomial is built per
cover.

For survivors, the degree-1 places of the extension are counted directly:
each rational point of E contributes 2, 1 or 0 places according to the
square class of the local unit of g (a short power-series expansion at the
finitely many zeros of g).  The complementary trace is then

    a' = q + 1 - #places - trace(E)

and the oracle's answer is the set of a' over all covers.  No isogeny
theory enters: this route double-checks both the closed-form candidates and
the 2-torsion gluing criterion from first principles.

The census runs on residues mod p: the oracle serves prime fields of order
at most ORACLE_MAX_Q = 19 only, so cover_representatives yields residues, and
the branch test, the place count and the local units at the zeros of g all
work on plain ints.  Field objects appear once per point of E, to build its
local expansions.  cover_point_count keeps the object count, which also runs
over F_{q^2}, as the reference the tests hold the census to.

A second, slower route to the same branch data is also exposed: factor the
norm into irreducibles, realize every place above every factor with an
explicit point over the right extension field, and read valuations off
local expansions (divisor_odd_part).  The fast path and the divisor route
are kept deliberately independent so each can check the other.
"""

from __future__ import annotations

from .ffield import (
    InvariantViolation,
    Polynomial,
    embedding,
    factor,
    is_square,
    make_field,
    roots,
    sqrt,
    squarefree_decomposition,  # unused here; perfbench/tracer.py patches this name
)
from .ecurve import FieldTooLarge
from .classify import LambdaSet

# truncation order for local expansions: g has at most 4 zeros, so every
# needed valuation sits strictly below this
SERIES_PRECISION = 6

# enumeration is cubic in q and the residue-field towers stay single-layer
# only over a prime field, so the oracle stops here; larger and non-prime
# fields are served by the other two routes
ORACLE_MAX_Q = 19


class ZeroFunction(ValueError):
    """Raised for the zero function, which has no divisor."""


class NotGenusTwo(ValueError):
    """Raised when a cover expected to have genus 2 does not."""


class NotPrimeField(ValueError):
    """Raised when residue arithmetic mod p is asked to serve an extension field."""


class ZetaInconsistent(RuntimeError):
    """Point counts contradicting the Weil polynomial; a bug if ever seen."""


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


def _local_unit(ucoeffs, v, powers):
    """(valuation, unit value) of g = u(x) + v*y at a zero on the curve, from
    the point's expansions (x, x^2, y)."""
    u0, u1, u2 = ucoeffs
    xs, x2, ys = powers
    gs = [u1 * xs[i] + u2 * x2[i] + v * ys[i] for i in range(SERIES_PRECISION)]
    gs[0] = gs[0] + u0
    for w, c in enumerate(gs):
        if not c.is_zero():
            return w, c
    raise InvariantViolation("zero of unexpected multiplicity")


def _cubic(curve):
    field = curve.field
    return Polynomial(field, [curve.b, curve.a, field.zero, field.one])


def _as_poly(field, value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (tuple, list)):
        return Polynomial(field, list(value))
    return Polynomial(field, [value])


class EllipticFunction:
    """A function u(x) + v(x)*y on the curve with poles only at infinity.

    x and y have pole orders 2 and 3 there, so capping deg u at 3 and deg v
    at 1 covers every pole order up to 6.  The cover search itself only ever
    needs deg u <= 2 with constant v (pole order at most 4).
    """

    __slots__ = ("curve", "u", "v")

    def __init__(self, curve, u, v):
        field = curve.field
        self.curve = curve
        self.u = _as_poly(field, u)
        self.v = _as_poly(field, v)
        if self.u.is_zero() and self.v.is_zero():
            raise ZeroFunction("the zero function has no divisor")
        if self.u.degree() > 3 or self.v.degree() > 1:
            raise ValueError("pole order above 6 is never needed")

    def pole_order(self):
        # the two candidate orders have opposite parity: no cancellation
        orders = []
        if not self.u.is_zero():
            orders.append(2 * self.u.degree())
        if not self.v.is_zero():
            orders.append(2 * self.v.degree() + 3)
        return max(orders)

    def norm(self):
        """Product with the conjugate u - v*y, as a polynomial in x."""
        vv = self.v * self.v
        return self.u * self.u - vv * _cubic(self.curve)

    def __repr__(self):
        return f"EllipticFunction(u={self.u!r}, v={self.v!r})"


def _as_function(curve, g):
    if isinstance(g, EllipticFunction):
        return g
    u, v = g
    return EllipticFunction(curve, u, v)


def norm_polynomial(curve, g):
    """Norm of g = u + v*y down to F_q(x): u^2 - v^2*(x^3 + ax + b).

    Its roots are exactly the x-coordinates of the finite zeros of g.
    """
    return _as_function(curve, g).norm()


class PlaceOnE:
    """A closed point of the curve: infinity, or a place above a monic
    irreducible h(x) tagged by how y behaves in the residue field."""

    __slots__ = ("minpoly", "kind", "degree", "point", "lift")

    def __init__(self, minpoly, kind, degree, point, lift):
        self.minpoly = minpoly
        self.kind = kind
        self.degree = degree
        self.point = point
        self.lift = lift

    def __repr__(self):
        if self.kind == "infinite":
            return "PlaceOnE(infinite)"
        return f"PlaceOnE({self.minpoly!r}, {self.kind}, degree={self.degree})"


INFINITE_PLACE = PlaceOnE(None, "infinite", 1, None, None)


def places_above(curve, h):
    """The places of the curve over a monic irreducible h(x).

    Two split places, one ramified place (h divides the curve cubic), or one
    inert place of doubled residue degree; each comes with a realized point
    over the matching extension field and the lift map from the base field.
    """
    field = curve.field
    d = h.degree()
    if d < 1 or h.leading() != field.one:
        raise ValueError(f"{h!r} is not a monic polynomial of positive degree")
    if d == 1:
        lift = _identity
        x0 = -h.coeffs[0]
    else:
        ext = make_field(field.p, field.m * d)
        lift = embedding(field, ext)
        x0 = roots(Polynomial(ext, [lift(c) for c in h.coeffs]))[0]
    fval = lift(curve.b) + x0 * (lift(curve.a) + x0 * x0)
    if fval.is_zero():
        return [PlaceOnE(h, "ramified-2-torsion", d, (x0, fval), lift)]
    if is_square(fval):
        y0 = sqrt(fval)
        return [
            PlaceOnE(h, "split-plus", d, (x0, y0), lift),
            PlaceOnE(h, "split-minus", d, (x0, -y0), lift),
        ]
    big = make_field(field.p, field.m * d * 2)
    up = embedding(x0.field, big)
    return [PlaceOnE(h, "inert", 2 * d, (up(x0), sqrt(up(fval))), _Compose(up, lift))]


def _identity(c):
    return c


class _Compose:
    __slots__ = ("outer", "inner")

    def __init__(self, outer, inner):
        self.outer = outer
        self.inner = inner

    def __call__(self, c):
        return self.outer(self.inner(c))


def _poly_series(poly, powers, lift, zero, n):
    out = [zero] * n
    for i, c in enumerate(poly.coeffs):
        if c.is_zero():
            continue
        c = lift(c)
        if i == 0:
            out[0] = out[0] + c
        else:
            pw = powers[i]
            for j in range(n):
                out[j] = out[j] + c * pw[j]
    return out


def _function_series(func, place, n):
    """Expansion of u(x) + v(x)*y in the local parameter at a finite place."""
    curve = func.curve
    lift = place.lift
    x0, y0 = place.point
    zero = x0.field.zero
    xs, ys = _point_series(lift(curve.a), lift(curve.b), x0, y0, n)
    x2 = _series_mul(xs, xs, zero)
    powers = (None, xs, x2, _series_mul(x2, xs, zero))
    us = _poly_series(func.u, powers, lift, zero, n)
    vy = _series_mul(_poly_series(func.v, powers, lift, zero, n), ys, zero)
    return [us[i] + vy[i] for i in range(n)]


def local_valuation(curve, g, place):
    """Valuation of g at the place.

    Minus the pole order at infinity; elsewhere the order of vanishing of
    the local expansion at the realized point, to precision deg(norm) + 3
    (always enough: the valuation is bounded by the norm degree).
    """
    func = _as_function(curve, g)
    if place.kind == "infinite":
        return -func.pole_order()
    precision = func.norm().degree() + 3
    for w, c in enumerate(_function_series(func, place, precision)):
        if not c.is_zero():
            return w
    raise InvariantViolation("local expansion vanished to its full precision")


class DivisorSketch:
    """Divisor of a nonzero function as (place, valuation) pairs.

    Zero valuations are dropped; the total degree must come out 0 and the
    odd part must have even degree, both checked at construction.
    """

    __slots__ = ("entries", "odd_places")

    def __init__(self, entries):
        self.entries = tuple((p, w) for p, w in entries if w != 0)
        if sum(p.degree * w for p, w in self.entries) != 0:
            raise InvariantViolation("a principal divisor must have degree 0")
        self.odd_places = tuple(p for p, w in self.entries if w % 2 != 0)
        if self.odd_degree() % 2 != 0:
            raise InvariantViolation("the odd part of a divisor must have even degree")

    def odd_degree(self):
        return sum(p.degree for p in self.odd_places)


def divisor_odd_part(curve, g):
    """Divisor of g computed place by place, with its odd part.

    A deliberately independent second route to the branch data: the norm is
    factored into irreducibles, every place above every factor is expanded
    locally, and the odd part collects the places of odd valuation; these
    are exactly the branch places of w^2 = g, infinity included, so the
    odd-part degree must agree with branch_degree.
    """
    func = _as_function(curve, g)
    entries = [(INFINITE_PLACE, -func.pole_order())]
    for h, _ in factor(func.norm()):
        for place in places_above(curve, h):
            entries.append((place, local_valuation(curve, func, place)))
    return DivisorSketch(entries)


def squarefree_by_discriminant(p, f):
    """Whether the int list f of degree 3 or 4 over F_p, p >= 5, is squarefree.

    For f = a*x^4 + b*x^3 + c*x^2 + d*x + e take the invariants
    I = 12ae - 3bd + c^2 and J = 72ace + 9bcd - 27ad^2 - 27b^2e - 2c^3.  Then
    4I^3 - J^2 is 27 times the discriminant of f, and for a = 0 it is 27*b^2
    times the discriminant of the cubic.  With p >= 5 and a nonzero leading
    coefficient it vanishes mod p exactly when f has a repeated factor.
    """
    e, d, c, b, a = f if len(f) == 5 else (*f, 0)
    i = 12 * a * e - 3 * b * d + c * c
    j = 72 * a * c * e + 9 * b * c * d - 27 * a * d * d - 27 * b * b * e - 2 * c * c * c
    return (4 * i * i * i - j * j) % p != 0


def branch_degree(curve, u, v):
    """Degree of the branch divisor of w^2 = u(x) + v*y over the curve.

    u is a sequence of at most three residues (u0, u1, u2) and v a residue,
    as cover_representatives yields them.  The curve must live over a prime
    field (NotPrimeField otherwise); u = v = 0 raises ZeroFunction.  Every
    case below is a closed form in the residues; no polynomial is built.

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
    if field.m != 1:
        raise NotPrimeField(f"the branch test works mod p; {field!r} is not a prime field")
    p = field.p
    u0, u1, u2, *high = [c % p for c in u] + [0] * (3 - len(u))
    if any(high):
        raise ValueError("u must have degree at most 2")
    v %= p
    a, b = curve.a.coeffs[0], curve.b.coeffs[0]
    if not v:
        if u2:
            if (u1 * u1 - 4 * u0 * u2) % p == 0:
                return 0
            inv = pow(u2, p - 2, p)
            s, t = u1 * inv % p, u0 * inv % p
            r1, r0 = (s * s - t + a) % p, (s * t + b) % p
            if not r1:
                shared = 0 if r0 else 2
            else:
                x0 = -r0 * pow(r1, p - 2, p)
                shared = 0 if (t + x0 * (s + x0)) % p else 1
            return 2 * (2 - shared)
        if u1:
            x0 = -u0 * pow(u1, p - 2, p)
            return 0 if (b + x0 * (a + x0 * x0)) % p == 0 else 2
        if u0:
            return 0
        raise ZeroFunction("the zero function has no branch divisor")
    vv = v * v
    norm = [
        (u0 * u0 - vv * b) % p,
        (2 * u0 * u1 - vv * a) % p,
        (u1 * u1 + 2 * u0 * u2) % p,
        (2 * u1 * u2 - vv) % p,
        u2 * u2 % p,
    ]
    if squarefree_by_discriminant(p, norm):
        return 4
    if not u2:
        return 2
    half = (p + 1) // 2
    inv = pow(norm[4], p - 2, p)
    n0, n1, n2, n3 = (c * inv for c in norm[:4])
    alpha = n3 * half % p
    beta = (n2 - alpha * alpha) * half % p
    square = (n1 - 2 * alpha * beta) % p == 0 and (n0 - beta * beta) % p == 0
    return 0 if square else 2


def _count_places(curve, points, sqtable, ucoeffs, v):
    u0, u1, u2 = ucoeffs
    if not v.is_zero() and u2.is_zero():
        total = 1  # odd pole order at infinity: a single ramified place
    else:
        # even order at infinity: the unit there is the leading coefficient
        lead = u2 if not u2.is_zero() else (u1 if not u1.is_zero() else u0)
        total = 2 if sqtable[lead.index] else 0
    for x0, y0 in points:
        val = u0 + x0 * (u1 + x0 * u2) + v * y0
        if not val.is_zero():
            if sqtable[val.index]:
                total += 2
        else:
            w, unit = _local_unit(ucoeffs, v, _point_powers(curve, x0, y0))
            if w % 2 == 1:
                total += 1
            elif sqtable[unit.index]:
                total += 2
    return total


def _residue_powers(curve, x0, y0):
    """The expansions of _point_powers at an int point, as residue lists."""
    elem = curve.field.element
    return tuple([c.coeffs[0] for c in s] for s in _point_powers(curve, elem(x0), elem(y0)))


def _count_places_mod_p(curve, points, squares, ucoeffs, v, powers):
    """_count_places on residues mod p: int points, int u and v, and the
    field's square table indexed by residue.  At a zero of g the valuation and
    unit are read off the point's expansions (x, x^2, y) as int lists, built
    once per point and kept in the caller's dict powers, keyed by int point."""
    p = curve.field.p
    u0, u1, u2 = ucoeffs
    if v and not u2:
        total = 1
    else:
        lead = u2 or u1 or u0
        total = 2 if squares[lead] else 0
    for x0, y0 in points:
        val = (u0 + x0 * (u1 + x0 * u2) + v * y0) % p
        if val:
            if squares[val]:
                total += 2
            continue
        at = powers.get((x0, y0))
        if at is None:
            at = powers[x0, y0] = _residue_powers(curve, x0, y0)
        xs, x2, ys = at
        # the constant term is val = 0
        for w in range(1, SERIES_PRECISION):
            unit = (u1 * xs[w] + u2 * x2[w] + v * ys[w]) % p
            if unit:
                break
        else:
            raise InvariantViolation("zero of unexpected multiplicity")
        if w % 2 == 1:
            total += 1
        elif squares[unit]:
            total += 2
    return total


def cover_point_count(curve, u, v, k=1):
    """Rational-place count of the cover w^2 = u(x) + v*y over F_{q^k}."""
    ucoeffs = _as_triple(curve.field, u)
    if isinstance(v, int):
        v = curve.field.element(v)
    if k == 1:
        ext, ecoeffs, ev = curve, ucoeffs, v
    else:
        ext = curve.base_change(k)
        lift = embedding(curve.field, ext.field)
        ecoeffs = tuple(lift(c) for c in ucoeffs)
        ev = lift(v)
    return _count_places(
        ext, ext.affine_points(), ext.field.squares_table(), ecoeffs, ev
    )


def cover_complementary_trace(curve, u, v):
    """Trace of the complement: q + 1 - #places of the cover - trace(E).

    The value is checked before release: the cover must have branch degree
    2, the trace must sit in the Hasse window, and the count over the
    quadratic extension must match the degree-4 Weil polynomial.  Raises
    NotGenusTwo for the wrong branch degree and ZetaInconsistent if a check
    fails (which would mean a counting bug, never bad input).  A cross-check:
    tests hold cover_census's residue place count to it, cover by cover.
    """
    field = curve.field
    ucoeffs = _as_triple(field, u)
    if isinstance(v, int):
        v = field.element(v)
    if branch_degree(curve, [c.coeffs[0] for c in ucoeffs], v.coeffs[0]) != 2:
        raise NotGenusTwo("the branch divisor does not have degree 2")
    q = field.order
    a = curve.trace()
    ap = q + 1 - cover_point_count(curve, ucoeffs, v) - a
    n2 = cover_point_count(curve, ucoeffs, v, k=2)
    if ap * ap > 4 * q or n2 != q * q + 1 - (a * a - 2 * q) - (ap * ap - 2 * q):
        raise ZetaInconsistent(f"counts for u={ucoeffs}, v={v} break the zeta identity")
    return ap


def _as_triple(field, u):
    if isinstance(u, Polynomial):
        coeffs = list(u.coeffs)
    else:
        coeffs = [field.element(c) for c in u]
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    if len(coeffs) > 3:
        raise ValueError("u must have degree at most 2")
    while len(coeffs) < 3:
        coeffs.append(field.zero)
    return tuple(coeffs)


def cover_representatives(field):
    """Generators of the quadratic extensions, one per square-scaling class.

    Yields residue triples (u0, u1, u2) and a residue v, so the field must be
    prime (NotPrimeField otherwise).  Scaling g by a square changes nothing,
    so v is pinned to 0, 1 or the canonical nonsquare, and for v = 0 the
    polynomial u is monic up to that same nonsquare.  Constants are skipped
    (they give the trivial cover).
    """
    if field.m != 1:
        raise NotPrimeField(f"covers are enumerated mod p; {field!r} is not a prime field")
    p = field.p
    nu = field.nonsquare().coeffs[0]
    for scale in (1, nu):
        for c0 in range(p):
            yield (c0 * scale % p, scale, 0), 0
        for c0 in range(p):
            for c1 in range(p):
                yield (c0 * scale % p, c1 * scale % p, scale), 0
    for v in (1, nu):
        for u0 in range(p):
            for u1 in range(p):
                for u2 in range(p):
                    yield (u0, u1, u2), v


def cover_census(curve):
    """Complementary-trace histogram over all genus-2 double covers.

    Works on residues mod p, so the curve must live over a prime field.
    """
    field = curve.field
    points = [(x.coeffs[0], y.coeffs[0]) for x, y in curve.affine_points()]
    squares = field.squares_table()
    base = field.order + 1 - curve.trace()
    powers = {}  # residue expansions per point, shared by every cover
    counts = {}
    for ucoeffs, v in cover_representatives(field):
        if branch_degree(curve, ucoeffs, v) != 2:
            continue
        ap = base - _count_places_mod_p(curve, points, squares, ucoeffs, v, powers)
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
