"""The divisor route: branch data of w^2 = u(x) + v*y, place by place.

An independent check of fforacle.branch_degree, which test_fforacle holds
to it: the norm of g = u + v*y is factored, every place above every factor
is realized by a point over the right extension field, and valuations are
read off local expansions there.  The places of odd valuation, infinity
included, are the branch places.  pytest does not collect this file.
"""

from functools import lru_cache

from lambda2.ffield import (
    InvariantViolation,
    Polynomial,
    embedding,
    factor,
    is_square,
    make_field,
    roots,
    sqrt,
)
from lambda2.fforacle import ZeroFunction
from object_reference import _point_series, _series_mul


class EllipticFunction:
    """A function u(x) + v*y with poles only at infinity, where x and y have
    orders 2 and 3: the covers need pole order at most 4, so deg u <= 2 and v
    is a scalar.  u is a Polynomial, a coefficient sequence or an int."""

    __slots__ = ("curve", "u", "v")

    def __init__(self, curve, u, v):
        field = curve.field
        if not isinstance(u, Polynomial):
            u = Polynomial(field, [u] if isinstance(u, int) else list(u))
        self.curve = curve
        self.u = u
        self.v = field.element(v)
        if u.is_zero() and self.v.is_zero():
            raise ZeroFunction("the zero function has no divisor")
        if u.degree() > 2:
            raise ValueError("pole order above 4 is never needed")

    def pole_order(self):
        # 2*deg u is even and 3 odd, so the larger order never cancels
        return max(2 * self.u.degree(), 0 if self.v.is_zero() else 3)

    def norm(self):
        """Product with the conjugate u - v*y, as a polynomial in x."""
        curve = self.curve
        vv = self.v * self.v
        f = [curve.b, curve.a, curve.field.zero, curve.field.one]
        return self.u * self.u - Polynomial(curve.field, [vv * c for c in f])

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


@lru_cache(maxsize=None)
def places_above(curve, h):
    """The places of the curve over a monic irreducible h(x), as a tuple.

    Two split places, one ramified place (h divides the curve cubic), or one
    inert place of doubled residue degree; each comes with a realized point
    over the matching extension field and the lift map from the base field.
    The places depend on the curve and h alone, and every cover whose norm
    has the factor h reuses them.
    """
    field = curve.field
    d = h.degree()
    if d < 1 or h.leading() != field.one:
        raise ValueError(f"{h!r} is not a monic polynomial of positive degree")
    ext = make_field(field.p, field.m * d)
    lift = embedding(field, ext)
    x0 = -h.coeffs[0] if d == 1 else roots(Polynomial(ext, [lift(c) for c in h.coeffs]))[0]
    fval = lift(curve.b) + x0 * (lift(curve.a) + x0 * x0)
    if fval.is_zero():
        return (PlaceOnE(h, "ramified-2-torsion", d, (x0, fval), lift),)
    if is_square(fval):
        y0 = sqrt(fval)
        return (
            PlaceOnE(h, "split-plus", d, (x0, y0), lift),
            PlaceOnE(h, "split-minus", d, (x0, -y0), lift),
        )
    big = make_field(field.p, field.m * d * 2)
    up = embedding(x0.field, big)
    return (PlaceOnE(h, "inert", 2 * d, (up(x0), sqrt(up(fval))), lambda c: up(lift(c))),)


def _function_series(func, place, n):
    """Expansion of u(x) + v*y in the local parameter at a finite place."""
    curve = func.curve
    lift = place.lift
    x0, y0 = place.point
    zero = x0.field.zero
    xs, ys = _point_series(lift(curve.a), lift(curve.b), x0, y0, n)
    powers = (None, xs, _series_mul(xs, xs, zero))
    out = [lift(func.v) * c for c in ys]
    for i, c in enumerate(func.u.coeffs):
        if c.is_zero():
            continue
        c = lift(c)
        if i == 0:
            out[0] = out[0] + c
        else:
            out = [o + c * pw for o, pw in zip(out, powers[i])]
    return out


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

    The norm is factored into irreducibles, every place above every factor is
    expanded locally, and the odd part collects the places of odd valuation;
    these are exactly the branch places of w^2 = g, infinity included, so the
    odd-part degree must agree with branch_degree.
    """
    func = _as_function(curve, g)
    entries = [(INFINITE_PLACE, -func.pole_order())]
    for h, _ in factor(func.norm()):
        for place in places_above(curve, h):
            entries.append((place, local_valuation(curve, func, place)))
    return DivisorSketch(entries)
