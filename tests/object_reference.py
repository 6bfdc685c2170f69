"""Object references on FieldElement arithmetic, which the tests hold the
index code to.  pytest does not collect this file.

* enumerate_curves: every nonsingular (a, b) model of a field, the input of
  the orbit walk that test_ecurve holds curve_inventory to;
* cover_point_count and cover_complementary_trace: the rational places of a
  cover w^2 = u(x) + v*y counted on field elements, over F_q or over F_{q^k}
  through base change, against which test_fforacle holds the census's
  index place count.
"""

from functools import lru_cache

from lambda2.ecurve import INVENTORY_CAP, EllipticCurve, FieldTooLarge, SingularCurve
from lambda2.ffield import InvariantViolation, Polynomial, embedding
from lambda2.fforacle import SERIES_PRECISION, _point_powers, branch_degree


class NotGenusTwo(ValueError):
    """Raised when a cover expected to have genus 2 does not."""


class ZetaInconsistent(RuntimeError):
    """Point counts contradicting the Weil polynomial; a bug if ever seen."""


def enumerate_curves(field):
    """Every nonsingular (a, b) model, ordered by (a.index, b.index)."""
    if field.order > INVENTORY_CAP:
        raise FieldTooLarge(f"enumeration is capped at field size {INVENTORY_CAP}")
    for a in field.elements():
        for b in field.elements():
            try:
                yield EllipticCurve(field, a, b)
            except SingularCurve:
                pass


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


@lru_cache(maxsize=None)
def _square_roots(field):
    """A square root of each square, keyed by its index, from squaring every
    element once."""
    roots = {}
    for r in field.elements():
        roots.setdefault((r * r).index, r)
    return roots


@lru_cache(maxsize=None)
def _extended(curve, k):
    """The curve over F_{q^k}, its affine points and the field's squares
    table, built once per (curve, k).  The points take their y from one root
    table per field, so a further curve over F_{q^2} costs one pass over the
    x-line and no square root."""
    ext = curve.base_change(k)
    roots = _square_roots(ext.field)
    points = []
    for x in ext.field.elements():
        y = roots.get(ext.rhs(x).index)
        if y is not None:
            points += [(x, y)] if y.is_zero() else [(x, y), (x, -y)]
    return ext, points, ext.field.squares_table()


def cover_point_count(curve, u, v, k=1):
    """Rational-place count of the cover w^2 = u(x) + v*y over F_{q^k}.

    u is a Polynomial or a sequence of field elements or ints, v an element
    or an int; an int is coerced through F_p, so it is an index only below p.
    """
    ucoeffs = _as_triple(curve.field, u)
    if isinstance(v, int):
        v = curve.field.element(v)
    ext, points, sqtable = _extended(curve, k)
    if k != 1:
        lift = embedding(curve.field, ext.field)
        ucoeffs = tuple(lift(c) for c in ucoeffs)
        v = lift(v)
    return _count_places(ext, points, sqtable, ucoeffs, v)


def cover_complementary_trace(curve, u, v):
    """Trace of the complement: q + 1 - #places of the cover - trace(E).

    The value is checked before release: the cover must have branch degree
    2, the trace must sit in the Hasse window, and the count over the
    quadratic extension must match the degree-4 Weil polynomial.  Raises
    NotGenusTwo for the wrong branch degree and ZetaInconsistent if a check
    fails (which would mean a counting bug, never bad input).
    """
    field = curve.field
    ucoeffs = _as_triple(field, u)
    if isinstance(v, int):
        v = field.element(v)
    if branch_degree(curve, [c.index for c in ucoeffs], v.index) != 2:
        raise NotGenusTwo("the branch divisor does not have degree 2")
    q = field.order
    a = curve.trace()
    ap = q + 1 - cover_point_count(curve, ucoeffs, v) - a
    n2 = cover_point_count(curve, ucoeffs, v, k=2)
    if ap * ap > 4 * q or n2 != q * q + 1 - (a * a - 2 * q) - (ap * ap - 2 * q):
        raise ZetaInconsistent(f"counts for u={ucoeffs}, v={v} break the zeta identity")
    return ap
