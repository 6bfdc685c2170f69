"""Object references on FieldElement arithmetic, which the tests hold the
index code to.  pytest does not collect this file.

* enumerate_curves: every nonsingular (a, b) model of a field, the input of
  the orbit walk that test_ecurve holds curve_inventory to;
* cover_point_count and cover_complementary_trace: the rational places of a
  cover w^2 = u(x) + v*y counted on field elements, over F_q or over F_{q^k}
  through base change, reading the valuation and unit at each zero of g
  off local series, against which test_fforacle holds the census's index
  place count and its closed forms; zero_place_counts pairs the two on the
  genus-2 covers vanishing at a 2-torsion point or at a point with
  y0 != 0, and local_units reports each such zero's valuation and unit
  class;
* cover_representatives and full_scan_census: every cover w^2 = u(x) + v*y
  up to square scaling, about 2q^3 of them, and the census over all of them,
  which test_fforacle holds the tangency census to;
* _series_mul, _series_sqrt_one, _point_series and point_powers: the local
  expansions at a point of E on field elements, y's series in x - x0 at a
  point with y0 != 0 and the fixed-point series in y at a 2-torsion point,
  which the object place count reads and tests/divisor_route.py lifts to
  the places above a prime.  The census needs no series: only these
  references build them.
"""

from functools import lru_cache

from lambda2.ecurve import INVENTORY_CAP, EllipticCurve, FieldTooLarge, SingularCurve
from lambda2.ffield import InvariantViolation, Polynomial, embedding
from lambda2.fforacle import _count_places as index_count_places
from lambda2.fforacle import branch_degree

# truncation order of the local series: g = u(x) + v*y has at most 4 zeros
# counted with multiplicity, so every valuation needed sits below it
SERIES_PRECISION = 6


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


@lru_cache(maxsize=4096)
def point_powers(curve, x0, y0):
    """Expansions (x, x^2, y) in the local parameter at the point (x0, y0)
    of field elements, as tuples of field elements, built once per point
    and shared by every cover through it."""
    xs, ys = _point_series(curve.a, curve.b, x0, y0, SERIES_PRECISION)
    return tuple(xs), tuple(_series_mul(xs, xs, curve.field.zero)), tuple(ys)


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


def full_scan_census(curve):
    """Complementary-trace histogram over every cover of
    cover_representatives, counted with the census's index place count."""
    field = curve.field
    points = [(x.index, y.index) for x, y in curve.affine_points()]
    squares = field.squares_table()
    base = field.order + 1 - curve.trace()
    counts = {}
    for ucoeffs, v in cover_representatives(field):
        if branch_degree(curve, ucoeffs, v) != 2:
            continue
        ap = base - index_count_places(curve, points, squares, ucoeffs, v)
        counts[ap] = counts.get(ap, 0) + 1
    return counts


def zero_place_counts(curve, torsion):
    """(u, v, zeros, index count, object count) for each genus-2 cover of
    cover_representatives that vanishes at a rational 2-torsion point
    (torsion true) or at an affine point with y0 != 0 (torsion false), where
    the census's index place count reads the closed forms of the fforacle
    docstring and the object count the local series.  zeros is local_units
    of the cover at the points of that kind."""
    field = curve.field
    add, mul, _, _ = field.index_arithmetic()
    points = [(x.index, y.index) for x, y in curve.affine_points()]
    kind = [(x0, y0) for x0, y0 in points if (y0 == 0) == torsion]
    squares = field.squares_table()
    for (u0, u1, u2), v in cover_representatives(field):
        if all(add[add[u0][mul[x0][add[u1][mul[x0][u2]]]]][mul[v][y0]] for x0, y0 in kind):
            continue
        if branch_degree(curve, (u0, u1, u2), v) != 2:
            continue
        u = (u0, u1, u2)
        got = index_count_places(curve, points, squares, u, v)
        want = cover_point_count(curve, [field.from_index(c) for c in u], field.from_index(v))
        yield u, v, local_units(curve, kind, u, v), got, want


def local_units(curve, points, ucoeffs, v):
    """(valuation, whether the unit is a square) of g = u(x) + v*y at each
    of its zeros among points, index pairs (x0, y0) on the curve, with u and
    v element indices, read off the object series."""
    field = curve.field
    add, mul, _, _ = field.index_arithmetic()
    u0, u1, u2 = ucoeffs
    elems = [field.from_index(c) for c in ucoeffs]
    squares = field.squares_table()
    out = []
    for x0, y0 in points:
        if not add[add[u0][mul[x0][add[u1][mul[x0][u2]]]]][mul[v][y0]]:
            powers = point_powers(curve, field.from_index(x0), field.from_index(y0))
            w, unit = _local_unit(elems, field.from_index(v), powers)
            out.append((w, squares[unit.index]))
    return out


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
            w, unit = _local_unit(ucoeffs, v, point_powers(curve, x0, y0))
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
