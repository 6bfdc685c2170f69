"""Elliptic curves y^2 = x^3 + a*x + b over small finite fields.

Only odd characteristic at least 5 is allowed, so every curve has a short
Weierstrass model and the usual j-invariant, twist, and automorphism formulas
apply verbatim.  Points are (x, y) tuples of field elements with None for the
point at infinity.

Each curve makes one memoized x-line pass (_xline): it takes the index of
v = x^3 + a*x + b for every x (plain residues ((x*x + a)*x + b) % p over a
prime field, sums on the field's log/Zech tables over an extension field),
counts the roots of the cubic and looks every nonzero v up in the field's
square table, so #E(F_q) = 1 + #roots + 2*#{x : v a nonzero square}.
point_count() and two_torsion_structure() read that pass; traces over
F_{q^k} follow by the Frobenius recursion.  No command reads affine_points,
on field elements: the tests hold the counts and the census's points to it.

The isomorphism-class inventory is deterministic and walks no orbit: each
class is represented by its lexicographically smallest model by (a.index,
b.index), read in closed form off the cosets of (F*)^4 and (F*)^6 in the
field's log tables, O(q) work per field.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .ffield import embedding, field_of_order, make_field, sqrt

# full inventories are only meaningful while the x-line scan stays cheap
INVENTORY_CAP = 343
# a single curve's x-line scan is O(q): about a second at this size
XLINE_MAX_Q = 10**6


class BadCharacteristic(ValueError):
    """Curve operations require characteristic at least 5."""


class SingularCurve(ValueError):
    """4a^3 + 27b^2 vanishes, so y^2 = x^3 + ax + b is not elliptic."""


class FieldTooLarge(ValueError):
    """A computation was requested over a field beyond its size cap."""


class EllipticCurve:
    """y^2 = x^3 + a*x + b over a fixed finite field, validated on creation."""

    __slots__ = ("field", "a", "b", "indices", "_trace", "_j", "_counts")

    def __init__(self, field, a, b):
        if field.p <= 3:
            raise BadCharacteristic(
                f"characteristic {field.p} is too small for this model"
            )
        a = field.element(a)
        b = field.element(b)
        if (4 * a * a * a + 27 * b * b).is_zero():
            raise SingularCurve(f"y^2 = x^3 + {a}*x + {b} is singular")
        self.field = field
        self.a = a
        self.b = b
        # (a.index, b.index), read by every index-arithmetic pass
        self.indices = (a.index, b.index)
        self._trace = None
        self._j = None
        self._counts = None

    # -- basic invariants ---------------------------------------------------

    def rhs(self, x):
        """x^3 + a*x + b."""
        return (x * x + self.a) * x + self.b

    def contains(self, point):
        if point is None:
            return True
        x, y = point
        return y * y == self.rhs(x)

    def j_invariant(self):
        if self._j is None:
            a3 = 4 * self.a * self.a * self.a
            self._j = 1728 * a3 / (a3 + 27 * self.b * self.b)
        return self._j

    # -- point counting -----------------------------------------------------

    def affine_points(self):
        """All affine points, sorted by (x.index, y.index)."""
        pts = []
        squares = self.field.squares_table()
        for x in self.field.elements():
            v = self.rhs(x)
            if v.is_zero():
                pts.append((x, self.field.zero))
            elif squares[v.index]:
                r = sqrt(v)  # the root of smaller index
                pts += [(x, r), (x, -r)]
        return pts

    def _xline(self):
        """(#E(F_q), number of rational roots of the cubic), from one pass."""
        if self._counts is None:
            field = self.field
            if field.m == 1:
                p, a, b = field.p, self.a.coeffs[0], self.b.coeffs[0]
                values = (((x * x + a) * x + b) % p for x in range(p))
            else:
                values = _rhs_indices(field, *self.indices)
            squares = field.squares_table()
            roots = hits = 0
            for v in values:
                if v:
                    hits += squares[v]
                else:
                    roots += 1
            self._counts = (1 + roots + 2 * hits, roots)
        return self._counts

    def point_count(self, k=1):
        """Number of points over the degree-k extension.

        k = 1 reads the x-line pass; larger k follows from the Frobenius
        eigenvalue recursion t_k = t_1*t_{k-1} - q*t_{k-2}.
        """
        if k != 1:
            return self.field.order**k + 1 - self.trace_over(k)
        return self._xline()[0]

    def trace(self):
        if self._trace is None:
            self._trace = self.field.order + 1 - self.point_count()
        return self._trace

    def trace_over(self, k):
        """Trace of the k-th Frobenius power, via the two-term recursion."""
        q = self.field.order
        t1 = self.trace()
        t_prev, t = 2, t1
        for _ in range(k - 1):
            t_prev, t = t, t1 * t - q * t_prev
        return t

    def is_supersingular(self):
        return self.trace() % self.field.p == 0

    def two_torsion_structure(self):
        """Rational 2-torsion shape: "Full", "C2" or "Trivial".

        Read from the root count of the x-line pass: the division cubic has
        3, 1 or 0 rational roots respectively (2 is impossible for a
        squarefree cubic).
        """
        return {3: "Full", 1: "C2", 0: "Trivial"}[self._xline()[1]]

    # -- twists, isomorphism, automorphisms ----------------------------------

    def quadratic_twist(self):
        """The twist by the canonical non-residue c: (c^2 a, c^3 b)."""
        c = self.field.nonsquare()
        return EllipticCurve(self.field, c * c * self.a, c * c * c * self.b)

    def automorphism_count(self):
        """Size of Aut(E) over the base field.

        The stabilizer of (a, b) under u -> (u^4 a, u^6 b) inside the cyclic
        group F_q*: gcd(6, q-1) for j = 0, gcd(4, q-1) for j = 1728, else 2.
        """
        n = self.field.order - 1
        if self.a.is_zero():
            return math.gcd(6, n)
        if self.b.is_zero():
            return math.gcd(4, n)
        return 2

    def base_change(self, k):
        """The same equation over the degree-k extension field."""
        if k == 1:
            return self
        big = make_field(self.field.p, self.field.m * k)
        phi = embedding(self.field, big)
        return EllipticCurve(big, phi(self.a), phi(self.b))

    def __eq__(self, other):
        return (
            isinstance(other, EllipticCurve)
            and self.field == other.field
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self):
        return hash((self.field, self.a, self.b))

    def __repr__(self):
        return f"EllipticCurve(y^2 = x^3 + ({self.a})*x + ({self.b}) over {self.field!r})"


def _rhs_indices(field, ai, bi):
    """Index of x^3 + a*x + b for every x of the field, x = 0 first, from
    the indices of a and b: x^3 + a*x = x^3 * (1 + a/x^2), then + b, each
    sum one Zech lookup."""
    exp, log, zech = field.log_tables()
    n = field.order - 1
    la, lb = log[ai], log[bi]
    yield bi
    for lx in range(n):
        lv = 3 * lx % n
        if ai:
            z = zech[(la - 2 * lx) % n]
            if z < 0:  # x^2 = -a
                yield bi
                continue
            lv += z
        if bi:
            z = zech[(lb - lv) % n]
            if z < 0:  # x^3 + a*x = -b
                yield 0
                continue
            lv += z
        yield exp[lv % n]


def make_curve(field, a, b):
    """Validated constructor; field may be a FiniteField or its order."""
    if isinstance(field, int):
        field = field_of_order(field)
    return EllipticCurve(field, a, b)


# ---------------------------------------------------------------------------
# inventory
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def curve_inventory(field):
    """One representative per isomorphism class, lex-ordered by (a, b).

    The class of (a, b) is the orbit (u^4 a, u^6 b).  Its lex-min model is
    (0, b) with b the smallest index of its coset of (F*)^6, or has a the
    smallest index of its coset of (F*)^4; then u^4 = 1, so u^6 b = +-b, and
    when 4 | q - 1 the smaller index of b and -b is kept.  The candidates come
    out in lex order, and the constructor drops the singular ones.
    """
    if field.order > INVENTORY_CAP:
        raise FieldTooLarge(f"inventory is capped at field size {INVENTORY_CAP}")
    exp, log, _ = field.log_tables()
    n = field.order - 1

    def coset_minima(d):
        # g**k lies in the coset of (F*)^d numbered k mod gcd(d, n)
        r = math.gcd(d, n)
        return sorted(min(exp[k::r]) for k in range(r))

    # -b = b * g**(n/2), and (a, -b) is in the class of (a, b) when 4 | n
    bs = [b for b in range(n + 1) if n % 4 or not b or b < exp[(log[b] + n // 2) % n]]
    models = [(0, b) for b in coset_minima(6)]
    models += [(a, b) for a in coset_minima(4) for b in bs]
    reps = []
    for ai, bi in models:
        try:
            reps.append(EllipticCurve(field, field.from_index(ai), field.from_index(bi)))
        except SingularCurve:
            pass  # 4a^3 = -27b^2
    return tuple(reps)
