"""Elliptic curves y^2 = x^3 + a*x + b over small finite fields.

Only odd characteristic at least 5 is allowed, so every curve has a short
Weierstrass model and the usual j-invariant, twist, and automorphism formulas
apply verbatim.  Points are (x, y) tuples of field elements with None for the
point at infinity.

Each curve makes one memoized x-line pass (_xline): it takes the index of
v = x^3 + a*x + b for every x (plain residues ((x*x + a)*x + b) % p over a
prime field, rhs(x).index over an extension field), counts the roots of the
cubic and looks every nonzero v up in the field's square table, so
#E(F_q) = 1 + #roots + 2*#{x : v a nonzero square}.  point_count() and
two_torsion_structure() read that pass; traces over F_{q^k} follow by the
Frobenius recursion.  affine_points stays on field elements; the tests hold
the counts to it.

The isomorphism-class inventory is deterministic: models are walked in the
canonical element order of (a, b), and each class is represented by its
lexicographically smallest member.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .ffield import embedding, field_of_order, make_field

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

    __slots__ = ("field", "a", "b", "_trace", "_j", "_counts")

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
                r = _both_roots(v)
                pts.append((x, r[0]))
                pts.append((x, r[1]))
        return pts

    def points(self):
        """Every rational point, infinity (None) first."""
        return [None] + self.affine_points()

    def _xline(self):
        """(#E(F_q), number of rational roots of the cubic), from one pass."""
        if self._counts is None:
            field = self.field
            if field.m == 1:
                p, a, b = field.p, self.a.coeffs[0], self.b.coeffs[0]
                values = (((x * x + a) * x + b) % p for x in range(p))
            else:
                values = (self.rhs(x).index for x in field.elements())
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

    def isomorphism_orbit(self):
        """All (a, b) pairs isomorphic to this model, as a set; tests check
        automorphism_count and curve_inventory's orbit walk against it."""
        orbit = set()
        for u in self.field.nonzero_elements():
            u2 = u * u
            u4 = u2 * u2
            orbit.add((u4 * self.a, u2 * u4 * self.b))
        return orbit

    def class_representative(self):
        """Lex-smallest (a, b) in the isomorphism orbit; tests check the
        first-seen representatives of curve_inventory against it."""
        a, b = min(self.isomorphism_orbit(), key=lambda t: (t[0].index, t[1].index))
        return EllipticCurve(self.field, a, b)

    def is_isomorphic(self, other):
        """Orbit membership; tests check with it that quadratic_twist leaves
        the class whenever the trace is nonzero."""
        if self.field != other.field:
            return False
        return (other.a, other.b) in self.isomorphism_orbit()

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


def _both_roots(v):
    from .ffield import sqrt

    r = sqrt(v)
    return (r, -r) if r.index <= (-r).index else (-r, r)


def make_curve(field, a, b):
    """Validated constructor; field may be a FiniteField or its order."""
    if isinstance(field, int):
        field = field_of_order(field)
    return EllipticCurve(field, a, b)


# ---------------------------------------------------------------------------
# enumeration and inventory
# ---------------------------------------------------------------------------


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


@lru_cache(maxsize=None)
def curve_inventory(field):
    """One representative per isomorphism class, lex-ordered by (a, b).

    Models are walked by (a.index, b.index) and a model already seen in an
    orbit is skipped before any curve is built, so each curve built is the
    lex-smallest member of its orbit, or a singular model the constructor
    rejects.
    """
    if field.order > INVENTORY_CAP:
        raise FieldTooLarge(f"inventory is capped at field size {INVENTORY_CAP}")
    elems = list(field.elements())
    u4s = [u * u * u * u for u in elems[1:]]
    u6s = [u4 * u * u for u4, u in zip(u4s, elems[1:])]
    seen = set()
    reps = []
    for ai, a in enumerate(elems):
        for bi, b in enumerate(elems):
            if (ai, bi) in seen:
                continue
            try:
                curve = EllipticCurve(field, a, b)
            except SingularCurve:
                continue
            reps.append(curve)
            seen.update(((u4 * a).index, (u6 * b).index) for u4, u6 in zip(u4s, u6s))
    return tuple(reps)
