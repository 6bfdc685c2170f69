"""Elliptic curves y^2 = x^3 + a*x + b over small finite fields.

Only odd characteristic at least 5 is allowed, so every curve has a short
Weierstrass model and the usual j-invariant, twist, and automorphism formulas
apply verbatim.  Points are (x, y) tuples of field elements with None for the
point at infinity.

Traces are counted on the x-line.  Over a prime field the scan runs on plain
residues: one pass over x in range(p) computes v = (x*x + a)*x + b mod p,
counts the roots of the cubic and reads the quadratic character of v from
the field's square table, so #E(F_p) = 1 + #roots + 2*#{x : v a nonzero
square}.  Over an extension field the same sum runs on field elements
(_chi).  The rational 2-torsion structure is the root count of the same
scan.  Traces over F_{q^k} follow from the trace over F_q by the Frobenius
recursion, without another scan.  affine_points stays on field elements; the
tests hold the residue counts to it.

Curve enumeration and the isomorphism-class inventory are deterministic: curves
are ordered by the canonical element order of (a, b), and each class is
represented by its lexicographically smallest member.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .ffield import FieldElement, embedding, field_of_order, is_square, make_field

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

    __slots__ = ("field", "a", "b", "_trace", "_j", "_structure")

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
        self._structure = None

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
        for x in self.field.elements():
            v = self.rhs(x)
            if v.is_zero():
                pts.append((x, self.field.zero))
            elif is_square(v):
                r = _both_roots(v)
                pts.append((x, r[0]))
                pts.append((x, r[1]))
        return pts

    def points(self):
        """Every rational point, infinity (None) first."""
        return [None] + self.affine_points()

    def point_count(self, k=1):
        """Number of points over the degree-k extension.

        k = 1 is a direct character sum across the x-line, on residues for a
        prime field; larger k follows from the Frobenius eigenvalue recursion
        t_k = t_1*t_{k-1} - q*t_{k-2}.
        """
        field = self.field
        if k != 1:
            return field.order**k + 1 - self.trace_over(k)
        if field.m > 1:
            return field.order + 1 + sum(_chi(self.rhs(x)) for x in field.elements())
        p, a, b = field.p, self.a.coeffs[0], self.b.coeffs[0]
        squares = field.squares_table()
        roots = hits = 0
        for x in range(p):
            v = ((x * x + a) * x + b) % p
            if v:
                hits += squares[v]
            else:
                roots += 1
        return 1 + roots + 2 * hits

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

        Counted through the rational roots of the division cubic (3, 1, 0
        roots respectively; 2 is impossible for a squarefree cubic).  Each
        call scans the x-line, on residues for a prime field; two_torsion()
        keeps the answer.
        """
        field = self.field
        if field.m > 1:
            hits = sum(1 for x in field.elements() if self.rhs(x).is_zero())
        else:
            p, a, b = field.p, self.a.coeffs[0], self.b.coeffs[0]
            hits = sum(1 for x in range(p) if not ((x * x + a) * x + b) % p)
        return {3: "Full", 1: "C2", 0: "Trivial"}[hits]

    def two_torsion(self):
        """two_torsion_structure(), scanned once per curve and kept, as trace()
        keeps point_count()."""
        if self._structure is None:
            self._structure = self.two_torsion_structure()
        return self._structure

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


def _chi(v):
    if v.is_zero():
        return 0
    return 1 if is_square(v) else -1


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
        a3 = 4 * a * a * a
        for b in field.elements():
            if not (a3 + 27 * b * b).is_zero():
                yield EllipticCurve(field, a, b)


@lru_cache(maxsize=None)
def curve_inventory(field):
    """One representative per isomorphism class, lex-ordered by (a, b).

    Walking models in canonical order and skipping anything already seen makes
    each first-seen model automatically the lex-smallest in its orbit.
    """
    if field.order > INVENTORY_CAP:
        raise FieldTooLarge(f"inventory is capped at field size {INVENTORY_CAP}")
    us = list(field.nonzero_elements())
    u4s = [u * u * u * u for u in us]
    u6s = [u4 * u * u for u4, u in zip(u4s, us)]
    seen = set()
    reps = []
    for curve in enumerate_curves(field):
        key = (curve.a.index, curve.b.index)
        if key in seen:
            continue
        reps.append(curve)
        for u4, u6 in zip(u4s, u6s):
            orb = (u4 * curve.a, u6 * curve.b)
            seen.add((orb[0].index, orb[1].index))
    return tuple(reps)
