"""Trace classification: which complementary traces occur for genus-2 covers.

Three layers:

* admissible_traces: pure arithmetic (Waterhouse) — which integers in the
  Hasse window occur as traces of elliptic curves over F_q at all;
* lambda_formula: the closed-form candidate set for a fixed base curve,
  driven entirely by its 2-torsion structure, with exception flags on the two
  rigid (j, structure) combinations where candidates may fail;
* lambda_exact: ground truth from the curve inventory — a trace survives iff
  some class of that trace and of the base's 2-torsion structure (the only
  one that can glue) passes the Kani gluing test against the base curve.
  The traces come from the inventory alone; the Waterhouse list only
  validates them, in LambdaSet, so a fault in it raises.

The Kani test, kani_admissible: two curves glue along their 2-torsion into
a genus-2 double cover of each exactly when some Frobenius-equivariant
isomorphism of the 2-torsion modules is NOT the restriction of a geometric
isomorphism (gluing along a restriction degenerates).  The gluing runs along
an anti-isometry for the Weil pairing, which on 2-torsion is -1 on every pair
of distinct nonzero points, so every group isomorphism qualifies.  The test
is a closed form read off the 2-torsion structure and j alone.  The proof is
a count:

* different structures: no equivariant isomorphism exists, so no gluing;
* same structure, different j: no geometric isomorphism exists, so every
  equivariant isomorphism (and one exists) glues;
* same j: a geometric isomorphism acts on x by a scaling u^2, and distinct
  scalings induce distinct root bijections, so there are at most 1, 2 or 3
  restrictions (generic j, j = 1728, j = 0), against 6, 2 or 3 equivariant
  isomorphisms for Full, C2 or Trivial structure (the cosets of the
  centralizer of the Frobenius in S_3).  Whenever the isomorphisms outnumber
  the scalings one of them is not a restriction, and the pair glues.

That leaves the twist pairs at j = 1728 with C2 structure and at j = 0 with
C2 or Trivial structure:

* j = 1728, C2: the roots are 0 and +-sqrt(-a) with -a a non-square, so
  a'/a is a square, both scalings +-sqrt(a'/a) are rational, and they induce
  the two equivariant isomorphisms.  Rigid: no gluing.
* j = 0, C2 (only for q = 2 mod 3, where cubing is a bijection): of the
  three cube roots of b'/b exactly one is rational; it induces one of the
  two equivariant isomorphisms, and the other two scalings send the rational
  root to an irrational one, so they are not equivariant.  The pair glues.
* j = 0, Trivial (only for q = 1 mod 3): the roots of x^3 + b are labelled
  by mu_3, and the three scalings act as shifts.  When b'/b is a cube the two
  Frobenius 3-cycles have the same orientation and the shifts are the three
  equivariant isomorphisms (rigid); otherwise the orientations are opposite,
  the shifts form the coset disjoint from the equivariant maps, and the pair
  glues.

The root-level module test in galois2 is the reference that the tests and
the CI sweep tests/kani_reference_sweep.py hold the rule to.  With n(E, E')
the size of the set difference of its module_isomorphisms and
geometric_restrictions, kani_admissible is n > 0, and Kani's count gives
the oracle's census histogram of each class E:

    census(E)[a'] = 2*#E(F_q) * sum over classes E' of trace a' of n(E, E')/|Aut E'|

Tier-1 holds it on all 84 classes of F_5 to F_13, and a one-off check held
it on 664 classes up to F_49; the code does not prove it.

A sorted LambdaSet ties results to the base curve and validates the standing
invariants (admissibility, parity with the base trace, negation symmetry) on
construction, so a violation anywhere surfaces immediately, as an
InvariantViolation (a RuntimeError: a bug, never reported as bad input).
"""

from __future__ import annotations

import math
from functools import lru_cache

from .ffield import InvariantViolation, field_of_order, is_square, prime_power
from .ecurve import FieldTooLarge, curve_inventory

LAMBDA_MODES = ("formula", "kani", "oracle")

# the Hasse-window walk grows with sqrt(q); at this cap it takes well under
# a second, and beyond it admissible_traces refuses instead of running for
# minutes
ADMISSIBLE_MAX_Q = 10**9


class OutOfHasseWindow(ValueError):
    """|a| exceeds 2*sqrt(q)."""


class NotAdmissible(ValueError):
    """No elliptic curve over F_q has this trace."""


class DegreeNotCoprime(ValueError):
    """Cover degree divisible by the characteristic is out of scope."""


def hasse_window(q):
    """Inclusive trace bounds (-floor(2*sqrt(q)), +floor(2*sqrt(q)))."""
    w = math.isqrt(4 * q)
    return (-w, w)


class AdmissibleSet:
    """All realizable elliptic-curve traces over F_q, sorted ascending."""

    __slots__ = ("q", "traces", "_members")

    def __init__(self, q, traces):
        self.q = q
        self.traces = tuple(sorted(traces))
        self._members = frozenset(self.traces)
        for t in self._members:
            if -t not in self._members:
                raise InvariantViolation(f"negation symmetry violation at {t}")

    def __contains__(self, a):
        return a in self._members

    def __iter__(self):
        return iter(self.traces)

    def __repr__(self):
        return f"AdmissibleSet(q={self.q}, {list(self.traces)})"


@lru_cache(maxsize=None)
def admissible_traces(q):
    """Waterhouse classification of realizable traces over F_q = F_{p^m}.

    An integer N in the Hasse window is admissible iff one of:
    * gcd(N, p) = 1;
    * m odd and (N = 0, or p = 2 and N^2 = 2q, or p = 3 and N^2 = 3q);
    * m even and (N^2 = 4q, or N^2 = q with p != 1 mod 3,
      or N = 0 with p != 1 mod 4).

    Pure arithmetic over any q up to ADMISSIBLE_MAX_Q (FieldTooLarge above
    it), including characteristic 3 where curve construction elsewhere is
    refused.
    """
    if isinstance(q, int) and q > ADMISSIBLE_MAX_Q:
        raise FieldTooLarge(f"admissible traces stop at q = {ADMISSIBLE_MAX_Q}")
    p, m = prime_power(q)
    lo, hi = hasse_window(q)
    found = []
    for n in range(lo, hi + 1):
        if n % p != 0:
            found.append(n)
        elif m % 2 == 1:
            if n == 0 or (p == 2 and n * n == 2 * q) or (p == 3 and n * n == 3 * q):
                found.append(n)
        else:
            if (
                n * n == 4 * q
                or (n * n == q and p % 3 != 1)
                or (n == 0 and p % 4 != 1)
            ):
                found.append(n)
    return AdmissibleSet(q, found)


def weil_poly(q, a):
    """Coefficients (q, -a, 1) of the normalized L-factor qT^2 - aT + 1."""
    if a * a > 4 * q:
        raise OutOfHasseWindow(f"trace {a} outside the Hasse window for q={q}")
    return (q, -a, 1)


class LambdaSet:
    """Sorted complementary-trace set for one base curve and cover degree."""

    __slots__ = ("curve", "d", "traces", "mode")

    def __init__(self, curve, d, traces, mode):
        if mode not in LAMBDA_MODES:
            raise ValueError(f"unknown mode {mode!r}; pick from {LAMBDA_MODES}")
        members = set(traces)
        self.curve = curve
        self.d = d
        self.traces = tuple(sorted(members))
        self.mode = mode
        admissible = admissible_traces(curve.field.order)
        base_parity = curve.trace() % 2
        for a in self.traces:
            if a not in admissible:
                raise InvariantViolation(f"inadmissible trace {a}")
            if a % 2 != base_parity:
                raise InvariantViolation(f"parity violation at {a}")
            if -a not in members:
                raise InvariantViolation(f"negation symmetry violation at {a}")

    def polynomials(self):
        q = self.curve.field.order
        return [weil_poly(q, a) for a in self.traces]

    def __eq__(self, other):
        return (
            isinstance(other, LambdaSet)
            and self.curve == other.curve
            and self.d == other.d
            and self.traces == other.traces
        )

    def __repr__(self):
        return (
            f"LambdaSet(d={self.d}, mode={self.mode}, traces={list(self.traces)})"
        )


@lru_cache(maxsize=None)
def _buckets(field):
    """Inventory classes grouped by 2-torsion structure, then by trace, in
    inventory order: buckets[structure][t] is a list of classes."""
    buckets = {}
    for curve in curve_inventory(field):
        by_trace = buckets.setdefault(curve.two_torsion_structure(), {})
        by_trace.setdefault(curve.trace(), []).append(curve)
    return buckets


def _rigid(curve):
    """Whether the base curve is j = 0 with Trivial 2-torsion, or j = 1728
    with C2: the rigid combinations.  lambda_formula flags their candidates,
    and kani_admissible settles same-j pairs by them.

    Decided in O(log q), without the x-line.  For b = 0 the cubic x*(x^2 + a)
    has two more roots exactly when -a is a square.  For a = 0 the roots of
    x^3 = -b number one when q = 2 mod 3 (cubing is a bijection), and
    otherwise three or none as -b is a cube or not.
    """
    if curve.b.is_zero():
        return not is_square(-curve.a)
    if curve.a.is_zero():
        q = curve.field.order
        return q % 3 == 1 and (-curve.b) ** ((q - 1) // 3) != curve.field.one
    return False


def kani_admissible(curve1, curve2):
    """Whether the curves glue along 2-torsion into a genus-2 double cover,
    by the module docstring's count: the same structure, and different j or
    not rigid or, at j = 0, b'/b not a cube.  No root, module or extension
    field is built."""
    if curve1.two_torsion_structure() != curve2.two_torsion_structure():
        return False
    if curve1.j_invariant() != curve2.j_invariant():
        return True
    field = curve1.field
    return not _rigid(curve1) or not (
        curve1.b.is_zero() or (curve2.b / curve1.b) ** ((field.order - 1) // 3) == field.one
    )


def lambda_formula(curve):
    """Closed-form candidate traces plus the subset needing exact resolution.

    The candidates are the admissible traces t whose isogeny class holds the
    base curve's 2-torsion structure, by two_torsion_profile_by_trace(q, t).

    Every candidate is flagged for exact resolution when the base curve is
    rigid (_rigid): geometric isomorphisms can then absorb all module
    isomorphisms, and which candidates die depends on the curve.
    """
    q = curve.field.order
    structure = curve.two_torsion_structure()
    candidates = [
        t for t in admissible_traces(q) if structure in two_torsion_profile_by_trace(q, t)
    ]
    flagged = frozenset(candidates) if _rigid(curve) else frozenset()
    return LambdaSet(curve, 2, candidates, "formula"), flagged


def lambda_formula_resolved(curve):
    """lambda_formula with every flagged candidate settled by the Kani test.

    A rigid curve's flagged candidates are read off lambda_exact, called
    first: it looks up the inventory before the curve's O(q) x-line scan, so
    a field above INVENTORY_CAP is refused with FieldTooLarge before it.
    """
    settled = lambda_exact(curve).traces if _rigid(curve) else ()
    candidates, flagged = lambda_formula(curve)
    kept = [a for a in candidates.traces if a not in flagged or a in settled]
    return LambdaSet(curve, 2, kept, "formula")


def lambda_exact(curve):
    """Ground-truth trace set: each trace t whose bucket of the base's
    2-torsion structure holds a class that passes the Kani test against it.

    The buckets are built first, so above INVENTORY_CAP FieldTooLarge comes
    before the base's x-line scan.  kani_admissible is read as a module
    global on purpose: perfbench/tracer.py wraps it to count Kani checks.
    """
    buckets = _buckets(curve.field)
    traces = [
        t
        for t, partners in buckets[curve.two_torsion_structure()].items()
        if any(kani_admissible(curve, other) for other in partners)
    ]
    return LambdaSet(curve, 2, traces, "kani")


def lambda_set(curve, d):
    """Complementary traces of genus-2 degree-d covers: Kani for d = 2, and
    provably empty for d > 2 (no higher-degree abelian cover of an elliptic
    curve has genus 2 when gcd(d, q) = 1)."""
    if d < 2:
        raise ValueError("cover degree must be at least 2")
    if d % curve.field.p == 0:
        raise DegreeNotCoprime(f"degree {d} shares a factor with q={curve.field.order}")
    if d == 2:
        return lambda_exact(curve)
    return LambdaSet(curve, d, [], "kani")


def two_torsion_profile_by_trace(q, a):
    """Structures present in the trace-a isogeny class, by the closed form.

    Odd trace: Trivial only.  Even: the class is all-Full at the supersingular
    extremes a = +-2*sqrt(q); otherwise C2 alone when the point count is 2 mod
    4, and both Full and C2 when it is 0 mod 4.
    """
    if a not in admissible_traces(q):
        raise NotAdmissible(f"trace {a} is not admissible for q={q}")
    if a % 2 == 1:
        return frozenset({"Trivial"})
    root = math.isqrt(q)
    if root * root == q and abs(a) == 2 * root:
        return frozenset({"Full"})
    if (q + 1 - a) % 4 == 2:
        return frozenset({"C2"})
    return frozenset({"Full", "C2"})


def isogeny_class_two_torsion_profile(q, a):
    """Structures actually realized among inventory classes of trace a."""
    if a not in admissible_traces(q):
        raise NotAdmissible(f"trace {a} is not admissible for q={q}")
    field = field_of_order(q)
    found = {structure for structure, by_trace in _buckets(field).items() if a in by_trace}
    if not found:
        raise InvariantViolation(f"admissible trace {a} has no curve over F_{q}")
    return frozenset(found)


class RamificationSolution:
    """Non-negative integer solutions of one ramification-count equation."""

    __slots__ = ("case", "coefficients", "target", "solutions")

    def __init__(self, case, coefficients, target):
        self.case = case
        self.coefficients = coefficients
        self.target = target
        self.solutions = frozenset(diophantine_triples(coefficients, target))

    def __repr__(self):
        c1, c2, c3 = self.coefficients
        return (
            f"RamificationSolution({self.case}: {c1}m1+{c2}m2+{c3}m3"
            f"={self.target}, {sorted(self.solutions)})"
        )


def diophantine_triples(coefficients, target):
    """All non-negative (m1, m2, m3) with c1*m1 + c2*m2 + c3*m3 = target."""
    c1, c2, c3 = coefficients
    out = []
    for m1 in range(target // c1 + 1):
        for m2 in range((target - c1 * m1) // c2 + 1):
            rest = target - c1 * m1 - c2 * m2
            if rest % c3 == 0:
                out.append((m1, m2, rest // c3))
    return out

# branch-type count equations behind the d > 2 emptiness argument: covers of
# degree 6 and 8 would need ramification multiplicities solving these, and
# every solution is then excluded by the group structure of the cover
_RAMIFICATION_CASES = {
    "degree6": ((5, 4, 3), 14),
    "degree8": ((7, 6, 4), 18),
}


def ramification_solutions(case):
    if case not in _RAMIFICATION_CASES:
        raise ValueError(f"unknown case {case!r}; pick from {sorted(_RAMIFICATION_CASES)}")
    coefficients, target = _RAMIFICATION_CASES[case]
    return RamificationSolution(case, coefficients, target)
