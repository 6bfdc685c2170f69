"""Two-torsion of an elliptic curve as a Galois module, and gluing tests.

The nonzero 2-torsion points of y^2 = x^3 + a*x + b sit over the roots of the
cubic x^3 + a*x + b, so the Galois action is the q-power Frobenius permuting
those roots inside their splitting field.  Two curves glue along their
2-torsion into a genus-2 double cover of each (Kani's criterion) exactly
when some Frobenius-equivariant isomorphism of the 2-torsion modules is NOT
the restriction of a geometric isomorphism; gluing along a restriction
degenerates instead of producing a smooth genus-2 curve.

kani_admissible decides this by a closed form, rigidity_closed_form, read
off the 2-torsion structure and j alone.  The proof is a count:

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

The root-level test stays here as the reference the tests hold the closed
form to: two_torsion_module factors the 2-division cubic and finds its roots
and Frobenius over the splitting field, module_isomorphisms lists the
equivariant root bijections, scaling_set / geometric_restrictions the
bijections induced by geometric isomorphisms inside a compositum field, and
all_isos_are_restrictions compares the two.  No production route calls them.
The rule reads the structure from the curve's x-line scan, so the factor
route here (TwoTorsionModule.structure) stays an independent check of it.

Kani's gluing runs along an anti-isometry E[2] -> E'[2] for the Weil pairing,
but on 2-torsion that pairing is -1 on every pair of distinct nonzero points,
so every group isomorphism qualifies and the pairing never has to be computed.

Permutations are tuples t of length 3 with t[i] = j meaning "root i of the
first curve maps to root j of the second", with roots in canonical order.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .ffield import (
    InvariantViolation,
    Polynomial,
    embedding,
    factor,
    make_field,
    roots,
)

STRUCTURES = ("Full", "C2", "Trivial")

_STRUCTURE_BY_DEGREES = {(1, 1, 1): "Full", (1, 2): "C2", (3,): "Trivial"}


class TwoTorsionModule:
    """Root data of the 2-division cubic: splitting field, roots, Frobenius.

    structure is "Full" (all three roots rational, Frobenius trivial), "C2"
    (one rational root, Frobenius swaps the conjugate pair) or "Trivial" (no
    rational root, Frobenius is a 3-cycle).
    """

    __slots__ = (
        "curve",
        "field",
        "extension_curve",
        "splitting_degree",
        "roots",
        "frobenius",
        "structure",
    )

    def __init__(self, curve):
        base = curve.field
        cubic = Polynomial(base, [curve.b, curve.a, base.zero, base.one])
        degrees = tuple(sorted(h.degree() for h, _ in factor(cubic)))
        self.structure = _STRUCTURE_BY_DEGREES[degrees]
        self.splitting_degree = math.lcm(*degrees)
        self.curve = curve
        self.extension_curve = curve.base_change(self.splitting_degree)
        self.field = self.extension_curve.field
        phi = embedding(base, self.field)
        lifted = Polynomial(self.field, [phi(c) for c in cubic.coeffs])
        rts = roots(lifted)
        if len(rts) != 3 or len(set(rts)) != 3:
            raise InvariantViolation(f"the 2-division cubic of {curve!r} lacks 3 roots")
        self.roots = tuple(rts)
        # q-power Frobenius (q = base field size) as a permutation of root slots
        frob = []
        for r in self.roots:
            image = r.frobenius(base.m)
            frob.append(self.roots.index(image))
        self.frobenius = tuple(frob)
        if sorted(self.frobenius) != [0, 1, 2]:
            raise InvariantViolation(f"Frobenius does not permute the roots of {curve!r}")

    def __repr__(self):
        return (
            f"TwoTorsionModule({self.curve!r}: {self.structure}, "
            f"roots over {self.field!r})"
        )


@lru_cache(maxsize=None)
def two_torsion_module(curve):
    return TwoTorsionModule(curve)


def module_isomorphisms(curve1, curve2):
    """All Frobenius-equivariant root bijections, as sorted permutation tuples.

    Empty unless the two structures agree; of size 6, 2, 3 for matching Full,
    C2, Trivial (cosets of the centralizer of the Frobenius in S_3).
    """
    s1 = two_torsion_module(curve1).frobenius
    s2 = two_torsion_module(curve2).frobenius
    out = []
    for tau in itertools.permutations(range(3)):
        if all(tau[s1[i]] == s2[tau[i]] for i in range(3)):
            out.append(tau)
    return tuple(out)


def scaling_set(curve1, curve2):
    """x-scalings u^2 of geometric isomorphisms curve1 -> curve2.

    Returns (field, scalings) where the scalings live in the named extension
    of the common base field, sorted canonically.  Empty exactly when the
    j-invariants differ.  A geometric isomorphism acts by (x, y) ->
    (u^2 x, u^3 y) with u^4 a = a' and u^6 b = b', so:

    * generic j: the single value u^2 = a*b' / (a'*b);
    * j = 1728 (b = b' = 0): the two square roots of a'/a;
    * j = 0 (a = a' = 0): the three cube roots of b'/b.
    """
    base = curve1.field
    if curve1.j_invariant() != curve2.j_invariant():
        return base, ()
    if curve1.a.is_zero():
        target = Polynomial(base, [-(curve2.b / curve1.b), 0, 0, 1])
    elif curve1.b.is_zero():
        target = Polynomial(base, [-(curve2.a / curve1.a), 0, 1])
    else:
        s = (curve1.a * curve2.b) / (curve2.a * curve1.b)
        return base, (s,)
    split_deg = math.lcm(*(h.degree() for h, _ in factor(target)))
    ext = make_field(base.p, base.m * split_deg)
    phi = embedding(base, ext)
    lifted = Polynomial(ext, [phi(c) for c in target.coeffs])
    found = roots(lifted)
    if len(found) != target.degree():
        raise InvariantViolation(f"{target!r} does not split in {ext!r}")
    return ext, tuple(found)


@lru_cache(maxsize=None)
def geometric_restrictions(curve1, curve2):
    """Root bijections induced by geometric isomorphisms, as sorted tuples.

    Each scaling s sends the root set of curve1 onto that of curve2 inside a
    compositum field; the induced slot permutation is recorded.
    """
    mod1 = two_torsion_module(curve1)
    mod2 = two_torsion_module(curve2)
    sfield, scalings = scaling_set(curve1, curve2)
    if not scalings:
        return ()
    p = curve1.field.p
    big = make_field(p, math.lcm(mod1.field.m, mod2.field.m, sfield.m))
    lift1 = embedding(mod1.field, big)
    lift2 = embedding(mod2.field, big)
    lifts = embedding(sfield, big)
    roots1 = [lift1(r) for r in mod1.roots]
    roots2 = [lift2(r) for r in mod2.roots]
    perms = set()
    for s in scalings:
        sw = lifts(s)
        tau = tuple(roots2.index(sw * r) for r in roots1)
        if sorted(tau) != [0, 1, 2]:
            raise InvariantViolation(f"scaling {sw} does not biject the root sets")
        perms.add(tau)
    return tuple(sorted(perms))


def kani_admissible(curve1, curve2):
    """Whether the curves glue along 2-torsion into a genus-2 double cover.

    True when some equivariant module isomorphism is not the restriction of a
    geometric isomorphism, which is exactly when the pair is not rigid in the
    sense of rigidity_closed_form (the module docstring proves the rule).
    Reads only the 2-torsion structures, j and, for j = 0 Trivial pairs, the
    cube class of b'/b: no root, module or extension field is built.
    """
    return not rigidity_closed_form(curve1, curve2)


def all_isos_are_restrictions(curve1, curve2):
    """Whether every equivariant module isomorphism comes from geometry.

    Vacuously true when no equivariant isomorphism exists at all.  For curves
    sharing a j-invariant and a 2-torsion structure this happens exactly in
    the two rigid cases: j = 0 with Trivial structure and b'/b a cube, and
    j = 1728 with C2.  The reference: tests hold rigidity_closed_form, and
    through it kani_admissible and the exception flags of lambda_formula, to
    this subset test.
    """
    restricted = set(geometric_restrictions(curve1, curve2))
    return all(tau in restricted for tau in module_isomorphisms(curve1, curve2))


def rigidity_closed_form(curve1, curve2):
    """Closed-form prediction for all_isos_are_restrictions.

    Vacuously true when the 2-torsion structures differ (no equivariant
    isomorphism exists); false when they agree but the j-invariants differ
    (no isomorphism is a restriction).  For pairs sharing both, true iff
    j = 0 with Trivial structure and b'/b a cube, or j = 1728 with C2
    structure.

    j = 0 Trivial curves exist only for q = 1 mod 3 (otherwise cubing is a
    bijection and x^3 + b has a rational root), so b'/b is a cube exactly
    when (b'/b)^((q-1)/3) = 1.  With a non-cube ratio the two Frobenius
    3-cycles have opposite orientations on the mu_3-labeled roots, and the
    restrictions form the coset of shifts disjoint from the equivariant maps.
    """
    s1 = curve1.two_torsion_structure()
    if s1 != curve2.two_torsion_structure():
        return True
    if curve1.j_invariant() != curve2.j_invariant():
        return False
    if curve1.a.is_zero() and s1 == "Trivial":
        ratio = curve2.b / curve1.b
        return ratio ** ((curve1.field.order - 1) // 3) == curve1.field.one
    return curve1.b.is_zero() and s1 == "C2"
