"""Reference for the Kani rule: 2-torsion as a Galois module, root by root.

The nonzero 2-torsion points of y^2 = x^3 + a*x + b sit over the roots of the
cubic, so the Galois action is the q-power Frobenius permuting those roots
inside their splitting field.  two_torsion_module finds the roots and the
Frobenius by factoring, module_isomorphisms lists the equivariant root
bijections, geometric_restrictions those induced by geometric isomorphisms,
and all_isos_are_restrictions compares the two.  The tests and the CI sweep
tests/kani_reference_sweep.py hold classify.kani_admissible to it.  No
production route imports this module, and it imports nothing from classify.

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


def all_isos_are_restrictions(curve1, curve2):
    """Whether every equivariant module isomorphism comes from geometry.

    Vacuously true when no equivariant isomorphism exists at all.  For curves
    sharing a j-invariant and a 2-torsion structure this happens exactly in
    the two rigid cases: j = 0 with Trivial structure and b'/b a cube, and
    j = 1728 with C2.  The tests hold not kani_admissible, and through it
    lambda_formula's exception flags, to this subset test.
    """
    restricted = set(geometric_restrictions(curve1, curve2))
    return all(tau in restricted for tau in module_isomorphisms(curve1, curve2))

