"""Sweep the class inventory and the closed-form Kani rule on every field.

For every field F_q with q <= INVENTORY_CAP and characteristic > 3:

* check curve_inventory by the mass count: the orbits of its classes,
  (q - 1) / automorphism_count models each, must cover the q^2 - q
  nonsingular models exactly;
* check that each class is the lex-min of its object orbit
  (class_representative in test_ecurve.py) and that the classes come in
  strictly increasing (a.index, b.index) order.  With the mass count this
  makes the inventory equal to the object orbit walk over all models;
* compare classify.kani_admissible with the reference in galois2 (some
  Frobenius-equivariant isomorphism of the 2-torsion modules is not a
  restriction of a geometric isomorphism) on every ordered pair of classes
  sharing j = 0 or j = 1728, the only pairs where the rule is not settled
  by counting alone;
* hold the tangency census (fforacle.cover_census) to the full scan of
  every cover (full_scan_census in object_reference.py) on every class of
  F_25, histogram for histogram;
* hold the census's index place count (fforacle._count_places) to the
  object count (cover_point_count in object_reference.py) on every genus-2
  cover that vanishes at an affine point, a rational 2-torsion point or one
  with y0 != 0, over every class of F_13 and F_25: the full-scan check above
  calls the same index count on both sides;
* hold the census to classify.lambda_exact on every class of F_25 and on
  the rigid classes (j = 0 with Trivial 2-torsion, j = 1728 with C2) of
  F_49, F_121, F_125, F_169 and every prime from 41 to 97, where formula
  and Kani agree by construction and only actual covers check the gluing
  rule;
* run the CLI through cli.main on a temporary cache directory: a cold
  table, a warm table that must print the cold table's bytes, and verify,
  which must exit 0 on the entry table wrote.

Prints one line of counts per field and exits 1 on any mismatch, failed
mass count, failed lex-min check, failed census check (histogram or set),
failed place count or failed CLI check.

Not collected by pytest (the file name has no test_ prefix); run it as

    PYTHONPATH=src python tests/kani_reference_sweep.py
"""

import contextlib
import io
import itertools
import sys
import tempfile

from lambda2 import cli
from lambda2.classify import _rigid, kani_admissible, lambda_exact
from lambda2.ecurve import INVENTORY_CAP, curve_inventory
from lambda2.ffield import make_field, prime_power
from lambda2.fforacle import cover_census
from lambda2.galois2 import (
    geometric_restrictions,
    module_isomorphisms,
    two_torsion_module,
)
from object_reference import full_scan_census, zero_place_counts
from test_ecurve import class_representative


def sweep_fields(cap):
    for q in range(5, cap + 1, 2):
        try:
            p, m = prime_power(q)
        except ValueError:
            continue
        if p > 3:
            yield p, m


def census_fields():
    """(p, m, rigid classes only) for the census against lambda_exact."""
    yield from ((5, 2, False), (7, 2, True), (11, 2, True), (5, 3, True), (13, 2, True))
    yield from ((p, 1, True) for p, m in sweep_fields(97) if m == 1 and p >= 41)


def mass(p, m):
    """(models covered by the inventory's orbits, nonsingular models)."""
    q = p**m
    covered = sum((q - 1) // E.automorphism_count() for E in curve_inventory(make_field(p, m)))
    return covered, q * q - q


def lex_min_failures(p, m):
    """Classes that are not their orbit's lex-min, plus keys out of order."""
    inv = curve_inventory(make_field(p, m))
    keys = [(E.a.index, E.b.index) for E in inv]
    out_of_order = sum(k1 >= k2 for k1, k2 in zip(keys, keys[1:]))
    return out_of_order + sum(class_representative(E) != (E.a, E.b) for E in inv)


def sweep(p, m):
    """(same-j pairs, pairs that glue, mismatching pairs) over F_{p^m}."""
    special = [
        E for E in curve_inventory(make_field(p, m)) if E.a.is_zero() or E.b.is_zero()
    ]
    pairs = glue = 0
    mismatches = []
    for E1, E2 in itertools.product(special, special):
        if E1.j_invariant() != E2.j_invariant():
            continue
        isos = set(module_isomorphisms(E1, E2))
        want = bool(isos - set(geometric_restrictions(E1, E2)))
        got = kani_admissible(E1, E2)
        pairs += 1
        glue += got
        if got is not want:
            mismatches.append((E1, E2))
    return pairs, glue, mismatches


def histogram_failures(p, m):
    """(classes checked, classes whose census histogram differs from the
    full scan's)."""
    curves = curve_inventory(make_field(p, m))
    failed = 0
    for E in curves:
        if cover_census(E) != full_scan_census(E):
            failed += 1
            print(f"  histogram mismatch: {E!r}")
    return len(curves), failed


def place_count_failures(fields, torsion):
    """(covers checked, covers whose index place count differs from the
    object count) over the genus-2 covers vanishing at a 2-torsion point
    (torsion true) or at an affine point with y0 != 0 (torsion false)."""
    checked = failed = 0
    for p, m in fields:
        for E in curve_inventory(make_field(p, m)):
            for u, v, _, got, want in zero_place_counts(E, torsion):
                checked += 1
                if got != want:
                    failed += 1
                    print(f"  place count mismatch: {E!r}, u = {u}, v = {v}")
    return checked, failed


def census_failures(p, m, rigid_only):
    """(classes checked, classes whose census set differs from lambda_exact)."""
    curves = [
        E for E in curve_inventory(make_field(p, m)) if not rigid_only or _rigid(E)
    ]
    failed = 0
    for E in curves:
        if tuple(sorted(cover_census(E))) != lambda_exact(E).traces:
            failed += 1
            print(f"  census mismatch: {E!r}")
    return len(curves), failed


def cli_failures(q):
    """Failed CLI checks at q: cold table exit, warm table bytes, verify exit."""

    def run(command):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([command, "--q", str(q), "--cache-dir", cache_dir])
        return code, out.getvalue()

    with tempfile.TemporaryDirectory() as cache_dir:
        cold = run("table")
        warm = run("table")
        verify = run("verify")
    if verify[0] != 0:
        print(verify[1], end="")
    return (cold[0] != 0) + (warm != cold) + (verify[0] != 0)


def main():
    fields = total = bad = bad_mass = bad_lex = bad_cli = 0
    for p, m in sweep_fields(INVENTORY_CAP):
        covered, models = mass(p, m)
        lex_failed = lex_min_failures(p, m)
        pairs, glue, mismatches = sweep(p, m)
        cli_failed = cli_failures(p**m)
        print(
            f"q = {p ** m}: orbits cover {covered} of {models} models,"
            f" {lex_failed} failed lex-min checks;"
            f" {pairs} same-j pairs at j = 0 or 1728,"
            f" {glue} glue, {pairs - glue} do not, {len(mismatches)} mismatches;"
            f" {cli_failed} failed CLI checks",
            flush=True,
        )
        for E1, E2 in mismatches:
            print(f"  mismatch: {E1!r} / {E2!r}")
        fields += 1
        total += pairs
        bad += len(mismatches)
        bad_mass += covered != models
        bad_lex += lex_failed
        bad_cli += cli_failed
        # each field's inventory and modules are needed only once
        curve_inventory.cache_clear()
        two_torsion_module.cache_clear()
        geometric_restrictions.cache_clear()
    print(f"{fields} fields, {total} pairs, {bad} mismatches")
    print(f"{fields} fields, {bad_mass} failed mass counts")
    print(f"{fields} fields, {bad_lex} failed lex-min checks")
    print(f"{fields} fields, {bad_cli} failed CLI checks (cold table, warm table, verify)")
    checked, bad_census = histogram_failures(5, 2)
    print(f"q = 25: census histogram against the full scan on {checked} classes,"
          f" {bad_census} failed", flush=True)
    bad_count = 0
    for torsion, where in ((True, "a 2-torsion point"), (False, "a point with y0 != 0")):
        counted, failed = place_count_failures(((13, 1), (5, 2)), torsion)
        print(f"q = 13 and 25: index place count against the object count on {counted}"
              f" covers vanishing at {where}, {failed} failed", flush=True)
        bad_count += failed
    for p, m, rigid_only in census_fields():
        n, failed = census_failures(p, m, rigid_only)
        kind = "rigid classes" if rigid_only else "classes"
        print(f"q = {p ** m}: census against lambda_exact on {n} {kind}, {failed} failed",
              flush=True)
        checked += n
        bad_census += failed
    print(f"{checked} census checks, {bad_census} failed")
    return 1 if bad or bad_mass or bad_lex or bad_census or bad_count or bad_cli else 0


if __name__ == "__main__":
    sys.exit(main())
