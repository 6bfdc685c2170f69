"""Command-line interface: tables, trace sets, cross-checks, admissibility.

Subcommands:

* table       one row per isomorphism class over F_q (CSV or JSON);
* lambda      the complementary-trace set of a single curve as JSON;
* verify      run the independent computation routes against each other;
* admissible  realizable elliptic-curve traces over F_q.

table and verify cache table's rows, the classes of the inventory in order
with their Kani sets, on disk as cache/q{q}.v2.json (override with
--cache-dir or the LAMBDA2_CACHE_DIR environment variable); lambda computes
afresh and takes no --cache-dir.  Cache files embed a schema version and a
content hash; anything stale, damaged or of another shape is silently
recomputed.  verify walks the inventory, recomputes every route on each
class, and holds the cached row at the class's position to a fresh build of
that row, column by column; a class the cached rows do not reach, and a
cached row beyond the inventory, are mismatches too; on any mismatch the
rows verify built replace the entry.  The exhaustive cover
oracle, the independent witness, is never cached.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input, an
unusable cache directory included.  A q above a command's cap is invalid
input, refused before any factoring of q:
INVENTORY_CAP for table and verify, XLINE_MAX_Q for lambda and
ADMISSIBLE_MAX_Q for admissible.  lambda --mode oracle (d = 2) serves prime q up to
ORACLE_MAX_Q = 37 only; verify skips the oracle beyond it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import tempfile

from .classify import (
    admissible_traces,
    lambda_exact,
    lambda_formula_resolved,
    lambda_set,
)
from .ecurve import (
    INVENTORY_CAP,
    XLINE_MAX_Q,
    FieldTooLarge,
    curve_inventory,
    make_curve,
)
from .ffield import field_of_order
from .fforacle import lambda_oracle, oracle_serves

CACHE_SCHEMA = 2

_MODE_FUNCTIONS = {
    "formula": lambda_formula_resolved,
    "kani": lambda_exact,
    "oracle": lambda_oracle,
}

# table's columns, in order, and the keys of a cached row
_TABLE_COLUMNS = (
    "a",
    "b",
    "j",
    "a_q",
    "two_torsion",
    "supersingular",
    "aut_count",
    "lambda_traces",
)


def _dumps(payload):
    return json.dumps(payload, indent=2, sort_keys=True)


def _content_hash(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _cache_dir(args):
    # an empty --cache-dir or LAMBDA2_CACHE_DIR counts as unset
    return args.cache_dir or os.environ.get("LAMBDA2_CACHE_DIR") or "cache"


def _row(curve):
    """table's row for one class: its curve columns and its Kani set."""
    return {
        "a": str(curve.a),
        "b": str(curve.b),
        "j": str(curve.j_invariant()),
        "a_q": curve.trace(),
        "two_torsion": curve.two_torsion_structure(),
        "supersingular": curve.is_supersingular(),
        "aut_count": curve.automorphism_count(),
        "lambda_traces": list(lambda_exact(curve).traces),
    }


def _cache_path(q, cache_dir):
    return os.path.join(cache_dir, f"q{q}.v{CACHE_SCHEMA}.json")


def _store_entry(q, curves, cache_dir):
    """Write q's entry of these rows by one rename, so a reader sees the old
    file or the new one, never a part, and return it."""
    body = {"schema": CACHE_SCHEMA, "q": q, "curves": curves}
    entry = dict(body, hash=_content_hash(body))
    # an unusable cache directory is bad input, not a verify mismatch
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(_dumps(entry))
                fh.write("\n")
            os.replace(tmp, _cache_path(q, cache_dir))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValueError(f"cannot write the cache in {cache_dir}: {exc}") from None
    return entry


def _load_or_build_entry(q, cache_dir):
    # refuse before building the field: the inventory is super-linear in q
    if q > INVENTORY_CAP:
        raise FieldTooLarge(f"inventory is capped at field size {INVENTORY_CAP}")
    path = _cache_path(q, cache_dir)
    try:
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
    except (OSError, ValueError):
        entry = None
    # valid JSON that is not an object with schema, q and a list of rows
    # keyed by table's columns is damage too, hash or no hash
    if isinstance(entry, dict) and {"schema", "q", "curves"} <= entry.keys():
        body = {k: entry[k] for k in ("schema", "q", "curves")}
        current = body["schema"] == CACHE_SCHEMA and body["q"] == q
        rows = body["curves"]
        shaped = isinstance(rows, list) and all(
            isinstance(row, dict) and row.keys() == set(_TABLE_COLUMNS) for row in rows
        )
        if current and shaped and entry.get("hash") == _content_hash(body):
            return entry
    rows = [_row(curve) for curve in curve_inventory(field_of_order(q))]
    return _store_entry(q, rows, cache_dir)


def _parse_coefficient(field, text):
    parts = text.split(",")
    if len(parts) > field.m:
        raise ValueError(
            f"coefficient {text!r} has {len(parts)} residues; F_{field.order} takes"
            f" at most {field.m}"
        )
    return field.element([int(part) for part in parts])


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ";".join(str(t) for t in value)
    return value


def cmd_table(args):
    rows = _load_or_build_entry(args.q, _cache_dir(args))["curves"]
    if args.format == "json":
        print(_dumps(rows))
        return 0
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_TABLE_COLUMNS)
    for row in rows:
        writer.writerow([_csv_cell(row[col]) for col in _TABLE_COLUMNS])
    sys.stdout.write(out.getvalue())
    return 0


def cmd_lambda(args):
    if args.q > XLINE_MAX_Q:
        raise FieldTooLarge(
            f"lambda scans the x-line and is capped at q = {XLINE_MAX_Q}"
        )
    field = field_of_order(args.q)
    curve = make_curve(
        field, _parse_coefficient(field, args.a), _parse_coefficient(field, args.b)
    )
    if args.d == 2:
        lam = _MODE_FUNCTIONS[args.mode](curve)
    else:
        # no cover of degree d > 2 has genus 2, whichever route is asked
        lam = lambda_set(curve, args.d)
    payload = {
        "q": args.q,
        "curve": {"a": str(curve.a), "b": str(curve.b)},
        "a_q": curve.trace(),
        "j": str(curve.j_invariant()),
        "two_torsion": curve.two_torsion_structure(),
        "d": args.d,
        "mode": lam.mode,
        "traces": list(lam.traces),
        "polynomials": [list(poly) for poly in lam.polynomials()],
    }
    print(_dumps(payload))
    return 0


def cmd_verify(args):
    q = args.q
    cache_dir = _cache_dir(args)
    cached = _load_or_build_entry(q, cache_dir)["curves"]
    field = field_of_order(q)
    use_oracle = oracle_serves(field)
    inventory = curve_inventory(field)
    failures = 0
    rows = []
    for at, curve in enumerate(inventory):
        # every route runs afresh on the class; the cached row at its
        # position must be the row a fresh build gives, by repr, so that a
        # cached 1 for true or 2.0 for 2 is a fault too
        row = _row(curve)
        rows.append(row)
        label = f"a={row['a']} b={row['b']} a_q={row['a_q']:+d}"
        sets = {
            "formula": lambda_formula_resolved(curve).traces,
            "kani": tuple(row["lambda_traces"]),
        }
        if use_oracle:
            sets["oracle"] = lambda_oracle(curve).traces
        if at < len(cached):
            faults = [
                f"  cache {col}: {cached[at][col]!r}, the curve has {value!r}"
                for col, value in row.items()
                if repr(cached[at][col]) != repr(value)
            ]
        else:
            faults = ["  MISSING from the cache"]
        if len(set(sets.values())) == 1 and not faults:
            traces = ";".join(str(t) for t in sets["kani"])
            print(f"{label}: ok  [{traces}]")
        else:
            failures += 1
            print(f"{label}: MISMATCH")
            for mode in sorted(sets):
                print(f"  {mode:8s} {list(sets[mode])}")
            for fault in faults:
                print(fault)
    n = len(inventory)
    for at in range(n, len(cached)):
        failures += 1
        print(f"cache row {at + 1}: MISMATCH, beyond the inventory's {n} classes")
    if failures:
        # the rows just built replace the entry, so no later table serves a
        # faulty one
        _store_entry(q, rows, cache_dir)
        print(f"{n} classes, {failures} mismatches")
        return 1
    if use_oracle:
        print(f"{n} classes, 3 modes, all agree")
    else:
        reason = "non-prime q" if field.m != 1 else "q too large for the oracle"
        print(f"{n} classes, formula/kani agree (oracle skipped: {reason})")
    return 0


def cmd_admissible(args):
    print(_dumps(list(admissible_traces(args.q).traces)))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lambda2",
        description="Complementary traces of genus-2 double covers of elliptic curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="all isomorphism classes over F_q")
    table.add_argument("--q", type=int, required=True)
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument("--cache-dir")
    table.set_defaults(func=cmd_table)

    lam = sub.add_parser("lambda", help="complementary-trace set of one curve")
    lam.add_argument("--q", type=int, required=True)
    lam.add_argument("--a", required=True, help="curve coefficient a")
    lam.add_argument("--b", required=True, help="curve coefficient b")
    lam.add_argument("--d", type=int, default=2, help="cover degree (default 2)")
    lam.add_argument("--mode", choices=sorted(_MODE_FUNCTIONS), default="kani")
    lam.set_defaults(func=cmd_lambda)

    verify = sub.add_parser("verify", help="cross-check the computation routes")
    verify.add_argument("--q", type=int, required=True)
    verify.add_argument("--cache-dir")
    verify.set_defaults(func=cmd_verify)

    adm = sub.add_parser("admissible", help="realizable traces over F_q")
    adm.add_argument("--q", type=int, required=True)
    adm.set_defaults(func=cmd_admissible)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
