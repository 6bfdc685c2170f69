"""Rebuild expected.json: the command pools and their expected outputs.

Usage, from the root of a checkout of the commit whose outputs are the
reference:

    python3 perfbench/freeze.py

Every pool member is run in a fresh interpreter and its exit code and
stdout SHA-256 are recorded.  The candidates are drawn with a fixed
generator.  A workload draws only a few members of a group, so the members
of a group should cost the same, or the seed would move the timings: every
candidate of a group in MEASURED is run RUNS times, and only the half whose
least CPU time lies nearest the group's median is kept, with that time
recorded as cpu_s.  The outputs are reproducible; which members are kept
can change with the machine's noise.  Run it only when a pool changes, and
always on the parent of a change, never on the change.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

import run
import workloads

POOL_SEED = 2016

# groups whose members are drawn a few at a time, and so are filtered by cost
MEASURED = ("oracle11", "oracle13", "formula_10k", "formula_19k", "formula_20k",
            "formula_59k", "kani25", "kani37", "kani49", "d3", "admissible_1e7")
RUNS = 3

# (group, lowest prime, bound): point counts at these sizes cost about the
# same within a group; 20000 is ffield's table cap for is_square, so the
# groups straddle both square tests
FORMULA_STRATA = (
    ("formula_10k", 10000, 11000),
    ("formula_19k", 19000, 20000),
    ("formula_20k", 20000, 21000),
    ("formula_59k", 59000, 60000),
)
STRATUM_SIZE = 8

INVALID = (
    "table --q 15",
    "table --q 9",
    "table --q 1024",
    "table --q abc",
    "verify --q 21",
    "admissible --q 12",
    "lambda --q 13 --a 0 --b 0",
    "lambda --q 49 --a 1 --b 2",
    "lambda --q 7 --a 1 --b 1 --d 7",
    "lambda --q 11 --a 1,2 --b 3",
)

SELFCHECK = (
    "table --q 5",
    "table --q 5 --format json",
    "lambda --q 5 --a 1 --b 1 --mode oracle",
    "lambda --q 5 --a 1 --b 1 --mode formula",
    "lambda --q 7 --a 1 --b 1 --d 3",
    "verify --q 5",
    "admissible --q 25",
    "table --q 15",
)


def is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def nonsingular(p, a, b):
    return (4 * a**3 + 27 * b * b) % p != 0


def pools(table_rows):
    rng = random.Random(POOL_SEED)
    g = {}
    for q in (11, 13):
        g[f"oracle{q}"] = [
            f"lambda --q {q} --a {r['a']} --b {r['b']} --mode oracle" for r in table_rows(q)
        ]
    g["verify7"] = ["verify --q 7"]
    g["kani_tables"] = list(workloads.ORACLE_KANI_TABLES)
    # cold tables of the primes 43 and 59 cost about the same, between the
    # costs of F_25 and F_49
    for q in (25, 43, 59, 49):
        g[f"cold{q}"] = [f"table --q {q}", f"table --q {q} --format json"]
    g["warm_table"] = ["table --q 49", "table --q 49 --format json"]
    g["warm_verify"] = ["verify --q 49"]
    for group, lo, hi in FORMULA_STRATA:
        primes = [p for p in range(lo, hi) if is_prime(p)]
        cmds = []
        for p in rng.sample(primes, STRATUM_SIZE):
            # a, b nonzero keeps j away from 0 and 1728, whose flagged
            # candidates would need the capped inventory
            while True:
                a, b = rng.randrange(1, p), rng.randrange(1, p)
                if nonsingular(p, a, b):
                    break
            cmds.append(f"lambda --q {p} --a {a} --b {b} --mode formula")
        g[group] = cmds
    for q in (25, 37, 49):
        rows = rng.sample(table_rows(q), 8)
        g[f"kani{q}"] = [f"lambda --q {q} --a {r['a']} --b {r['b']} --mode kani" for r in rows]
    d3 = []
    for p in rng.sample([p for p in range(5, 100) if is_prime(p)], 12):
        while True:
            a, b = rng.randrange(p), rng.randrange(p)
            if nonsingular(p, a, b):
                break
        d3.append(f"lambda --q {p} --a {a} --b {b} --d 3")
    g["d3"] = d3
    near = [n for n in range(9_990_001, 10_010_000, 2) if is_prime(n)]
    g["admissible_1e7"] = [f"admissible --q {n}" for n in rng.sample(near, 7)] + [
        "admissible --q 9765625"  # 5^10
    ]
    g["invalid"] = list(INVALID)
    g["selfcheck"] = list(SELFCHECK)
    return g


def main():
    root = os.getcwd()
    bench = run.Bench(root, {"groups": {}})
    cache = bench.fresh_dir("cache")

    def table_rows(q):
        _, _, _, rc, out = bench.spawn(
            [sys.executable, "-m", "lambda2.cli", "table", "--q", str(q), "--format", "json"],
            bench.env(cache))
        if rc != 0:
            raise RuntimeError(f"table --q {q} failed with exit code {rc}")
        return json.loads(out)

    def freeze(cmd, runs):
        """The command's record; each run starts from an empty cache."""
        cpus, outputs = [], set()
        for _ in range(runs):
            _, cpu, _, rc, out = bench.spawn(
                [sys.executable, "-m", "lambda2.cli", *cmd.split()],
                bench.env(bench.fresh_dir("cache")))
            cpus.append(cpu)
            outputs.add((rc, hashlib.sha256(out).hexdigest()))
        if len(outputs) != 1:
            raise RuntimeError(f"{cmd} gave different outputs on different runs")
        (rc, digest), = outputs
        print(f"{min(cpus):8.3f}s rc={rc} {cmd}", file=sys.stderr, flush=True)
        record = {"rc": rc, "sha256": digest}
        if runs > 1:
            record["cpu_s"] = round(min(cpus), 3)
        return record

    try:
        groups = pools(table_rows)
        frozen = {}
        for name, cmds in groups.items():
            records = {cmd: freeze(cmd, RUNS if name in MEASURED else 1) for cmd in cmds}
            if name in MEASURED:
                mid = statistics.median(r["cpu_s"] for r in records.values())
                keep = sorted(records, key=lambda c: abs(records[c]["cpu_s"] - mid))
                records = {cmd: records[cmd] for cmd in keep[:(len(keep) + 1) // 2]}
            frozen[name] = records
    finally:
        bench.close()
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                            text=True, cwd=root).stdout.strip()
    record = {
        "frozen_at": commit or "unknown",
        "frozen_on": time.strftime("%Y-%m-%d"),
        "python": sys.version.split()[0],
        "groups": frozen,
    }
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
