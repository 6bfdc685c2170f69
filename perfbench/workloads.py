"""Workloads: frozen command pools and the seeded command list of one pass.

Every command a workload can issue comes from a pool frozen in
expected.json together with its expected exit code and stdout digest, so the
output of every timed command is checked.  A workload is a list of slots;
each slot draws a fixed number of commands from one pool group, and the
seed only chooses which members of a group run and in what order.  Members
of one group cost about the same (freeze.py keeps the half of each drawn
group nearest its median cost), so the work of a pass barely depends on
the seed.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = {
    "oracle": {
        "why": (
            "oracle answers over F_11 and F_13 plus a three-way verify --q 7:"
            " fforacle cover enumeration and ffield squarefree work dominate;"
            " the only inventory and galois2 modules are q = 7's"
        ),
        # one F_11 and two F_13 answers, so a pass's median averages two of
        # the oracle answers and its slowest command is verify --q 7; a pass
        # of about 8 s leaves room for four or five passes
        "slots": (("oracle11", 1), ("oracle13", 2), ("verify7", 1)),
        # verify --q 7 writes its cache entry, so each pass starts empty
        "cache": "per_pass",
    },
    "table_cold": {
        "why": (
            "cold table over F_25, F_49 and the primes 43 and 59: ecurve"
            " inventory, galois2 modules over splitting fields, classify"
            " resolution and the cli cache write; no oracle"
        ),
        # small fields, so a run holds several passes and its medians rest on
        # several samples of each command; every pass builds all four tables
        # (the seed picks each one's format and the order), so a pass's
        # median averages the two primes, which cost about the same, and its
        # slowest command is F_49
        "slots": (("cold25", 1), ("cold43", 1), ("cold59", 1), ("cold49", 1)),
        "cache": "per_pass",
    },
    "queries": {
        "why": (
            "many short commands on a cache warmed in set-up: cache reads,"
            " large-prime point counts, small Kani sets, admissible windows"
            " near 1e7 and rejected inputs; start-up and import weigh heavily"
        ),
        # 32 commands; the 22 rejected inputs, warm tables and degree-3
        # answers take about 0.1 s, so a pass's median lies well inside that
        # group; its slowest command is the formula answer near 59000
        "slots": (
            ("warm_table", 14),
            ("warm_verify", 2),
            ("formula_10k", 1),
            ("formula_19k", 1),
            ("formula_20k", 1),
            ("formula_59k", 1),
            ("kani25", 1),
            ("kani37", 1),
            ("kani49", 1),
            ("d3", 3),
            ("admissible_1e7", 1),
            ("invalid", 5),
        ),
        # built once per set-up, then only read by the passes
        "warm": ("table --q 49",),
        "cache": "warm",
    },
}

# Kani rows read in set-up to cross-check the oracle workload's answers
ORACLE_KANI_TABLES = ("table --q 11 --format json", "table --q 13 --format json")


def load_expected(path=EXPECTED_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def expected_index(expected):
    """Map each frozen command to its {"rc", "sha256"} record."""
    index = {}
    for group in expected["groups"].values():
        index.update(group)
    return index


def generate(workload, seed, expected):
    """The command list of one pass, as strings, for this workload and seed."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    commands = []
    for group, count in spec["slots"]:
        pool = sorted(expected["groups"][group])
        # a slot larger than its pool takes every member equally often
        full, extra = divmod(count, len(pool))
        commands.extend(pool * full + rng.sample(pool, extra))
    rng.shuffle(commands)
    return commands
