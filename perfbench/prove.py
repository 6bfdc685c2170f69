"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/prove.py --seeds 1-10 [--workloads oracle,queries]
                               [--trace 0|1] [--label NAME]

Runs perfbench/run.py once per workload and seed, one run at a time, with
BENCHMARK.json's run_seconds.  For every metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread, (q3 - q1) / median,
next to the metric's bound, and writes the same figures with every run's
values to perfbench/out/prove-NAME.json.  Two labelled sets of the same
code show whether the benchmark is steady: each spread should stay within
its bound and the second median within the bound of the first.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="set")
    args = parser.parse_args()
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            out = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} commands failed")
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in runs[-1].items()), file=sys.stderr, flush=True)
        summary[workload] = {}
        for name in bounds:
            values = [r[name] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                       "spread": spread, "values": values}
            bound = bounds[name]
            flag = "" if bound is None else f"  bound {bound}" + (
                "  OVER" if spread > bound else "  over a third" if spread > bound / 3 else "")
            print(f"{workload:11s} {name:26s} median {median:12.6g}  spread {spread:.3f}{flag}")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"prove-{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seeds": args.seeds, "trace": args.trace, "workloads": summary}, fh, indent=1)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
