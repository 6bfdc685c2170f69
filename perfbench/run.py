"""Closed-loop benchmark of the lambda2 command-line tool.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

One client sends one command at a time and waits for it to finish, so at
most two processes run (this one and the command).  Every command runs in a
fresh interpreter as `python -m lambda2.cli ...` with PYTHONPATH=src, from a
private working directory and with a private LAMBDA2_CACHE_DIR, both under
perfbench/work/ and removed at exit.  Every command's exit code and stdout
are checked against the digests frozen in expected.json.

A run sets up at least three times, and up to 25 times while the set-ups
so far took under three seconds (fresh-interpreter import probe plus the
workload's preparation), and reports the median as setup_s.  It then repeats
the workload's seeded command list (a pass) for about --seconds; run times
are medians over passes, and so are the command median and tail: the
median over passes of each pass's median and tail command.  With --trace 1
it alternates plain passes with passes that replay the same commands under
tracer.py, reports per-module metrics from the traced passes and writes
every span to perfbench/out/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A readable report, fail_rate included, goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
TRACER = os.path.join(HERE, "tracer.py")
WORK_ROOT = os.path.join(HERE, "work")
OUT_DIR = os.path.join(HERE, "out")

SETUPS_MIN, SETUPS_MAX, SETUP_BUDGET_S = 3, 25, 3.0
COMMAND_LIMIT_S = 30.0  # a command slower than this is killed and fails
RUN_DEADLINE_S = 150.0  # no pass starts that would end after this
TAIL_PERCENTILES = (99, 95, 90, 75)
MIN_BEYOND_TAIL = 10


class CommandResult:
    __slots__ = ("cmd", "wall", "cpu", "rss_kb", "rc", "stdout", "failure",
                 "cache_files", "cache_bytes", "trace")

    def __init__(self, cmd, wall, cpu, rss_kb, rc, stdout):
        self.cmd = cmd
        self.wall = wall
        self.cpu = cpu
        self.rss_kb = rss_kb
        self.rc = rc
        self.stdout = stdout
        self.failure = None
        self.cache_files = 0
        self.cache_bytes = 0
        self.trace = None


class Pass:
    def __init__(self, wall, results, traced):
        self.wall = wall
        self.results = results
        self.traced = traced

    @property
    def cpu(self):
        return sum(r.cpu for r in self.results)


def _cache_snapshot(cache_dir):
    try:
        entries = list(os.scandir(cache_dir))
    except FileNotFoundError:
        return {}
    snap = {}
    for entry in entries:
        st = entry.stat()
        snap[entry.name] = (st.st_mtime_ns, st.st_size)
    return snap


def check_output(result, expected, kani_rows):
    """Why a command's result is wrong, or None when it matches."""
    want = expected.get(result.cmd)
    if want is None:
        return "command is not in the frozen pools"
    if result.rc != want["rc"]:
        return f"exit code {result.rc}, expected {want['rc']}"
    if hashlib.sha256(result.stdout).hexdigest() != want["sha256"]:
        return "stdout differs from the frozen digest"
    if kani_rows is not None and result.cmd.endswith("--mode oracle"):
        payload = json.loads(result.stdout)
        key = (payload["q"], payload["curve"]["a"], payload["curve"]["b"])
        if kani_rows.get(key) != payload["traces"]:
            return f"oracle traces {payload['traces']} differ from the Kani row {kani_rows.get(key)}"
    return None


class Bench:
    """Runs commands for one benchmark invocation inside a private work dir."""

    def __init__(self, root, expected):
        self.root = root
        self.expected = workloads.expected_index(expected)
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
        self.cwd = os.path.join(self.work, "cwd")
        os.makedirs(self.cwd)
        self.seq = 0

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    def fresh_dir(self, label):
        self.seq += 1
        path = os.path.join(self.work, f"{label}-{self.seq}")
        os.makedirs(path)
        return path

    def env(self, cache_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        env["LAMBDA2_CACHE_DIR"] = cache_dir
        return env

    def spawn(self, argv, env):
        """Run argv to completion; (wall s, cpu s, max rss KB, rc, stdout)."""
        self.seq += 1
        out_path = os.path.join(self.work, f"out-{self.seq}")
        with open(out_path, "w+b") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                    cwd=self.cwd, env=env)
            timed_out = True
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    timed_out = not select.select([pidfd], [], [], COMMAND_LIMIT_S)[0]
                finally:
                    os.close(pidfd)
            finally:
                if timed_out:  # over the limit, or this run is being stopped
                    proc.kill()
                wall = time.perf_counter() - t0
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = rc = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read()
        os.unlink(out_path)
        return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                None if timed_out else rc, stdout)

    def run_command(self, cmd, cache_dir, traced=False, kani_rows=None):
        args = cmd.split()
        trace_path = None
        if traced:
            self.seq += 1
            trace_path = os.path.join(self.work, f"trace-{self.seq}.json")
            argv = [sys.executable, TRACER, trace_path, "--", *args]
        else:
            argv = [sys.executable, "-m", "lambda2.cli", *args]
        before = _cache_snapshot(cache_dir)
        result = CommandResult(cmd, *self.spawn(argv, self.env(cache_dir)))
        after = _cache_snapshot(cache_dir)
        written = [name for name, stamp in after.items() if before.get(name) != stamp]
        result.cache_files = len(written)
        result.cache_bytes = sum(after[name][1] for name in written)
        if result.rc is None:
            result.failure = f"exceeded the {COMMAND_LIMIT_S:.0f} s command limit"
        else:
            result.failure = check_output(result, self.expected, kani_rows)
        if trace_path is not None:
            try:
                with open(trace_path, encoding="utf-8") as fh:
                    result.trace = json.load(fh)
                os.unlink(trace_path)
            except (OSError, ValueError):
                result.failure = result.failure or "the tracer wrote no spans"
        return result

    def probe_import(self, cache_dir):
        rc = self.spawn([sys.executable, "-c", "import lambda2.cli"], self.env(cache_dir))[3]
        if rc != 0:
            raise RuntimeError("`import lambda2.cli` failed in a fresh interpreter")

    def run_pass(self, commands, cache_dir, traced=False, kani_rows=None):
        t0 = time.perf_counter()
        results = [self.run_command(c, cache_dir, traced, kani_rows) for c in commands]
        return Pass(time.perf_counter() - t0, results, traced)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail_rank(n):
    """(label, 1-based rank) of the tail in n sorted commands: the highest
    listed percentile with at least ten commands beyond it (nearest rank),
    else the maximum."""
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= MIN_BEYOND_TAIL:
            return f"p{pct}", rank
    return "p100", n


def tail(passes):
    """(label, value): the median over passes of each pass's tail.  Every
    pass runs the same command list, so the percentile does not depend on
    how many passes fit in --seconds, and the median of several passes is
    steadier than one order statistic of the whole run."""
    label, rank = tail_rank(len(passes[0].results))
    return label, statistics.median(sorted(r.wall for r in p.results)[rank - 1] for p in passes)


def end_to_end(passes, setups):
    """End-to-end metrics of the plain passes, and the tail's percentile label.
    The command median, like the tail, is a median over passes of each
    pass's median: where it falls between two commands of a pass, the pass
    median averages them, while a median of all commands would hang on the
    single closest pair of their samples."""
    label, tail_s = tail(passes)
    return {
        "run_s": (statistics.median(p.wall for p in passes), "s"),
        "run_cpu_s": (statistics.median(p.cpu for p in passes), "s"),
        "cmd_p50_s": (statistics.median(
            statistics.median(r.wall for r in p.results) for p in passes), "s"),
        "cmd_tail_s": (tail_s, "s"),
        "peak_rss_mb": (max(r.rss_kb for p in passes for r in p.results) / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }, label


def _span_times(spans):
    """Per-name inclusive and self time, and the root-span total."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    inclusive, own, roots = {}, {}, 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        d = end - start
        inclusive[name] = inclusive.get(name, 0.0) + d
        own[name] = own.get(name, 0.0) + d - child[i]
        if parent < 0:
            roots += d
    return inclusive, own, roots


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(traced_pass):
    """Per-module metrics of one traced pass: totals over its commands."""
    inc, own, counts = {}, {}, {}
    imports, covered, total, nspans = [], 0.0, 0.0, 0
    for r in traced_pass.results:
        if r.trace is None:
            continue
        spans = r.trace["spans"]
        i, o, roots = _span_times(spans)
        for name, v in i.items():
            inc[name] = inc.get(name, 0.0) + v
        for name, v in o.items():
            own[name] = own.get(name, 0.0) + v
        for name, v in r.trace["counts"].items():
            counts[name] = counts.get(name, 0) + v
        imports.extend(e - s for name, s, e, _ in spans if name == "cli.import")
        covered += roots
        total += r.trace["end"]
        nspans += len(spans)
    n = counts.get
    census, branch = inc.get("fforacle.census", 0.0), inc.get("fforacle.branch", 0.0)
    return {
        "cli.import_s": (statistics.median(imports) if imports else 0.0, "s"),
        "cli.self_s": (own.get("cli.main", 0.0), "s"),
        "cli.cache_rebuilds": (sum(r.cache_files for r in traced_pass.results), "count"),
        "cli.cache_bytes": (sum(r.cache_bytes for r in traced_pass.results), "bytes"),
        "ecurve.inventory_s": (inc.get("ecurve.inventory", 0.0), "s"),
        "ecurve.inventory_builds": (n("ecurve.inventory_builds", 0), "count"),
        "ecurve.classes": (n("ecurve.classes", 0), "count"),
        "ecurve.trace_s": (inc.get("ecurve.trace", 0.0), "s"),
        "ecurve.trace_calls": (n("ecurve.trace_calls", 0), "count"),
        "ecurve.structure_s": (inc.get("ecurve.structure", 0.0), "s"),
        "ecurve.x_scanned": (n("ecurve.x_scanned", 0), "count"),
        "galois2.module_s": (inc.get("galois2.module", 0.0), "s"),
        "galois2.modules": (n("galois2.modules", 0), "count"),
        "galois2.kani_s": (inc.get("galois2.kani", 0.0), "s"),
        "galois2.kani_checks": (n("galois2.kani_checks", 0), "count"),
        "galois2.kani_accept_ratio": (
            _ratio(n("galois2.kani_accepted", 0), n("galois2.kani_checks", 0)), "ratio"),
        "galois2.restriction_s": (inc.get("galois2.restriction", 0.0), "s"),
        "classify.exact_s": (own.get("classify.exact", 0.0), "s"),
        "classify.formula_s": (own.get("classify.formula", 0.0), "s"),
        "classify.flagged": (n("classify.flagged", 0), "count"),
        "classify.admissible_s": (inc.get("classify.admissible", 0.0), "s"),
        "classify.window_size": (n("classify.window_size", 0), "count"),
        "ffield.field_build_s": (inc.get("ffield.field", 0.0), "s"),
        "ffield.fields_built": (n("ffield.fields_built", 0), "count"),
        "ffield.factor_s": (inc.get("ffield.factor", 0.0), "s"),
        "ffield.factor_calls": (n("ffield.factor_calls", 0), "count"),
        "ffield.embed_s": (inc.get("ffield.embed", 0.0), "s"),
        "ffield.embed_calls": (n("ffield.embed_calls", 0), "count"),
        "ffield.sqf_s": (inc.get("ffield.sqf", 0.0), "s"),
        "ffield.sqf_calls": (n("ffield.sqf_calls", 0), "count"),
        "fforacle.covers": (n("fforacle.covers", 0), "count"),
        "fforacle.genus2": (n("fforacle.genus2", 0), "count"),
        "fforacle.genus2_ratio": (
            _ratio(n("fforacle.genus2", 0), n("fforacle.covers", 0)), "ratio"),
        "fforacle.branch_s": (branch, "s"),
        "fforacle.census_s": (census, "s"),
        "fforacle.count_s": (census - branch, "s"),  # derived: census minus branch
        "trace.coverage": (_ratio(covered, total), "ratio"),
        "trace.spans": (nspans, "count"),
    }


def per_layer(passes):
    """Medians over the traced passes, plus the tracing overhead."""
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    each = [layer_metrics(p) for p in traced]
    merged = {
        name: (statistics.median(m[name][0] for m in each), unit)
        for name, (_, unit) in each[0].items()
    }
    overhead = (statistics.median(p.wall for p in traced)
                / statistics.median(p.wall for p in plain) - 1)
    merged["trace.overhead"] = (overhead, "ratio")
    return merged


def write_trace_file(path, workload, seed, commands, passes):
    """All spans of the traced passes as [name, start, end, parent, command id]."""
    records, spans = [], []
    for pass_no, p in enumerate(passes):
        if not p.traced:
            continue
        for r in p.results:
            cid = len(records)
            records.append({
                "id": cid, "pass": pass_no, "cmd": r.cmd, "wall_s": r.wall,
                "in_process_s": r.trace["end"] if r.trace else None,
                "counts": r.trace["counts"] if r.trace else {},
            })
            if r.trace is None:
                continue
            base = len(spans)
            for name, start, end, parent in r.trace["spans"]:
                spans.append([name, round(start, 7), round(end, 7),
                              parent + base if parent >= 0 else -1, cid])
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "pass_commands": commands,
                   "commands": records, "spans": spans}, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------


def _kani_rows(bench, failures):
    """Kani rows of the oracle fields, read untimed from `table` output."""
    cache = bench.fresh_dir("kani-cache")
    rows = {}
    for cmd in workloads.ORACLE_KANI_TABLES:
        result = bench.run_command(cmd, cache)
        if result.failure:
            failures.append((cmd, result.failure))
            continue
        q = int(cmd.split()[2])
        for row in json.loads(result.stdout):
            rows[(q, row["a"], row["b"])] = row["lambda_traces"]
    return rows


def setup(bench, workload, seed, expected, failures):
    """One set-up: import probe plus preparation; (seconds, commands, cache)."""
    spec = workloads.WORKLOADS[workload]
    t0 = time.perf_counter()
    cache = bench.fresh_dir("cache")
    bench.probe_import(cache)
    commands = workloads.generate(workload, seed, expected)
    for cmd in spec.get("warm", ()):
        result = bench.run_command(cmd, cache)
        if result.failure:
            failures.append((cmd, result.failure))
    return time.perf_counter() - t0, commands, cache


def run(root, workload, seed, seconds, trace):
    expected = workloads.load_expected()
    spec = workloads.WORKLOADS[workload]
    bench = Bench(root, expected)
    start = time.perf_counter()
    setup_failures = []
    try:
        setups = []
        while len(setups) < SETUPS_MIN or (
                len(setups) < SETUPS_MAX and sum(setups) < SETUP_BUDGET_S):
            took, commands, cache = setup(bench, workload, seed, expected, setup_failures)
            setups.append(took)
        kani_rows = _kani_rows(bench, setup_failures) if workload == "oracle" else None

        passes, measured = [], 0.0
        while True:
            traced = bool(trace) and len(passes) % 2 == 1
            if spec["cache"] == "per_pass":
                cache = bench.fresh_dir("cache")
            p = bench.run_pass(commands, cache, traced, kani_rows)
            passes.append(p)
            measured += p.wall
            estimate = statistics.median(q.wall for q in passes)
            # stop when another pass would overrun --seconds by over half a pass
            done = measured + estimate / 2 > seconds
            late = time.perf_counter() - start + estimate > RUN_DEADLINE_S
            # a traced run pairs every plain pass with a traced replay
            unpaired = trace and len(passes) % 2 == 1
            if (done or late) and not unpaired:
                break
        if trace:
            trace_path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
            write_trace_file(trace_path, workload, seed, commands, passes)
    finally:
        bench.close()

    attempted = sum(len(p.results) for p in passes)
    failed = [(r.cmd, r.failure) for p in passes for r in p.results if r.failure]
    if trace:
        metrics, label = per_layer(passes), None
    else:
        metrics, label = end_to_end(passes, setups)
    report(workload, seed, passes, metrics, label, attempted, failed, setup_failures)
    return {
        "correct": not failed and not setup_failures,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def report(workload, seed, passes, metrics, label, attempted, failed, setup_failures):
    err = sys.stderr
    per_pass = len(passes[0].results)
    print(f"workload {workload}  seed {seed}  passes {len(passes)}"
          f"  commands/pass {per_pass}", file=err)
    for name, (value, unit) in metrics.items():
        note = (f"  (median over {len(passes)} passes of the pass {label},"
                f" {per_pass} commands a pass)" if name == "cmd_tail_s" else "")
        print(f"  {name:28s} {value:14.6f} {unit}{note}", file=err)
    print(f"  {'fail_rate':28s} {len(failed) / attempted:14.6f} ratio"
          f"  ({len(failed)} of {attempted})", file=err)
    for cmd, why in setup_failures + failed:
        print(f"  FAIL {cmd}: {why}", file=err)


# ---------------------------------------------------------------------------
# self-check
# ---------------------------------------------------------------------------


def selfcheck(root):
    """Exercise generation, output checking and tracing at tiny sizes."""
    problems = []
    expected = workloads.load_expected()
    groups = expected["groups"]
    for name, spec in workloads.WORKLOADS.items():
        for group, _ in spec["slots"]:
            if not groups.get(group):
                problems.append(f"{name}: pool {group} is missing or empty")
        first = workloads.generate(name, 1, expected)
        if first != workloads.generate(name, 1, expected):
            problems.append(f"{name}: the same seed gave two command lists")
        if all(workloads.generate(name, s, expected) == first for s in range(2, 6)):
            problems.append(f"{name}: the seed does not change the command list")

    tiny = sorted(groups["selfcheck"])
    bench = Bench(root, expected)
    try:
        kani_cache = bench.fresh_dir("cache")
        table = bench.run_command("table --q 5 --format json", kani_cache)
        rows = {(5, r["a"], r["b"]): r["lambda_traces"] for r in json.loads(table.stdout)}
        plain = bench.run_pass(tiny, bench.fresh_dir("cache"), False, rows)
        traced = bench.run_pass(tiny, bench.fresh_dir("cache"), True, rows)
        path = os.path.join(bench.work, "trace.json")
        write_trace_file(path, "selfcheck", 0, tiny, [plain, traced])
        with open(path, encoding="utf-8") as fh:
            written = json.load(fh)
    finally:
        bench.close()

    for p in (plain, traced):
        problems += [f"{r.cmd}: {r.failure}" for r in p.results if r.failure]
    layers = per_layer([plain, traced])
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    if set(layers) != listed:
        problems.append(f"per-layer metrics differ from BENCHMARK.json: {sorted(set(layers) ^ listed)}")
    if layers["trace.coverage"][0] < 0.9:
        problems.append(f"trace coverage {layers['trace.coverage'][0]:.3f} is below 0.9")
    for name in ("fforacle.covers", "ecurve.inventory_builds", "galois2.kani_checks",
                 "cli.cache_rebuilds", "classify.window_size"):
        if layers[name][0] <= 0:
            problems.append(f"{name} recorded nothing")
    if not written["spans"] or len(written["commands"]) != len(tiny):
        problems.append("the trace file lacks spans or commands")
    e2e, _ = end_to_end([plain], [0.1])
    if any(v <= 0 for v, _ in e2e.values()):
        problems.append("an end-to-end metric is not positive")

    # the checks must catch wrong answers, not only pass right ones
    sample = plain.results[0]
    wrong = {sample.cmd: {"rc": sample.rc, "sha256": "0" * 64}}
    if check_output(sample, wrong, None) is None:
        problems.append("a wrong stdout digest went unnoticed")
    oracle = next(r for r in plain.results if r.cmd.endswith("--mode oracle"))
    bad_rows = {key: [0] for key in rows}
    if check_output(oracle, bench.expected, bad_rows) is None:
        problems.append("an oracle answer that differs from its Kani row went unnoticed")

    for line in problems:
        print(f"selfcheck: {line}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so the running command is killed and
    # the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lambda2", "cli.py")):
        print("perfbench: run from the root of a lambda2 checkout (src/lambda2 is missing)",
              file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck(root)
    if args.workload is None:
        parser.error("--workload is required")
    result = run(root, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
