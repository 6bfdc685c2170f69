"""Run one lambda2 CLI command with per-module spans and counts.

Usage: python tracer.py OUT.json -- <lambda2 arguments>

The command runs exactly as `python -m lambda2.cli <arguments>` would, in
this fresh interpreter; stdout and the exit code are the CLI's own.  Before
main() runs, the public functions of ffield, ecurve, galois2, classify and
fforacle are wrapped at the names through which each calling module imports
them (including cli's mode table), so every call that crosses a module
boundary becomes a span: name, start, end, parent.  Functions behind an
lru_cache record a span only when the call was a real miss.  Nothing under
src/ changes.  Spans and counts stay in memory and are written to OUT.json
when the command ends.
"""

import sys
import time

T0 = time.perf_counter()


class Recorder:
    """In-memory span stack and counters for one command."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = {}

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def enter(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter() - T0, None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def leave(self, idx, keep=True):
        self.stack.pop()
        if keep:
            self.spans[idx][2] = time.perf_counter() - T0
        else:
            # only a cache hit is dropped, and a hit calls nothing traced
            del self.spans[idx:]

    def wrap(self, name, fn, after=None, misses=None, when=None):
        """Span every call of fn as `name`.

        after(args, kwargs, result, kept) updates counts; misses is an lru-cached
        function whose miss count decides whether the span is kept; when
        (args, kwargs) -> bool limits the span to some calls.
        """
        rec = self

        def traced(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            before = misses.cache_info().misses if misses is not None else None
            idx = rec.enter(name)
            keep = True
            try:
                result = fn(*args, **kwargs)
            finally:
                if before is not None:
                    keep = misses.cache_info().misses > before
                rec.leave(idx, keep)
            if after is not None:
                after(args, kwargs, result, keep)
            return result

        traced.__wrapped__ = fn
        return traced


def _patch(rec, modules, callers, attr, name, **options):
    """Replace `attr` in every calling module by one shared traced wrapper."""
    original = getattr(modules[callers[0]], attr)
    wrapper = rec.wrap(name, original, **options)
    for caller in callers:
        setattr(modules[caller], attr, wrapper)
    return wrapper


def install(rec):
    import lambda2.classify as classify
    import lambda2.cli as cli
    import lambda2.ecurve as ecurve
    import lambda2.ffield as ffield
    import lambda2.fforacle as fforacle
    import lambda2.galois2 as galois2

    mods = {
        "cli": cli,
        "ecurve": ecurve,
        "ffield": ffield,
        "galois2": galois2,
        "classify": classify,
        "fforacle": fforacle,
    }
    count = rec.count

    def tally(key):
        def after(args, kwargs, result, kept):
            if kept:
                count(key)
        return after

    # ffield, at the names its callers imported

    _patch(rec, mods, ("cli", "ecurve", "classify"), "field_of_order", "ffield.field",
           misses=ffield._make_field, after=tally("ffield.fields_built"))
    _patch(rec, mods, ("ecurve", "galois2", "fforacle"), "make_field", "ffield.field",
           misses=ffield._make_field, after=tally("ffield.fields_built"))
    for attr in ("factor", "roots"):
        _patch(rec, mods, ("galois2", "fforacle"), attr, "ffield.factor",
               after=tally("ffield.factor_calls"))
    _patch(rec, mods, ("ecurve", "galois2", "fforacle"), "embedding", "ffield.embed",
           after=tally("ffield.embed_calls"))
    _patch(rec, mods, ("fforacle",), "squarefree_decomposition", "ffield.sqf",
           after=tally("ffield.sqf_calls"))

    # ecurve
    def inventory_after(args, kwargs, result, kept):
        if kept:
            count("ecurve.inventory_builds")
            count("ecurve.classes", len(result))

    _patch(rec, mods, ("cli", "classify"), "curve_inventory", "ecurve.inventory",
           misses=ecurve.curve_inventory, after=inventory_after)

    def scanned(key):
        def after(args, kwargs, result, kept):
            count(key)
            count("ecurve.x_scanned", args[0].field.order)
        return after

    curve_cls = ecurve.EllipticCurve

    def first_power(args, kwargs):
        k = args[1] if len(args) > 1 else kwargs.get("k", 1)
        return k == 1

    curve_cls.point_count = rec.wrap("ecurve.trace", curve_cls.point_count,
                                     after=scanned("ecurve.trace_calls"), when=first_power)
    curve_cls.two_torsion_structure = rec.wrap(
        "ecurve.structure", curve_cls.two_torsion_structure,
        after=scanned("ecurve.structure_calls"))
    curve_cls.affine_points = rec.wrap("ecurve.points", curve_cls.affine_points,
                                       after=scanned("ecurve.points_calls"))

    # galois2
    _patch(rec, mods, ("galois2",), "two_torsion_module", "galois2.module",
           misses=galois2.two_torsion_module, after=tally("galois2.modules"))

    def kani_after(args, kwargs, result, kept):
        count("galois2.kani_checks")
        if result:
            count("galois2.kani_accepted")

    _patch(rec, mods, ("classify",), "kani_admissible", "galois2.kani", after=kani_after)
    _patch(rec, mods, ("galois2",), "geometric_restrictions", "galois2.restriction")

    # classify
    def window_after(args, kwargs, result, kept):
        if kept:
            lo, hi = classify.hasse_window(args[0])
            count("classify.windows")
            count("classify.window_size", hi - lo + 1)

    _patch(rec, mods, ("cli", "classify"), "admissible_traces", "classify.admissible",
           misses=classify.admissible_traces, after=window_after)

    def flagged_after(args, kwargs, result, kept):
        count("classify.flagged", len(result[1]))

    _patch(rec, mods, ("classify",), "lambda_formula", "classify.formula", after=flagged_after)
    resolved = _patch(rec, mods, ("cli",), "lambda_formula_resolved", "classify.formula")
    exact = _patch(rec, mods, ("cli", "classify"), "lambda_exact", "classify.exact")
    _patch(rec, mods, ("cli",), "lambda_set", "classify.lambda_set")

    # fforacle
    oracle = _patch(rec, mods, ("cli",), "lambda_oracle", "fforacle.oracle")
    _patch(rec, mods, ("fforacle",), "cover_census", "fforacle.census")

    def branch_after(args, kwargs, result, kept):
        count("fforacle.covers")
        if result == 2:
            count("fforacle.genus2")

    _patch(rec, mods, ("fforacle",), "branch_degree", "fforacle.branch", after=branch_after)

    # cli dispatches lambda through a table built at import time
    cli._MODE_FUNCTIONS.update(formula=resolved, kani=exact, oracle=oracle)


def main():
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json -- <lambda2 arguments>")
    rec = Recorder()
    idx = rec.enter("cli.import")
    import lambda2.cli

    rec.leave(idx)
    install(rec)
    rc = 1
    idx = rec.enter("cli.main")
    try:
        rc = lambda2.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code
    finally:
        rec.leave(idx)
        end = time.perf_counter() - T0
        sys.stdout.flush()
        import json

        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"end": end, "spans": rec.spans, "counts": rec.counts}, fh,
                      separators=(",", ":"))
    sys.exit(rc)


if __name__ == "__main__":
    main()
