import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lambda2 import classify, cli, galois2
from lambda2.classify import ADMISSIBLE_MAX_Q, admissible_traces, lambda_exact
from lambda2.ecurve import (
    INVENTORY_CAP,
    XLINE_MAX_Q,
    FieldTooLarge,
    curve_inventory,
    make_curve,
)
from lambda2.ffield import field_of_order


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table_csv_golden_rows(tmp_path, capsys):
    code, out, _ = run(capsys, "table", "--q", "5", "--cache-dir", str(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a,b,j,a_q,two_torsion,supersingular,aut_count,lambda_traces"
    assert len(lines) == 13
    assert "1,0,3,2,Full,false,4,-2;2" in lines
    assert "0,1,0,0,C2,true,2,-4;-2;0;2;4" in lines


def test_table_json_round_trip(tmp_path, capsys):
    code, out, _ = run(
        capsys, "table", "--q", "7", "--format", "json", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 18
    assert json.dumps(rows, indent=2, sort_keys=True) == out.strip()
    by_ab = {(r["a"], r["b"]): r for r in rows}
    assert by_ab[("0", "3")]["lambda_traces"] == [-3, -1, 1, 3]
    assert by_ab[("0", "2")]["lambda_traces"] == [-5, -3, -1, 1, 3, 5]


def test_lambda_kani_example(capsys):
    code, out, _ = run(
        capsys, "lambda", "--q", "5", "--a", "3", "--b", "0", "--d", "2",
        "--mode", "kani",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["traces"] == [-2, 0, 2]
    assert payload["polynomials"] == [[5, 2, 1], [5, 0, 1], [5, -2, 1]]
    assert payload["two_torsion"] == "C2"
    assert payload["a_q"] == -4
    assert set(payload) == {
        "q", "curve", "a_q", "j", "two_torsion", "d", "mode", "traces", "polynomials",
    }


def test_lambda_higher_degree_is_empty(capsys):
    code, out, _ = run(capsys, "lambda", "--q", "5", "--a", "0", "--b", "1", "--d", "3")
    assert code == 0
    assert json.loads(out)["traces"] == []


def test_lambda_oracle_mode(capsys):
    code, out, _ = run(
        capsys, "lambda", "--q", "5", "--a", "1", "--b", "1", "--mode", "oracle"
    )
    assert code == 0
    assert json.loads(out)["traces"] == [-3, -1, 1, 3]


def test_lambda_oracle_mode_above_19(capsys):
    # the tangency census serves prime q up to ORACLE_MAX_Q = 37
    code, out, _ = run(
        capsys, "lambda", "--q", "23", "--a", "1", "--b", "1", "--mode", "oracle"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "oracle"
    curve = make_curve(23, 1, 1)
    assert tuple(payload["traces"]) == lambda_exact(curve).traces


def test_lambda_extension_field_coefficients(capsys):
    field = field_of_order(25)
    curve = curve_inventory(field)[10]
    code, out, _ = run(
        capsys, "lambda", "--q", "25", "--a", str(curve.a), "--b", str(curve.b)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["curve"] == {"a": str(curve.a), "b": str(curve.b)}
    assert tuple(payload["traces"]) == lambda_exact(curve).traces


def test_lambda_rejects_bad_input(capsys):
    # singular curve
    code, _, err = run(capsys, "lambda", "--q", "5", "--a", "2", "--b", "2")
    assert code == 2 and "error:" in err
    # oracle beyond its domain
    code, _, err = run(
        capsys, "lambda", "--q", "25", "--a", "1,1", "--b", "1", "--mode", "oracle"
    )
    assert code == 2 and "oracle" in err
    # degree sharing a factor with q
    code, _, err = run(capsys, "lambda", "--q", "5", "--a", "1", "--b", "1", "--d", "5")
    assert code == 2
    # too many residues for the field
    code, _, err = run(capsys, "lambda", "--q", "5", "--a", "1,2", "--b", "1")
    assert code == 2


def test_verify_three_way(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--q", "5", "--cache-dir", str(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "12 classes, 3 modes, all agree"
    assert sum(1 for line in lines if ": ok" in line) == 12


def test_verify_two_way_skips_oracle(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--q", "25", "--cache-dir", str(tmp_path))
    assert code == 0
    assert out.splitlines()[-1] == (
        "56 classes, formula/kani agree (oracle skipped: non-prime q)"
    )


def _cache_file(cache_dir, q):
    return cache_dir / f"q{q}.v{cli.CACHE_SCHEMA}.json"


def _plant(cache_file, edit):
    # rewrite a cache entry and re-hash it, so only verify can see the edit
    entry = json.loads(cache_file.read_text())
    entry["curves"] = edit(entry["curves"])
    entry["hash"] = cli._content_hash({k: entry[k] for k in ("schema", "q", "curves")})
    cache_file.write_text(json.dumps(entry))


def _verify_permuted(tmp_path, capsys, permute):
    """verify's lines on table --q 7's entry with its rows permuted and
    re-hashed.  A warm table on that entry prints other bytes; verify
    replaces it with the rows it built, so a warm table after it prints the
    cold bytes."""
    code, cold, _ = run(capsys, "table", "--q", "7", "--cache-dir", str(tmp_path))
    assert code == 0
    _plant(_cache_file(tmp_path, 7), permute)
    assert run(capsys, "table", "--q", "7", "--cache-dir", str(tmp_path))[1] != cold
    code, out, err = run(capsys, "verify", "--q", "7", "--cache-dir", str(tmp_path))
    assert (code, err) == (1, ""), out
    assert run(capsys, "table", "--q", "7", "--cache-dir", str(tmp_path)) == (0, cold, "")
    lines = out.splitlines()
    # labels come from the curve, and the first MISMATCH names the first class
    first = curve_inventory(field_of_order(7))[0]
    assert lines[0] == f"a={first.a} b={first.b} a_q={first.trace():+d}: MISMATCH"
    assert [line.split()[0] for line in lines[1:5]] == ["formula", "kani", "oracle", "cache"]
    return lines


def test_verify_checks_each_row_against_its_own_curve(tmp_path, capsys):
    # two rows swapped in a self-consistent entry: every route runs on the
    # inventory's classes, and the cached row at each class's position must
    # be that class's row, so both positions are mismatches
    def swap(curves):
        traces = curves[0]["lambda_traces"]
        j = next(k for k, row in enumerate(curves) if row["lambda_traces"] != traces)
        curves[0], curves[j] = curves[j], curves[0]
        return curves

    lines = _verify_permuted(tmp_path, capsys, swap)
    assert lines[-1] == "18 classes, 2 mismatches"
    assert sum(line.endswith("MISMATCH") for line in lines) == 2


def test_verify_refuses_a_reversed_entry(tmp_path, capsys):
    lines = _verify_permuted(tmp_path, capsys, lambda curves: curves[::-1])
    assert lines[-1] == "18 classes, 18 mismatches"
    # the entry verify wrote is the fresh build, so a second verify passes
    # and leaves it as it is
    written = _cache_file(tmp_path, 7).stat().st_mtime_ns
    code, out, _ = run(capsys, "verify", "--q", "7", "--cache-dir", str(tmp_path))
    assert code == 0
    assert out.splitlines()[-1] == "18 classes, 3 modes, all agree"
    assert _cache_file(tmp_path, 7).stat().st_mtime_ns == written
    assert not list(tmp_path.glob("*.tmp"))


def test_verify_recomputes_the_cached_sets(tmp_path, capsys):
    # a planted entry that is wrong but self-consistent: the hash matches, so
    # only routes computed afresh can see that +-2 went missing from a row
    def edit(curves):
        row = next(r for r in curves if (r["a"], r["b"]) == ("0,0", "1,0"))
        assert 2 in row["lambda_traces"]
        row["lambda_traces"] = [t for t in row["lambda_traces"] if abs(t) != 2]
        return curves

    assert run(capsys, "table", "--q", "25", "--cache-dir", str(tmp_path))[0] == 0
    _plant(_cache_file(tmp_path, 25), edit)
    code, out, _ = run(capsys, "verify", "--q", "25", "--cache-dir", str(tmp_path))
    assert code == 1, out
    lines = out.splitlines()
    assert lines[-1] == "56 classes, 1 mismatches"
    flagged = [line for line in lines if line.endswith("MISMATCH")]
    a_q = next(E.trace() for E in curve_inventory(field_of_order(25))
               if (str(E.a), str(E.b)) == ("0,0", "1,0"))
    assert flagged == [f"a=0,0 b=1,0 a_q={a_q:+d}: MISMATCH"]
    at = lines.index(flagged[0])
    assert [line.split()[0] for line in lines[at + 1:at + 4]] == ["formula", "kani", "cache"]
    assert lines[at + 3].startswith("  cache lambda_traces: [")


def test_verify_holds_each_row_and_the_row_set_to_the_inventory(tmp_path, capsys):
    # a self-consistent entry with one row's own columns wrong and one class
    # dropped: the sets still agree, so only the columns and the positions
    # fail; from the dropped class on, every position holds another class's
    # row, and the last class has none
    def edit(curves):
        for row in curves:
            if (row["a"], row["b"]) == ("1", "0"):
                row.update(a_q=4, two_torsion="Trivial")
        return [row for row in curves if (row["a"], row["b"]) != ("2", "0")]

    assert run(capsys, "table", "--q", "5", "--cache-dir", str(tmp_path))[0] == 0
    _plant(_cache_file(tmp_path, 5), edit)
    code, out, _ = run(capsys, "verify", "--q", "5", "--cache-dir", str(tmp_path))
    assert code == 1, out
    lines = out.splitlines()
    assert lines[-1] == "12 classes, 8 mismatches"
    flagged = [line for line in lines if line.endswith("MISMATCH")]
    # labels come from the curve: the row of (2, 1) sits at (2, 0)'s position
    assert flagged[:2] == ["a=1 b=0 a_q=+2: MISMATCH", "a=2 b=0 a_q=+4: MISMATCH"]
    at = lines.index(flagged[0])
    assert lines[at + 4:at + 7] == [
        "  cache a_q: 4, the curve has 2",
        "  cache two_torsion: 'Trivial', the curve has 'Full'",
        "a=1 b=1 a_q=-3: ok  [-3;-1;1;3]",
    ]
    assert lines[-6] == "a=4 b=2 a_q=+3: MISMATCH"
    assert lines[-2] == "  MISSING from the cache"


def test_verify_refuses_a_row_that_is_not_one_class(tmp_path, capsys):
    # (2, 1) = (2^4 * 1, 2^6 * 1) in place of its class's lex-min model
    # (1, 1), and a correct row listed once more: every set still agrees
    def edit(curves):
        for row in curves:
            if (row["a"], row["b"]) == ("1", "1"):
                row["a"] = "2"
        return curves + [dict(curves[0])]

    assert run(capsys, "table", "--q", "7", "--cache-dir", str(tmp_path))[0] == 0
    _plant(_cache_file(tmp_path, 7), edit)
    code, out, _ = run(capsys, "verify", "--q", "7", "--cache-dir", str(tmp_path))
    assert code == 1, out
    lines = out.splitlines()
    assert lines[-1] == "18 classes, 2 mismatches"
    assert lines[-2] == "cache row 19: MISMATCH, beyond the inventory's 18 classes"
    flagged = [at for at, line in enumerate(lines) if line.endswith("MISMATCH")]
    assert lines[flagged[0]].split()[:2] == ["a=1", "b=1"]
    assert lines[flagged[0] + 4] == "  cache a: '2', the curve has '1'"


@pytest.mark.parametrize(
    "col, value",
    [("b", "0"), ("b", "x"), ("b", "1,2"), ("b", 2), ("a_q", 0.0)],
    ids=["singular", "not-a-number", "too-many-residues", "not-text", "a_q-float"],
)
def test_verify_reports_a_cached_row_that_is_no_curve(tmp_path, capsys, col, value):
    # row 1 is the class (0, 2); a cell replaced by a singular or
    # unparseable value, or by a JSON number of another type, makes that row
    # alone a mismatch, named by its class and the column, and every other
    # row is still checked
    def edit(curves):
        assert (curves[1]["a"], curves[1]["b"], curves[1]["a_q"]) == ("0", "2", 0)
        curves[1][col] = value
        return curves

    assert run(capsys, "table", "--q", "5", "--cache-dir", str(tmp_path))[0] == 0
    _plant(_cache_file(tmp_path, 5), edit)
    code, out, err = run(capsys, "verify", "--q", "5", "--cache-dir", str(tmp_path))
    assert (code, err) == (1, ""), err
    lines = out.splitlines()
    want = 0 if col == "a_q" else "2"
    assert lines[1] == "a=0 b=2 a_q=+0: MISMATCH"
    assert lines[5] == f"  cache {col}: {value!r}, the curve has {want!r}"
    assert lines[-1] == "12 classes, 1 mismatches"
    assert sum(": ok  [" in line for line in lines) == 11


def test_empty_cache_env_var_is_unset(tmp_path, capsys, monkeypatch):
    # as with an empty --cache-dir, the default directory is used
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("LAMBDA2_CACHE_DIR", "")
    code, _, err = run(capsys, "table", "--q", "5")
    assert code == 0, err
    assert _cache_file(tmp_path / "cache", 5).exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--q", "5", "--cache-dir", "{file}"),
        ("verify", "--q", "5", "--cache-dir", "/dev/null/x"),
    ],
    ids=["table-file", "verify-dev-null"],
)
def test_unusable_cache_dir_is_invalid_input(argv, tmp_path, capsys):
    # exit 1 means a verify mismatch; a cache that cannot be written is bad
    # input, reported on one line
    plain = tmp_path / "plain-file"
    plain.write_text("")
    argv = [arg.format(file=plain) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# sha256 of `table --q N --format json`, taken before the inventory and the
# extension-field x-line moved to the log tables
LARGE_TABLE_DIGESTS = {
    121: "86895d10508594d82b39d1df433b84d5d3ee58413a9482f3e259e5f91b4f6c2c",
    125: "a3f119508f8639a84ec19f6fc7f8a8d916ac78a86c48030838d4df0265a21b8d",
    169: "3281ae77b3b29f83cba6be905d033ea4341d6313c258e9dc9fa3a702aaa68615",
    343: "1eaf37280b6ed87b55911cd546937cb347107b888c7ab3142d2d6cad78541cf2",
}


@pytest.mark.parametrize("q", sorted(LARGE_TABLE_DIGESTS))
def test_large_field_tables_keep_their_digests(q, tmp_path, capsys):
    code, out, _ = run(capsys, "table", "--q", str(q), "--format", "json",
                       "--cache-dir", str(tmp_path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_TABLE_DIGESTS[q]


@pytest.mark.parametrize(
    "argv, mode",
    [
        (("--q", "5", "--a", "1", "--b", "1", "--mode", "formula"), "formula"),
        (("--q", "5", "--a", "1", "--b", "1", "--mode", "oracle"), "oracle"),
        (("--q", "5", "--a", "1", "--b", "1", "--d", "4", "--mode", "oracle"), "kani"),
        (("--q", "49", "--a", "1", "--b", "1", "--d", "3", "--mode", "oracle"), "kani"),
        (("--q", "49", "--a", "1", "--b", "1", "--d", "3", "--mode", "formula"), "kani"),
    ],
    ids=["formula", "oracle", "d4-oracle", "d3-oracle-q49", "d3-formula-q49"],
)
def test_lambda_payload_names_the_route_that_answered(argv, mode, capsys):
    # no cover of degree d > 2 has genus 2, so lambda_set answers whatever
    # route was asked, and the oracle's domain does not apply
    code, out, err = run(capsys, "lambda", *argv)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["mode"] == mode
    if payload["d"] > 2:
        assert payload["traces"] == [] and payload["polynomials"] == []


def test_verify_rejects_bad_field(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "--q", "9", "--cache-dir", str(tmp_path))
    assert code == 2
    code, _, err = run(capsys, "verify", "--q", "12", "--cache-dir", str(tmp_path))
    assert code == 2


def test_admissible_json(capsys):
    code, out, _ = run(capsys, "admissible", "--q", "5")
    assert code == 0
    assert json.loads(out) == list(range(-4, 5))
    code, out, _ = run(capsys, "admissible", "--q", "49")
    assert code == 0
    assert json.loads(out) == [a for a in range(-14, 15) if abs(a) != 7]
    code, _, err = run(capsys, "admissible", "--q", "10")
    assert code == 2


def test_admissible_rejects_huge_q_fast(capsys):
    # trial division and the Hasse-window walk would run for minutes here
    started = time.perf_counter()
    code, out, err = run(capsys, "admissible", "--q", "1000000000000000003")
    assert code == 2 and out == ""
    assert str(ADMISSIBLE_MAX_Q) in err
    assert time.perf_counter() - started < 0.5
    with pytest.raises(FieldTooLarge):
        admissible_traces(ADMISSIBLE_MAX_Q + 2)
    # windows near 1e7 are still served
    assert run(capsys, "admissible", "--q", "9990499")[0] == 0


@pytest.mark.parametrize(
    "argv, cap",
    [
        (("lambda", "--a", "1", "--b", "1"), XLINE_MAX_Q),
        (("table",), INVENTORY_CAP),
        (("verify",), INVENTORY_CAP),
    ],
    ids=["lambda", "table", "verify"],
)
def test_huge_q_is_refused_fast(argv, cap, tmp_path, capsys, monkeypatch):
    # every route past field_of_order is at least linear in q, so the cap
    # must be checked before it; the stand-in fails if it is reached
    def factoring(q):
        raise AssertionError(f"field_of_order({q}) ran before the cap check")

    monkeypatch.setattr(cli, "field_of_order", factoring)
    monkeypatch.setenv("LAMBDA2_CACHE_DIR", str(tmp_path))
    started = time.perf_counter()
    code, out, err = run(capsys, argv[0], "--q", "1000000000000000003", *argv[1:])
    assert code == 2 and out == ""
    assert str(cap) in err
    assert time.perf_counter() - started < 1.0
    assert not any(tmp_path.iterdir())


# pools of perfbench/expected.json, whose exit codes and stdout digests were
# frozen from the CLI in fresh interpreters; the file is only read here
FROZEN = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
FROZEN_POOLS = (
    "formula_10k",
    "formula_19k",
    "formula_20k",
    "formula_59k",
    "d3",
    "kani25",
    "kani37",
    "kani49",
    "admissible_1e7",
    "cold25",
    "cold43",
    "cold49",
    "cold59",
    "kani_tables",
    "oracle11",
    "oracle13",
    "verify7",
    "warm_table",
    "warm_verify",
    "invalid",
    "selfcheck",
)
# pools the benchmark runs on a cache that its set-up filled with table --q 49
WARM_POOLS = ("warm_table", "warm_verify")


def _frozen(pool):
    return json.loads(FROZEN.read_text(encoding="utf-8"))["groups"][pool]


def _replay(capsys, cmd):
    # argparse refuses some inputs (table --q abc) by SystemExit, whose code
    # is the exit status a fresh interpreter reports
    try:
        code = cli.main(cmd.split())
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("pool", FROZEN_POOLS)
def test_frozen_answers_replay(pool, tmp_path, capsys, monkeypatch):
    commands = _frozen(pool)
    assert commands
    monkeypatch.setenv("LAMBDA2_CACHE_DIR", str(tmp_path / pool))
    if pool in WARM_POOLS:
        assert run(capsys, "table", "--q", "49")[0] == 0
    for cmd, want in commands.items():
        assert _replay(capsys, cmd) == (want["rc"], want["sha256"]), cmd


# commands run in one interpreter after `import lambda2.cli`, each with the
# frozen pool that holds its digest, if any; the formula query is a rigid
# curve (j = 0, Trivial), whose flagged traces go through the Kani rule
BOUNDARY_COMMANDS = {
    "table --q 49": "cold49",
    "verify --q 7": "verify7",
    "verify --q 25": None,
    "lambda --q 25 --a 0 --b 1,1 --mode formula": None,
    "lambda --q 25 --a 0,1 --b 2,2 --mode kani": "kani25",
    "lambda --q 11 --a 0 --b 1 --mode oracle": "oracle11",
    "admissible --q 25": "selfcheck",
}
BOUNDARY_PROBE = """
import contextlib, hashlib, io, json, sys
import lambda2.cli
def loaded():
    return sorted(n for n in sys.modules if n.startswith("lambda2"))
at_import, runs = loaded(), {}
for cmd in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = lambda2.cli.main(cmd.split())
    runs[cmd] = [rc, hashlib.sha256(out.getvalue().encode()).hexdigest()]
print(json.dumps({"import": at_import, "commands": loaded(), "runs": runs}))
"""


def test_cli_loads_only_production_modules(tmp_path):
    # a route can only borrow what it imports: reference code (galois2's
    # module test; the divisor route lives in tests/) stays off the CLI's
    # import graph, at import and after every command
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
        LAMBDA2_CACHE_DIR=str(tmp_path),
    )
    done = subprocess.run(
        [sys.executable, "-c", BOUNDARY_PROBE, *BOUNDARY_COMMANDS],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    production = ["lambda2"] + [
        f"lambda2.{name}" for name in ("classify", "cli", "ecurve", "ffield", "fforacle")
    ]
    assert got["import"] == got["commands"] == production
    for cmd, pool in BOUNDARY_COMMANDS.items():
        rc, digest = got["runs"][cmd]
        want = _frozen(pool)[cmd] if pool else {"rc": 0, "sha256": digest}
        assert (rc, digest) == (want["rc"], want["sha256"]), cmd
    # the Kani rule has one name and one home, and the reference borrows
    # nothing from a route: it imports no name of classify, fforacle or cli
    assert not hasattr(classify, "rigidity_closed_form")
    assert not hasattr(galois2, "rigidity_closed_form")
    assert not hasattr(galois2, "kani_admissible")
    borrowed = {getattr(obj, "__module__", None) for obj in vars(galois2).values()}
    assert not borrowed & {"lambda2.classify", "lambda2.fforacle", "lambda2.cli"}
    # on a rigid j = 0 pair (b'/b = 5/2 a cube mod 7) the rule's negation is
    # the reference's subset test
    E1, E2 = make_curve(7, 0, 2), make_curve(7, 0, 5)
    assert galois2.all_isos_are_restrictions(E1, E2) is True
    assert classify.kani_admissible(E1, E2) is False


# reference code: the polynomial layer and the embeddings, Tonelli-Shanks
# square roots, and the object point list and base change, which the tests
# hold the production paths to.  sys.setprofile sees every Python call, and
# each is matched by the identity of its code object, which needs no
# qualified name (co_qualname is new in Python 3.11; the floor is 3.10)
REFERENCE_PROBE = """
import contextlib, io, json, sys
import lambda2.cli
from lambda2 import ecurve, ffield
reference = {}
def keep(fn, owner=""):
    code = getattr(getattr(fn, "__func__", fn), "__code__", None)
    if code is not None:
        reference[id(code)] = (code, owner + code.co_name)
for cls in (ffield.Polynomial, ffield.FieldEmbedding):
    for attr in vars(cls).values():
        keep(attr, cls.__name__ + ".")
for fn in (ffield.factor, ffield.roots, ffield.squarefree_decomposition,
           ffield._distinct_degree, ffield._equal_degree, ffield._pth_root_poly,
           ffield.embedding.__wrapped__, ffield.sqrt):
    keep(fn)
keep(ecurve.EllipticCurve.affine_points, "EllipticCurve.")
keep(ecurve.EllipticCurve.base_change, "EllipticCurve.")
ran, codes = {}, []
def profile(frame, event, arg):
    if event == "call" and id(frame.f_code) in reference:
        name = reference[id(frame.f_code)][1]
        ran[name] = ran.get(name, 0) + 1
for cmd in sys.argv[1:]:
    sys.setprofile(profile)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = lambda2.cli.main(cmd.split())
    sys.setprofile(None)
    codes.append(rc)
print(json.dumps({"watched": len(reference), "ran": ran, "rc": codes}))
"""


def test_cli_runs_no_reference_code(tmp_path):
    # the boundary commands, in a fresh interpreter so that no field or
    # inventory is cached, call no reference code at all
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
        LAMBDA2_CACHE_DIR=str(tmp_path),
    )
    done = subprocess.run(
        [sys.executable, "-c", REFERENCE_PROBE, *BOUNDARY_COMMANDS],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    # 23 methods of Polynomial, 3 of FieldEmbedding, 8 functions, 2 of the curve
    assert got["watched"] == 36
    assert got["rc"] == [0] * len(BOUNDARY_COMMANDS)
    assert got["ran"] == {}


def test_cache_written_and_hit_is_byte_identical(tmp_path, capsys):
    args = ("table", "--q", "5", "--format", "json", "--cache-dir", str(tmp_path))
    _, first, _ = run(capsys, *args)
    cache_file = _cache_file(tmp_path, 5)
    assert cache_file.exists()
    entry = json.loads(cache_file.read_text())
    assert entry["schema"] == cli.CACHE_SCHEMA and entry["q"] == 5 and "hash" in entry
    _, second, _ = run(capsys, *args)
    assert first == second


def test_cache_tampering_triggers_rebuild(tmp_path, capsys):
    args = ("table", "--q", "5", "--cache-dir", str(tmp_path))
    _, first, _ = run(capsys, *args)
    cache_file = _cache_file(tmp_path, 5)
    entry = json.loads(cache_file.read_text())
    entry["curves"][0]["a_q"] = 99
    cache_file.write_text(json.dumps(entry))
    _, healed, _ = run(capsys, *args)
    assert healed == first
    assert json.loads(cache_file.read_text())["curves"][0]["a_q"] != 99
    cache_file.write_text("not json at all")
    _, healed, _ = run(capsys, *args)
    assert healed == first


@pytest.mark.parametrize(
    "damage",
    [
        lambda path: path.write_text("[]"),
        lambda path: path.write_text('"x"'),
        lambda path: path.write_text(json.dumps({"schema": cli.CACHE_SCHEMA, "q": 5})),
        lambda path: _plant(
            path, lambda curves: [{k: v for k, v in curves[0].items() if k != "j"}] + curves[1:]
        ),
        lambda path: _plant(path, lambda curves: ["row"] + curves[1:]),
    ],
    ids=["list", "string", "no-curves", "row-without-a-key", "row-of-text"],
)
def test_cache_entry_of_wrong_shape_is_rebuilt(damage, tmp_path, capsys):
    # valid JSON that is not a cache entry, or whose rows are not keyed by
    # table's columns, is damage like any other, even with its hash
    # recomputed: table and verify rebuild it silently and print what a
    # fresh build prints
    for command in ("table", "verify"):
        cache = tmp_path / command
        fresh = run(capsys, command, "--q", "5", "--cache-dir", str(cache))
        assert fresh[0] == 0
        damage(_cache_file(cache, 5))
        assert run(capsys, command, "--q", "5", "--cache-dir", str(cache)) == fresh


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LAMBDA2_CACHE_DIR", str(tmp_path / "envcache"))
    code, _, _ = run(capsys, "table", "--q", "5")
    assert code == 0
    assert _cache_file(tmp_path / "envcache", 5).exists()


def test_argparse_rejects_unknown(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["table", "--q", "5", "--format", "yaml"])
    assert info.value.code == 2
    with pytest.raises(SystemExit):
        cli.main(["no-such-command"])
    capsys.readouterr()


def test_lambda_takes_no_cache_dir(tmp_path, capsys):
    # lambda never caches, so the flag is refused rather than ignored
    cache = tmp_path / "unused"
    with pytest.raises(SystemExit) as info:
        cli.main(["lambda", "--q", "5", "--a", "1", "--b", "1", "--cache-dir", str(cache)])
    assert info.value.code == 2
    assert "--cache-dir" in capsys.readouterr().err
    assert not cache.exists()


def test_main_module_entry():
    assert os.system("python3 -m lambda2.cli admissible --q 7 >/dev/null") == 0


# top-level modules `import lambda2.cli` may add to a bare interpreter; the
# import is the start-up cost of every command, so a new entry is a reviewed
# change.  Private accelerator modules (leading underscore) follow the public
# ones and vary between Python versions, so they are not compared.
IMPORTED_MODULES = frozenset({
    "__future__", "argparse", "array", "bisect", "bz2", "collections", "copyreg", "csv",
    "enum", "errno", "fnmatch", "functools", "genericpath", "gettext", "hashlib",
    "itertools", "json", "keyword", "lambda2", "lzma", "math", "operator", "os",
    "posixpath", "random", "re", "reprlib", "shutil", "stat", "tempfile", "types",
    "warnings", "weakref", "zlib",
})


def test_cli_import_adds_no_new_module():
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import lambda2.cli\n"
        "print(' '.join(sorted({n.split('.')[0] for n in sys.modules if n not in before})))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    added = {name for name in done.stdout.split() if not name.startswith("_")}
    assert "lambda2" in added
    assert added <= IMPORTED_MODULES, sorted(added - IMPORTED_MODULES)


def test_tracer_runs_verify(tmp_path):
    # perfbench/tracer.py wraps package functions by the names their callers
    # import, fforacle's squarefree_decomposition among them; a name removed
    # from the package stops the tracer before the command runs
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "trace.json"
    env = dict(
        os.environ, PYTHONPATH=str(root / "src"), LAMBDA2_CACHE_DIR=str(tmp_path / "cache")
    )
    tracer = root / "perfbench" / "tracer.py"
    done = subprocess.run(
        [sys.executable, str(tracer), str(out), "--", "verify", "--q", "5"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    trace = json.loads(out.read_text())
    assert trace["spans"]
    # the wrapped names are still the ones the routes call: a Kani rule or a
    # branch test the tracer no longer reaches would read 0 here
    assert trace["counts"].get("galois2.kani_checks", 0) > 0
    assert trace["counts"].get("fforacle.covers", 0) > 0
