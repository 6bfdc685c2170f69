import hashlib
import json
import os
import shutil
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


def test_table_csv_golden_rows(capsys):
    code, out, _ = run(capsys, "table", "--q", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a,b,j,a_q,two_torsion,supersingular,aut_count,lambda_traces"
    assert len(lines) == 13
    assert "1,0,3,2,Full,false,4,-2;2" in lines
    assert "0,1,0,0,C2,true,2,-4;-2;0;2;4" in lines


def test_table_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "table", "--q", "7", "--format", "json"
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


def test_verify_three_way(capsys):
    code, out, _ = run(capsys, "verify", "--q", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "12 classes, 3 modes, all agree"
    assert sum(1 for line in lines if ": ok" in line) == 12


def test_verify_two_way_skips_oracle(capsys):
    code, out, _ = run(capsys, "verify", "--q", "25")
    assert code == 0
    assert out.splitlines()[-1] == (
        "56 classes, formula/kani agree (oracle skipped: non-prime q)"
    )


def _cache_file(cache_dir, q):
    return cache_dir / f"q{q}.json"


def _plant(cache_file, q, edit):
    # rewrite q's cache entry and re-hash it, so table serves the edit
    entry = json.loads(cache_file.read_text())
    entry["curves"] = edit(entry["curves"])
    entry["hash"] = cli._entry_hash(q, entry["curves"])
    cache_file.write_text(json.dumps(entry))


def test_verify_reads_and_writes_no_cache(tmp_path, capsys, monkeypatch):
    # a cold verify creates nothing
    cold = tmp_path / "cold"
    monkeypatch.setenv("LAMBDA2_CACHE_DIR", str(cold))
    code, out, err = run(capsys, "verify", "--q", "7")
    assert (code, err) == (0, ""), out
    assert out.splitlines()[-1] == "18 classes, 3 modes, all agree"
    assert not cold.exists()

    # a wrong but re-hashed entry: table serves it, and verify prints what it
    # prints on an empty directory and leaves the entry as it is
    def edit(curves):
        row = next(r for r in curves if (r["a"], r["b"]) == ("0,0", "1,0"))
        assert 2 in row["lambda_traces"]
        row["lambda_traces"] = [t for t in row["lambda_traces"] if abs(t) != 2]
        return curves

    empty = run(capsys, "verify", "--q", "25")
    assert empty[0] == 0
    planted = tmp_path / "planted"
    monkeypatch.setenv("LAMBDA2_CACHE_DIR", str(planted))
    table = run(capsys, "table", "--q", "25")
    _plant(_cache_file(planted, 25), 25, edit)
    assert run(capsys, "table", "--q", "25")[1] != table[1]
    entry = _cache_file(planted, 25).read_bytes()
    assert run(capsys, "verify", "--q", "25") == empty
    assert _cache_file(planted, 25).read_bytes() == entry


@pytest.mark.parametrize("damage", [None, "not json at all"], ids=["cold", "damaged"])
def test_verify_builds_each_row_once(damage, tmp_path, capsys, monkeypatch):
    # with no usable entry verify builds each class's Kani set once, builds
    # no table row, and leaves the cache as it found it
    if damage is not None:
        assert run(capsys, "table", "--q", "7")[0] == 0
        _cache_file(tmp_path, 7).write_text(damage)
    built = []
    exact = cli.lambda_exact
    monkeypatch.setattr(cli, "lambda_exact", lambda curve: built.append(curve) or exact(curve))
    monkeypatch.setattr(cli, "_row", lambda curve: pytest.fail("verify built a table row"))
    code, out, err = run(capsys, "verify", "--q", "7")
    assert (code, err) == (0, ""), out
    assert out.splitlines()[-1] == "18 classes, 3 modes, all agree"
    assert built == list(curve_inventory(field_of_order(7)))
    if damage is None:
        assert not _cache_file(tmp_path, 7).exists()
    else:
        assert _cache_file(tmp_path, 7).read_text() == damage


def test_table_rebuilds_an_entry_that_other_code_wrote(tmp_path):
    # the entry of a table run is bound to the sources that built it: once a
    # route is edited, a warm table prints what a cold one of the edited
    # code prints
    src = tmp_path / "src"
    shutil.copytree(
        Path(__file__).resolve().parents[1] / "src", src,
        ignore=shutil.ignore_patterns("__pycache__"),
    )

    def table(cache):
        env = dict(
            os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
            LAMBDA2_CACHE_DIR=str(tmp_path / cache),
        )
        done = subprocess.run(
            [sys.executable, "-m", "lambda2.cli", "table", "--q", "7"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    before = table("warm")
    # the edit drops +-2 from every Kani set
    classify_py = src / "lambda2" / "classify.py"
    text = classify_py.read_text()
    kani = 'return LambdaSet(curve, 2, traces, "kani")'
    assert text.count(kani) == 1
    classify_py.write_text(
        text.replace(kani, 'return LambdaSet(curve, 2, [t for t in traces if abs(t) != 2], "kani")')
    )
    edited = table("cold")
    assert edited != before
    assert table("warm") == edited


def test_empty_cache_env_var_is_unset(tmp_path, capsys, monkeypatch):
    # an empty variable counts as unset: the default directory is used
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("LAMBDA2_CACHE_DIR", "")
    code, _, err = run(capsys, "table", "--q", "5")
    assert code == 0, err
    assert _cache_file(tmp_path / "cache", 5).exists()


@pytest.mark.parametrize(
    "command, cache_dir",
    [("table", "{file}"), ("verify", "/dev/null/x")],
    ids=["table-file", "verify-dev-null"],
)
def test_unusable_cache_dir_is_invalid_input(command, cache_dir, tmp_path, capsys,
                                             monkeypatch):
    # exit 1 means a verify mismatch; a cache that cannot be written is bad
    # input of table's, reported on one line; verify touches no cache, so
    # the directory is no input of its own and it runs as usual
    plain = tmp_path / "plain-file"
    plain.write_text("")
    monkeypatch.setenv("LAMBDA2_CACHE_DIR", cache_dir.format(file=plain))
    code, out, err = run(capsys, command, "--q", "5")
    if command == "verify":
        assert (code, err) == (0, ""), out
        assert out.splitlines()[-1] == "12 classes, 3 modes, all agree"
        return
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
def test_large_field_tables_keep_their_digests(q, capsys):
    code, out, _ = run(capsys, "table", "--q", str(q), "--format", "json")
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


def test_verify_rejects_bad_field(capsys):
    code, _, err = run(capsys, "verify", "--q", "9")
    assert code == 2
    code, _, err = run(capsys, "verify", "--q", "12")
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
    args = ("table", "--q", "5", "--format", "json")
    _, first, _ = run(capsys, *args)
    cache_file = _cache_file(tmp_path, 5)
    assert cache_file.exists()
    entry = json.loads(cache_file.read_text())
    assert entry.keys() == {"curves", "hash"}
    assert entry["hash"] == cli._entry_hash(5, entry["curves"])
    _, second, _ = run(capsys, *args)
    assert first == second
    assert not list(tmp_path.glob("*.tmp"))


def test_cache_tampering_triggers_rebuild(tmp_path, capsys):
    args = ("table", "--q", "5")
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
        lambda path: path.write_text(json.dumps({"hash": cli._entry_hash(5, None)})),
        lambda path: _plant(
            path, 5,
            lambda curves: [{k: v for k, v in curves[0].items() if k != "j"}] + curves[1:],
        ),
        lambda path: _plant(path, 5, lambda curves: ["row"] + curves[1:]),
    ],
    ids=["list", "string", "no-curves", "row-without-a-key", "row-of-text"],
)
def test_cache_entry_of_wrong_shape_is_rebuilt(damage, tmp_path, capsys):
    # valid JSON that is not a cache entry, or whose rows are not keyed by
    # table's columns, is damage like any other, even with its hash
    # recomputed: table rebuilds it silently and prints what a fresh build
    # prints
    fresh = run(capsys, "table", "--q", "5")
    assert fresh[0] == 0
    damage(_cache_file(tmp_path, 5))
    assert run(capsys, "table", "--q", "5") == fresh


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


@pytest.mark.parametrize(
    "argv",
    [("table", "--q", "5"), ("verify", "--q", "5"),
     ("lambda", "--q", "5", "--a", "1", "--b", "1")],
    ids=["table", "verify", "lambda"],
)
def test_no_command_takes_a_cache_dir(argv, tmp_path, capsys):
    # LAMBDA2_CACHE_DIR is the only cache setting, so the flag is refused
    # rather than ignored, before anything is built or written
    cache = tmp_path / "unused"
    with pytest.raises(SystemExit) as info:
        cli.main([*argv, "--cache-dir", str(cache)])
    assert info.value.code == 2
    assert "--cache-dir" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_main_module_entry():
    assert os.system("python3 -m lambda2.cli admissible --q 7 >/dev/null") == 0


# top-level modules `import lambda2.cli` may add to a bare interpreter; the
# import is the start-up cost of every command, so a new entry is a reviewed
# change.  Private accelerator modules (leading underscore) follow the public
# ones and vary between Python versions, so they are not compared.  The
# cache's hashlib and tempfile (with shutil and the compressors it loads) are
# imported where table uses the cache, so no other command pays for them.
IMPORTED_MODULES = frozenset({
    "__future__", "argparse", "array", "bisect", "collections", "copyreg", "csv", "enum",
    "functools", "genericpath", "gettext", "itertools", "json", "keyword", "lambda2",
    "math", "operator", "os", "posixpath", "random", "re", "reprlib", "stat", "types",
    "warnings",
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
    assert not added & {"hashlib", "tempfile"}, sorted(added & {"hashlib", "tempfile"})
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
