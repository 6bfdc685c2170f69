import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lambda2 import cli, galois2
from lambda2.classify import ADMISSIBLE_MAX_Q, admissible_traces, lambda_exact
from lambda2.ecurve import INVENTORY_CAP, XLINE_MAX_Q, FieldTooLarge, curve_inventory
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


def test_kani_answers_build_no_module(tmp_path, capsys, monkeypatch):
    # the closed form decides every Kani pair: the root-level reference
    # (modules, restrictions, factoring over extension fields) never runs
    def refuse(*args):
        raise AssertionError("a production route reached the root-level reference")

    for name in ("two_torsion_module", "geometric_restrictions", "factor"):
        monkeypatch.setattr(galois2, name, refuse)
    monkeypatch.setenv("LAMBDA2_CACHE_DIR", str(tmp_path))
    for pool, cmd in (
        ("cold49", "table --q 49"),
        ("kani49", "lambda --q 49 --a 0,0 --b 3,0 --mode kani"),
    ):
        want = _frozen(pool)[cmd]
        assert _replay(capsys, cmd) == (want["rc"], want["sha256"]), cmd


def test_cache_written_and_hit_is_byte_identical(tmp_path, capsys):
    args = ("table", "--q", "5", "--format", "json", "--cache-dir", str(tmp_path))
    _, first, _ = run(capsys, *args)
    cache_file = tmp_path / "q5.v1.json"
    assert cache_file.exists()
    entry = json.loads(cache_file.read_text())
    assert entry["schema"] == 1 and entry["q"] == 5 and "hash" in entry
    _, second, _ = run(capsys, *args)
    assert first == second


def test_cache_tampering_triggers_rebuild(tmp_path, capsys):
    args = ("table", "--q", "5", "--cache-dir", str(tmp_path))
    _, first, _ = run(capsys, *args)
    cache_file = tmp_path / "q5.v1.json"
    entry = json.loads(cache_file.read_text())
    entry["curves"][0]["a_q"] = 99
    cache_file.write_text(json.dumps(entry))
    _, healed, _ = run(capsys, *args)
    assert healed == first
    assert json.loads(cache_file.read_text())["curves"][0]["a_q"] != 99
    cache_file.write_text("not json at all")
    _, healed, _ = run(capsys, *args)
    assert healed == first


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LAMBDA2_CACHE_DIR", str(tmp_path / "envcache"))
    code, _, _ = run(capsys, "table", "--q", "5")
    assert code == 0
    assert (tmp_path / "envcache" / "q5.v1.json").exists()


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
    "__future__", "argparse", "bisect", "bz2", "collections", "copyreg", "csv",
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
    assert json.loads(out.read_text())["spans"]
