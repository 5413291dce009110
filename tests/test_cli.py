import json
import os
import subprocess
import sys

import pytest

import abmc
from abmc import cli
from abmc.modules import trivial_module
from abmc.presets import algebra_f2c2, algebra_zc2
from abmc.serialize import algebra_to_json, module_to_json

SRC = os.path.dirname(os.path.dirname(os.path.abspath(abmc.__file__)))


def _ext_spec(tmp_path, degree):
    alg = algebra_zc2()
    k = module_to_json(trivial_module(alg))
    spec = {
        "format": 1,
        "command": "ext",
        "algebra": algebra_to_json(alg),
        "arguments": {"m": k, "n": k, "degree": degree},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.mark.parametrize("degree", ["x", True, 0, -1, 1.0, cli.MAX_EXT_DEGREE + 1, 100000])
def test_ext_degree_rejected(tmp_path, capsys, degree):
    code = cli.main(["ext", _ext_spec(tmp_path, degree), "--json"])
    err = capsys.readouterr().err
    assert code == 2
    assert "/arguments/degree" in err
    assert "Traceback" not in err


def test_ext_degree_at_cap(tmp_path, capsys):
    code = cli.main(["ext", _ext_spec(tmp_path, cli.MAX_EXT_DEGREE), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    # Ext^even(Z, Z) over Z[C2] is Z/2 (group cohomology of C2)
    assert payload["verdicts"][0]["detail"]["invariants"] == [2]


def test_ext_degree_subprocess_has_no_traceback(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "abmc.cli", "ext", _ext_spec(tmp_path, "x"), "--json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "/arguments/degree" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("message", ["boom", "first line\nsecond line"])
def test_internal_error_exits_3_with_one_line(monkeypatch, capsys, message):
    def broken(spec, report):
        raise RuntimeError(message)

    monkeypatch.setattr(cli, "run_command", broken)
    assert cli.main(["hom"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err == f"internal error: RuntimeError: {' '.join(message.splitlines())}\n"
    assert "Traceback" not in captured.err


def _write_spec(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def _bad_seed_argv(tmp_path, seed):
    return ["stable-hom", _write_spec(tmp_path, {"seed": seed}), "--preset", "qf-f2c2", "--json"]


def _bad_bounds_argv(tmp_path, bounds):
    spec = {"command": "catalog", "algebra": algebra_to_json(algebra_zc2()), "bounds": bounds}
    return ["catalog", _write_spec(tmp_path, spec), "--json"]


BAD_TOP_LEVEL = (
    [(_bad_seed_argv, "/seed", v) for v in ("x", True, -1, 1.5)]
    + [(_bad_bounds_argv, "/bounds", v) for v in ("x", True, 0, 2.0)]
)


@pytest.mark.parametrize("argv,pointer,value", BAD_TOP_LEVEL)
def test_seed_and_bounds_rejected(tmp_path, capsys, argv, pointer, value):
    code = cli.main(argv(tmp_path, value))
    err = capsys.readouterr().err
    assert code == 2
    assert pointer in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,pointer", [(_bad_seed_argv, "/seed"), (_bad_bounds_argv, "/bounds")])
def test_seed_and_bounds_subprocess_have_no_traceback(tmp_path, argv, pointer):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "abmc.cli", *argv(tmp_path, "x")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert pointer in proc.stderr
    assert "Traceback" not in proc.stderr


def _preset_arguments_argv(tmp_path, command, preset, arguments):
    return [command, _write_spec(tmp_path, {"arguments": arguments}), "--preset", preset, "--json"]


BAD_ARGUMENTS = (
    [("gorenstein", "gorenstein-zc2", "examples", v) for v in ("x", True, 0, -1, 2.0, 1001)]
    + [("gillespie-verify", "gillespie-proj-f2c2", "max_dim", v) for v in ("x", False, 0, 1.5, cli.max_dim_cap() + 1)]
    + [("gillespie-verify", "gillespie-proj-f2c2", "max_length", v) for v in ("x", True, 0, -3, 9)]
    + [("factorize", "qf-f2c2", "mode", v) for v in ("bogus", 1, ["cof_then_acyclic_fib"])]
)


@pytest.mark.parametrize("command,preset,name,value", BAD_ARGUMENTS)
def test_command_arguments_rejected(tmp_path, capsys, command, preset, name, value):
    code = cli.main(_preset_arguments_argv(tmp_path, command, preset, {name: value}))
    err = capsys.readouterr().err
    assert code == 2
    assert f"/arguments/{name}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("arguments", ["x", ["examples"], 3])
def test_non_object_arguments_rejected(tmp_path, capsys, arguments):
    code = cli.main(_preset_arguments_argv(tmp_path, "gorenstein", "gorenstein-zc2", arguments))
    err = capsys.readouterr().err
    assert code == 2
    assert "/arguments" in err
    assert "Traceback" not in err


def test_command_arguments_subprocess_have_no_traceback(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = _preset_arguments_argv(tmp_path, "gorenstein", "gorenstein-zc2", {"examples": "x"})
    proc = subprocess.run(
        [sys.executable, "-m", "abmc.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "/arguments/examples" in proc.stderr
    assert "Traceback" not in proc.stderr


UNREAD_ARGUMENTS = [
    ("check-pair", "qf-f2c2", "catalog_max_dim", "x"),
    ("gorenstein", "gorenstein-zc2", "d", "x"),
    ("check-pair", "purity-z", "purity_bound", 0),
]


@pytest.mark.parametrize("command,preset,name,value", UNREAD_ARGUMENTS)
def test_unread_arguments_rejected(tmp_path, capsys, command, preset, name, value):
    code = cli.main(_preset_arguments_argv(tmp_path, command, preset, {name: value}))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"/arguments/{name}" in captured.err
    assert "Traceback" not in captured.err


def test_catalog_bounds_accepted(tmp_path, capsys):
    spec = {"command": "catalog", "algebra": algebra_to_json(algebra_zc2()), "bounds": 1}
    code = cli.main(["catalog", _write_spec(tmp_path, spec), "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["bounds"] == 1


def _non_commuting_lift_argv(tmp_path):
    k = module_to_json(trivial_module(algebra_f2c2()))

    def mor(entry):
        return {"format": 1, "kind": "morphism", "src": k, "dst": k, "matrix": [entry]}

    arguments = {"i": mor(1), "p": mor(1), "top": mor(1), "bottom": mor(0)}
    return _preset_arguments_argv(tmp_path, "lift", "qf-f2c2", arguments)


def test_non_commuting_lift_square_rejected(tmp_path, capsys):
    code = cli.main(_non_commuting_lift_argv(tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert err.strip() == "computation rejected the input: lifting square does not commute"


def test_non_commuting_lift_square_subprocess_has_no_traceback(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "abmc.cli", *_non_commuting_lift_argv(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "lifting square does not commute" in proc.stderr
    assert "Traceback" not in proc.stderr


PRESET_HASHES = {
    ("check-pair", "qf-f2c2"): "a8e2561d2f8af0abc49179eaae49974dc33f4c50c8c93072a35cfb71b5a7701e",
    ("check-pair", "purity-z"): "4da7be8f6465c87d155da002c9585fc4f7f7fa26c6cc1f810cce76e1a6b76976",
    ("gillespie-verify", "gillespie-proj-f2c2"): "6426179e600aec34b4d447b0572ea5fe30dd01fc82252c480cfd6773cb270753",
    ("gorenstein", "gorenstein-zc2"): "da623ab80263ac3dadeacebb59ba36630e745a6b9ded398e3b399a0527c7d4f6",
}


@pytest.mark.parametrize("hashseed", ["1", "2"])
@pytest.mark.parametrize("command,preset", sorted(PRESET_HASHES))
def test_preset_hash_across_hash_seeds(command, preset, hashseed):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hashseed)
    proc = subprocess.run(
        [sys.executable, "-m", "abmc.cli", command, "--preset", preset, "--seed", "0", "--json"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["report_hash"] == PRESET_HASHES[(command, preset)]
