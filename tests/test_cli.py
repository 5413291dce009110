import json
import os
import subprocess
import sys

import pytest

import abmc
from abmc import cli
from abmc.modules import trivial_module
from abmc.presets import algebra_zc2
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
