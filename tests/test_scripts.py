"""Smoke runs of the experiment scripts: exit 0 and the expected files."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.mark.parametrize("name, args", [
    ("run_rotation_scan", ["--angles", "0", "45"]),
    ("run_storage_experiment", ["--times", "0", "1"]),
    # nothing is retrieved after 200 us: the corrected average prints none
    ("run_storage_experiment", ["--times", "1", "200"]),
    # one trial per projection leaves most basis pairs empty: those rows have
    # no raw fidelity, and a point whose rows all lack one prints none
    ("run_rotation_scan", ["--angles", "0", "45", "--trials", "1"]),
    ("run_storage_experiment", ["--times", "0", "1", "--trials", "1"]),
])
def test_script_writes_results(tmp_path, capsys, name, args):
    out = tmp_path / "out"
    assert _main(name)(["--trials", "0", "--out", str(out), *args]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["results.csv", "results.jsonl"]
    assert len(capsys.readouterr().out.splitlines()) == 4   # blank, heading, one line per point
