"""scripts/paper_averages.py on the results.jsonl of a CLI run."""

import json
import math
import re
import runpy
from pathlib import Path

import pytest

from vortexmem import cli

averages = runpy.run_path(
    str(Path(__file__).resolve().parent.parent / "scripts" / "paper_averages.py"))["main"]


def _averages(tmp_path, capsys, payload) -> list[str]:
    """The lines the reader prints for the results.jsonl of cli.main on payload."""
    (tmp_path / "config.json").write_text(json.dumps(payload))
    assert cli.main(["--config", str(tmp_path / "config.json"), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert averages([str(tmp_path / "results.jsonl")]) == 0
    return capsys.readouterr().out.splitlines()


# a heading and one line per point; one trial per projection leaves most basis
# pairs empty: those rows have no raw fidelity, and a point whose rows all lack
# one prints none
@pytest.mark.parametrize("trials", [0, 1])
@pytest.mark.parametrize("axis", [
    {"scenario": "fidelity_vs_rotation", "rotation_angles": [0, math.pi / 4]},
    {"scenario": "fidelity_vs_time", "storage_times": [0, 1, 0.0]},   # 0.0 repeats 0
], ids=["rotation", "time"])
def test_one_line_per_point(tmp_path, capsys, axis, trials):
    assert len(_averages(tmp_path, capsys, {**axis, "trials_per_projection": trials})) == 3


def test_time_averages_in_exact_mode(tmp_path, capsys):
    """Nothing is retrieved after 200 us: the corrected average is none."""
    assert _averages(tmp_path, capsys, {"scenario": "fidelity_vs_time", "storage_times": [1, 200],
                                        "trials_per_projection": 0}) == [
        "averages over the input states per storage time:",
        "  t=  1.0 us  raw=0.9690  corrected=1.0000  classical bound=0.7495  secure=yes",
        "  t=200.0 us  raw=0.5000  corrected=none  classical bound=0.9277  secure=no",
    ]


def test_other_files_are_refused(tmp_path, capsys):
    assert cli.main(["--scenario", "store_tomography", "--out", str(tmp_path)]) == 0
    (tmp_path / "empty.jsonl").write_text("")
    for path in (str(tmp_path / "results.jsonl"), str(tmp_path / "empty.jsonl")):
        with pytest.raises(SystemExit, match=re.escape(path)):
            averages([path])
