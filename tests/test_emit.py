"""The column writers of results.jsonl, results.csv, bounds.csv and the stdout
table against the per-row writers (json.dumps, csv.DictWriter, print), byte
for byte."""

import json
import math
import shutil
from dataclasses import replace

import numpy as np
import pytest

import oracles
from helpers import assert_same_text
from vortexmem import cli

JOB_SCENARIOS = ("store_tomography", "fidelity_vs_time", "fidelity_vs_rotation")

CASES = {
    **{f"{s}-sampled": {"scenario": s} for s in JOB_SCENARIOS},
    **{f"{s}-exact": {"scenario": s, "trials_per_projection": 0} for s in JOB_SCENARIOS},
    "int_storage_time": {"scenario": "store_tomography", "storage_times": [1]},
    "mixed_storage_times": {"scenario": "fidelity_vs_time", "storage_times": [0, 1.5, 2, 10**20]},
    "no_background": {"scenario": "store_tomography", "memory": {"bg_click": 0.0}},
    "nothing_retrieved": {"scenario": "store_tomography", "storage_times": [200.0]},
    "leaky_rails": {"scenario": "fidelity_vs_time",
                    "memory": {"rail_imbalance": 0.05, "rail_phase_error": 0.05}},
    "negative_angles": {"scenario": "fidelity_vs_rotation", "rotation_angles": [-0.0, -0.5, 2.0]},
    "sweep_600_angles": {"scenario": "fidelity_vs_rotation", "seed": 2024,
                         "rotation_angles": [math.radians(i / 10) for i in range(600)]},
    "bounds_table": {"scenario": "bounds_table"},
    "bounds_int_values": {"scenario": "bounds_table", "source": {"nbar": 2},
                          "memory": {"eta0": 1}},
}


def _run_main(main, config, out):
    code = main(["--config", str(config), "--out", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    shutil.rmtree(out)
    return code, files


@pytest.mark.parametrize("payload", CASES.values(), ids=CASES.keys())
def test_main_matches_per_row_writers(tmp_path, monkeypatch, capsys, payload):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(payload))
    want_code, want = _run_main(oracles.main, "config.json", tmp_path / "out")
    want["stdout"] = capsys.readouterr().out.encode()
    got_code, got = _run_main(cli.main, "config.json", tmp_path / "out")
    got["stdout"] = capsys.readouterr().out.encode()
    assert got_code == want_code == 0
    assert_same_text(got, want)


def test_edge_values_match_per_row_writers(tmp_path):
    """-0.0, NaN and infinities in every float column the writers format."""
    cfg = replace(cli.default_config("store_tomography"), storage_times=(1.0,))
    report = cli.run(cfg)
    table = report.table
    odd = np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300])
    n = len(table.states)
    stokes = table.stokes.copy()
    stokes[:, 1] = -0.0
    stokes[:, 2] = odd[:n]
    rho_raw = table.rho_raw.copy()
    rho_raw.real[:, 0, 1] = odd[:n]
    rho_raw.imag[:, 0, 1] = odd[::-1][:n]
    report.table = replace(
        table, stokes=stokes, rho_raw=rho_raw, angle_deg=odd[:n], f_raw=odd[::-1][:n].copy(),
        snr=np.full_like(table.snr, math.inf), bound_efficiency=np.full_like(table.snr, math.nan))
    got = {p.name: p.read_bytes() for p in cli.emit(report, tmp_path / "cli")}
    want = {p.name: p.read_bytes() for p in oracles.emit(report, tmp_path / "oracle")}
    got["stdout"] = cli._summary(report.table).encode()
    want["stdout"] = oracles.summary(report.rows).encode()
    assert_same_text(got, want)
    assert b"Infinity" in got["results.jsonl"] and b"nan" in got["results.csv"]
