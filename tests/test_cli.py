import csv
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from vortexmem import cli, hilbert, photodetection, pipeline, text, tomography
from vortexmem.cli import load_config
from vortexmem.config import (
    ConfigError,
    ExperimentConfig,
    SCENARIOS,
    config_from_dict,
    config_to_dict,
    default_config,
)
from vortexmem.security import BenchmarkInput, classical_bound_with_efficiency
from vortexmem.text import CSV_COLUMNS

NOISELESS_ROTATION = {
    "scenario": "fidelity_vs_rotation",
    "memory": {"eta0": 1.0, "bg_click": 0.0},
    "trials_per_projection": 0,
    "rotation_angles": [math.radians(d) for d in (0, 10, 20, 30, 40, 45, 50, 60)],
    "encode_with_qplate": False,
    "input_states": ["zero", "one", "radial", "azimuthal", "plus_i", "minus_i",
                     "H", "V", "D", "A", "R", "L"],
}


def _write_config(tmp_path: Path, payload: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def _rows_by(report, **match):
    out = []
    for row in report.table.rows():
        if all(row[k] == v for k, v in match.items()):
            out.append(row)
    return out


class TestConfig:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_presets_validate(self, scenario):
        default_config(scenario)   # an ExperimentConfig checks itself when built

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_dict_round_trip(self, scenario):
        cfg = default_config(scenario)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"scenario": "bounds_table", "typo_field": 1})

    def test_unknown_subfield_rejected(self):
        with pytest.raises(ConfigError, match="memory"):
            config_from_dict({"scenario": "bounds_table", "memory": {"eta_zero": 0.2}})

    def test_unknown_state_rejected(self):
        with pytest.raises(ConfigError, match="input_states"):
            config_from_dict({"scenario": "store_tomography", "input_states": ["diag"]})

    def test_bad_scenario_rejected(self):
        with pytest.raises(ConfigError, match="scenario"):
            config_from_dict({"scenario": "store_everything"})

    def test_field_maps_requires_hybrid_states(self):
        with pytest.raises(ConfigError):
            config_from_dict({"scenario": "field_maps", "input_states": ["H"],
                              "trials_per_projection": 0})

    def test_replace_checks_the_new_config(self):
        with pytest.raises(ConfigError, match="storage_times"):
            replace(default_config("store_tomography"), storage_times=(1.0, 2.0))

    def test_propagate_refuses_an_unknown_state(self):
        with pytest.raises(ConfigError, match="input_states: unknown state 'X'"):
            pipeline.propagate("X", default_config("store_tomography"), 1.0, 0.0)

    def test_load_config_merges_file_over_preset(self, tmp_path):
        path = _write_config(tmp_path, {"scenario": "store_tomography", "seed": 777})
        cfg = load_config(path, None, None)
        assert cfg.seed == 777
        assert cfg.memory.bg_click == default_config("store_tomography").memory.bg_click

    def test_seed_flag_wins(self, tmp_path):
        path = _write_config(tmp_path, {"scenario": "store_tomography", "seed": 777})
        assert load_config(path, None, 3).seed == 3


# the fields of a job without a raw estimate that are null
_ESTIMATE_KEYS = ("fidelity_raw", "rho_raw", "stokes_raw", "pass_shor_preskill",
                  "fidelity_corrected", "rho_corrected")


class TestMainExitCodes:
    def test_success(self, tmp_path):
        rc = cli.main(["--scenario", "bounds_table", "--out", str(tmp_path / "o")])
        assert rc == 0

    @pytest.mark.parametrize("payload", [
        {"scenario": "nope"},
        {"scenario": "store_tomography", "seed": 1.5},
        {"scenario": "store_tomography", "trials_per_projection": 1000.5},
        {"scenario": "store_tomography", "qplate": {"alpha0": math.nan}},
        {"scenario": "store_tomography", "source": {"nbar": math.nan}},
        {"scenario": "store_tomography", "qplate": {"q": 1.5}},
        {"scenario": "store_tomography", "qplate": {"q": 0}},
        {"scenario": "fidelity_vs_rotation", "encode_with_qplate": True, "qplate": {"q": -0.5},
         "trials_per_projection": 0},
        {"scenario": "store_tomography", "encode_with_qplate": "yes"},
        {"scenario": "store_tomography", "source": {"nbar": 800}},
        {"scenario": "bounds_table", "source": {"nbar": 800}},
        {"scenario": "store_tomography", "trials_per_projection": 10**20},
        {"scenario": "store_tomography", "qplate": {"alpha0": 1e308}},
        {"scenario": "fidelity_vs_rotation", "rotation_angles": [1.7e308]},
        {"scenario": "bounds_table", "source": {"nbar": 0}},
        {"scenario": "bounds_table", "memory": {"eta0": 0}},
        {"scenario": "store_tomography", "qplate": {"q": 1e308}},
        {"scenario": "store_tomography", "storage_times": [10**400]},
        {"scenario": "store_tomography", "storage_times": [1e200]},
        {"scenario": "store_tomography", "input_states": ["radial", "H", "radial"]},
        {"scenario": "field_maps", "input_states": ["radial", "radial"]},
        {"scenario": "store_tomography", "storage_times": [1.0, 5.0]},
        {"scenario": "store_tomography", "rotation_angles": [0.0, 0.3]},
        {"scenario": "store_tomography", "memory": {"rail_imbalance": 3}},
    ], ids=["unknown_scenario", "fractional_seed", "fractional_trials", "nan_alpha0", "nan_nbar",
            "charge_1_5", "charge_0", "charge_minus_half", "string_encode_flag", "nbar_past_series",
            "bounds_nbar_past_series", "huge_trials", "huge_alpha0", "angle_overflows_degrees",
            "bounds_zero_nbar", "bounds_zero_eta", "huge_charge", "huge_int_time",
            "time_overflows_envelope", "store_tomography_repeated_state",
            "field_maps_repeated_state", "store_tomography_two_times",
            "store_tomography_two_angles", "imbalance_past_2"])
    def test_config_error_is_2(self, tmp_path, payload):
        path = _write_config(tmp_path, payload)
        rc = cli.main(["--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert not (tmp_path / "o").exists()

    def test_invalid_json_is_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = cli.main(["--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_missing_config_file_is_2(self, tmp_path):
        rc = cli.main(["--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_missing_scenario_is_2(self, tmp_path):
        rc = cli.main(["--out", str(tmp_path / "o")])
        assert rc == 2

    def test_python_dash_m_runs_under_runtime_warnings_as_errors(self, tmp_path):
        """runpy warns when the module it runs was imported with its
        package, and that warning must not fire for ``python -m vortexmem.cli``."""
        src = Path(cli.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "vortexmem.cli",
             "--scenario", "bounds_table", "--out", str(tmp_path / "o")],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=120)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "o" / "bounds.csv").is_file()

    @pytest.mark.parametrize("payload, grid", [
        ({"scenario": "fidelity_vs_time", "rotation_angles": [0.3], "storage_times": [1.0],
          "input_states": ["H"]}, [("H", 1.0, 17.188733854)]),
        ({"scenario": "fidelity_vs_rotation", "rotation_angles": [0.0, 0.3],
          "storage_times": [1.0, 5.0], "input_states": ["radial"]},
         [("radial", 1.0, 0.0), ("radial", 1.0, 17.188733854), ("radial", 5.0, 0.0),
          ("radial", 5.0, 17.188733854)]),
    ], ids=["time_scan_at_an_angle", "rotation_scan_at_two_times"])
    def test_job_scenario_runs_every_listed_value(self, tmp_path, payload, grid):
        # every time and angle the config lists is a job, state -> time -> angle
        path, out = _write_config(tmp_path, payload), tmp_path / "o"
        assert cli.main(["--config", str(path), "--out", str(out)]) == 0
        rows = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
        assert [(r["state"], r["time_us"], r["angle_deg"]) for r in rows] == grid

    def test_long_storage_gives_background_rows(self, tmp_path):
        # exp(-(t/tau)^2) underflows to 0: nothing is retrieved
        path = _write_config(tmp_path, {"scenario": "store_tomography", "storage_times": [200.0]})
        out = tmp_path / "o"
        assert cli.main(["--config", str(path), "--out", str(out)]) == 0
        rows = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
        assert len(rows) == len(default_config("store_tomography").input_states)
        for row in rows:
            assert row["survival"] == 1e-12
            assert abs(row["fidelity_raw"] - 0.5) < 0.05   # unpolarized background
            assert row["fidelity_corrected"] is None and row["rho_corrected"] is None

    def test_long_storage_without_background_has_no_estimate(self, tmp_path, capsys):
        # nothing is retrieved and nothing else clicks: every basis pair is empty
        path = _write_config(tmp_path, {"scenario": "store_tomography", "storage_times": [200.0],
                                        "memory": {"bg_click": 0.0}})
        out = tmp_path / "o"
        assert cli.main(["--config", str(path), "--out", str(out)]) == 0
        rows = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
        assert len(rows) == len(default_config("store_tomography").input_states)
        for row in rows:
            assert all(row[key] is None for key in _ESTIMATE_KEYS)
        jobs = capsys.readouterr().out.splitlines()[3:]   # after three "wrote" lines
        assert len(jobs) == len(rows)
        assert all("F_raw=  none  F_corr=  none" in line and line.endswith("secure=none")
                   for line in jobs)

    def test_zero_raw_counts_null_only_their_job(self, tmp_path):
        # the 1 us job has ample counts; the 200 us job has none at all
        payload = {"scenario": "fidelity_vs_time", "memory": {"bg_click": 0.0},
                   "storage_times": [1.0, 200.0], "input_states": ["radial"]}
        outs = {}
        for times in ([1.0, 200.0], [1.0]):
            out = outs[len(times)] = tmp_path / f"o{len(times)}"
            path = _write_config(tmp_path, {**payload, "storage_times": times})
            assert cli.main(["--config", str(path), "--out", str(out), "--seed", "12345"]) == 0
            assert out.is_dir()
        (one_jsonl, one_csv), (two_jsonl, two_csv) = (
            [(outs[n] / name).read_text().splitlines() for name in ("results.jsonl", "results.csv")]
            for n in (1, 2))
        assert two_jsonl[0] == one_jsonl[0] and two_csv[:2] == one_csv
        late = json.loads(two_jsonl[1])
        assert late["time_us"] == 200.0 and late["survival"] == 1e-12
        assert all(late[key] is None for key in _ESTIMATE_KEYS)
        cells = dict(zip(CSV_COLUMNS, two_csv[2].split(",")))
        assert cells["fidelity_raw"] == cells["fidelity_corrected"] == ""
        assert cells["pass_shor_preskill"] == ""

    @pytest.mark.parametrize("payload", [
        {"scenario": "fidelity_vs_time", "storage_times": [1.0, 200.0], "input_states": ["radial"]},
        {"scenario": "fidelity_vs_rotation", "rotation_angles": [0.0, 200.0],
         "input_states": ["H"]},
    ], ids=["time_200_us", "angle_11459_deg"])
    def test_stdout_table_columns_line_up(self, tmp_path, capsys, payload):
        # 200 us is "200.00", 200 rad is "11459.2" deg: wider than the other rows' cells.
        # Every column starts at one offset; the last, the verdict, is "yes" or "no".
        path = _write_config(tmp_path, payload)
        assert cli.main(["--config", str(path), "--out", str(tmp_path / "o")]) == 0
        jobs = [line for line in capsys.readouterr().out.splitlines()
                if not line.startswith("wrote ")]
        assert len(jobs) == 2
        for label in ("angle=", "t=", "F_raw=", "F_corr=", "bound=", "secure="):
            assert len({line.index(label) for line in jobs}) == 1, label

    def test_pair_emptied_by_background_subtraction_has_no_corrected_fidelity(self, tmp_path):
        path = _write_config(tmp_path, {"scenario": "fidelity_vs_time", "storage_times": [1.0, 20.0]})
        out = tmp_path / "o"
        assert cli.main(["--config", str(path), "--out", str(out)]) == 0
        rows = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
        cfg = load_config(path, None, None)
        assert cfg.seed == 12345
        axes = oracles.axes(cfg)
        jobs = list(itertools.product(*axes))
        signal, survival, _ = pipeline._light(cfg)
        counts, bg_expected, _ = pipeline._detect(cfg, signal, survival, cfg.seed)
        net = tomography.subtract_background(counts, bg_expected)
        emptied = (net[:, 0::2] + net[:, 1::2] == 0).any(1).tolist()
        assert [row["time_us"] for row in rows] == [t for _, t, _ in jobs]
        for row, empty in zip(rows, emptied):
            assert isinstance(row["fidelity_raw"], float)
            assert (row["fidelity_corrected"] is None) == empty
            assert (row["rho_corrected"] is None) == empty
        assert any(emptied)

    def test_io_error_is_3(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        rc = cli.main(["--scenario", "bounds_table", "--out", str(blocker / "sub")])
        assert rc == 3

    def test_dump_config_round_trips(self, tmp_path, capsys):
        rc = cli.main(["--scenario", "fidelity_vs_time", "--dump-config"])
        assert rc == 0
        dumped = json.loads(capsys.readouterr().out)
        assert config_from_dict(dumped) == default_config("fidelity_vs_time")


class TestScenarios:
    def test_noiseless_rotation_curves(self):
        cfg = config_from_dict(dict(NOISELESS_ROTATION))
        report = pipeline.run(cfg)
        # hybrid states: flat at 1 (rotational invariance)
        for name in ("zero", "radial", "plus_i"):
            for row in _rows_by(report, state=name):
                assert row["fidelity_raw"] == pytest.approx(1.0, abs=1e-9)
        # linear polarization states follow the Malus law
        for row in _rows_by(report, state="H"):
            expected = math.cos(math.radians(row["angle_deg"])) ** 2
            assert row["fidelity_raw"] == pytest.approx(expected, abs=1e-9)
        # circular polarization states stay put
        for row in _rows_by(report, state="R"):
            assert row["fidelity_raw"] >= 0.999

    def test_rotation_default_runs_both_encodings(self):
        cfg = default_config("fidelity_vs_rotation")
        states = set(cfg.input_states)
        assert {"radial", "H"} <= states

    def test_store_tomography_noiseless_radial_coherence(self, tmp_path):
        cfg = config_from_dict({
            "scenario": "store_tomography",
            "memory": {"eta0": 1.0, "bg_click": 0.0},
            "trials_per_projection": 0,
        })
        rho_raw = _rows_by(pipeline.run(cfg), state="radial")[0]["rho_raw"]
        rho = np.array(rho_raw["real"]) + 1j * np.array(rho_raw["imag"])
        assert abs(rho[0, 1]) == pytest.approx(0.5, abs=1e-9)

    def test_bounds_table_values(self, tmp_path):
        out = tmp_path / "bounds"
        assert cli.main(["--scenario", "bounds_table", "--out", str(out)]) == 0
        lines = (out / "bounds.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        by_nbar = {float(r["nbar"]): r for r in rows}
        assert set(by_nbar) == {0.1, 0.5, 1.0}
        assert float(by_nbar[0.5]["bound_poisson"]) == pytest.approx(0.6878, abs=5e-4)
        assert float(by_nbar[0.5]["bound_efficiency"]) == pytest.approx(0.74779, abs=1e-4)

    def test_bounds_table_at_a_subnormal_budget(self, tmp_path):
        # eta0 * (1 - P(0)) is subnormal at every nbar: each row gets the
        # vanishing-budget limit, the bound at a tiny normal efficiency
        path = _write_config(tmp_path, {"scenario": "bounds_table", "memory": {"eta0": 1e-322}})
        out = tmp_path / "o"
        assert cli.main(["--config", str(path), "--out", str(out)]) == 0
        with (out / "bounds.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [float(row["nbar"]) for row in rows] == [0.1, 0.5, 1.0]
        for row in rows:
            want = classical_bound_with_efficiency(BenchmarkInput(float(row["nbar"]), 1e-300))
            assert float(row["bound_efficiency"]) == pytest.approx(want, abs=1e-12)

    def test_csv_columns_stable(self, tmp_path):
        out = tmp_path / "run"
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({
            "scenario": "store_tomography",
            "trials_per_projection": 2000,
            "input_states": ["zero", "radial"],
        }))
        assert cli.main(["--config", str(cfg_path), "--out", str(out)]) == 0
        header = (out / "results.csv").read_text().splitlines()[0]
        assert tuple(header.split(",")) == CSV_COLUMNS

    def test_every_fidelity_row_carries_bounds_and_verdict(self):
        cfg = config_from_dict({
            "scenario": "fidelity_vs_time",
            "trials_per_projection": 2000,
            "storage_times": [0.0, 1.0],
            "input_states": ["zero", "radial"],
        })
        rows = pipeline.run(cfg).table.rows()
        assert rows
        for row in rows:
            assert 2 / 3 < row["bound_poisson"] < 1
            assert row["bound_efficiency"] >= row["bound_poisson"] - 1e-12
            assert isinstance(row["pass_shor_preskill"], bool)

    def test_jsonl_rows_parse_and_carry_reconstruction(self, tmp_path):
        out = tmp_path / "run"
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({
            "scenario": "store_tomography",
            "trials_per_projection": 2000,
            "input_states": ["one"],
        }))
        assert cli.main(["--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "results.jsonl").read_text().strip().splitlines()
        payload = json.loads(lines[0])
        assert payload["state"] == "one"
        assert "rho_raw" in payload and "stokes_raw" in payload

    def test_field_maps_outputs(self, tmp_path):
        out = tmp_path / "maps"
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({
            "scenario": "field_maps",
            "input_states": ["radial"],
            "trials_per_projection": 0,
        }))
        assert cli.main(["--config", str(cfg_path), "--out", str(out)]) == 0
        pgm = (out / "radial_intensity.pgm").read_text()
        ppm = (out / "radial_polarization.ppm").read_text()
        assert pgm.startswith("P2\n256 256\n")
        assert ppm.startswith("P3\n256 256\n")
        assert (out / "radial_intensity.csv").exists()

    def test_fidelity_vs_time_decays(self):
        cfg = default_config("fidelity_vs_time")
        cfg = config_from_dict({**config_to_dict(cfg),
                                "storage_times": [0.0, 7.0],
                                "input_states": ["zero"]})
        report = pipeline.run(cfg)
        early = _rows_by(report, time_us=0.0)[0]["fidelity_raw"]
        late = _rows_by(report, time_us=7.0)[0]["fidelity_raw"]
        assert late < early  # lower SNR after memory decay


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({
            "scenario": "store_tomography",
            "trials_per_projection": 5000,
            "seed": 31,
        }))
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert cli.main(["--config", str(cfg_path), "--out", str(out)]) == 0
            outs.append(out)
        files_a = sorted(p.name for p in outs[0].iterdir())
        files_b = sorted(p.name for p in outs[1].iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_different_seeds_change_sampled_results(self, tmp_path):
        base = {
            "scenario": "store_tomography",
            "trials_per_projection": 5000,
            "input_states": ["radial"],
        }
        r1 = pipeline.run(config_from_dict({**base, "seed": 1}))
        r2 = pipeline.run(config_from_dict({**base, "seed": 2}))
        assert r1.table.rows()[0]["fidelity_raw"] != r2.table.rows()[0]["fidelity_raw"]

    def test_streams_of_neighbouring_seeds_share_no_counts(self):
        # a seed-XOR-job-index rule gave job 1 at seed 0 the stream of job 0
        # at seed 1; one stream per run keeps every row of the two runs apart
        base = {"scenario": "fidelity_vs_time", "input_states": ["radial", "radial"],
                "storage_times": [1.0]}
        rows = [tuple(row["stokes_raw"]) for seed in (0, 1)
                for row in pipeline.run(config_from_dict({**base, "seed": seed})).table.rows()]
        assert len(set(rows)) == 4


class TestConvergence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampled_raw_fidelity_converges_to_threshold_detector_limit(self, seed):
        # the infinite-trial limit of the sampled pipeline: tomography on the
        # click probabilities of the threshold detector
        cfg = default_config("store_tomography")
        light = pipeline.propagate("radial", cfg, cfg.storage_times[0], 0.0)
        probs = photodetection.click_probabilities(
            cfg.source.nbar, light.survival, light.signal / light.survival[:, None],
            cfg.memory.bg_click)
        _, rho = tomography.reconstruct(probs)
        f_inf = hilbert.fidelities(rho, light.target[None])[0]
        assert f_inf == pytest.approx(0.96700, abs=5e-6)
        errors = []
        for trials in (10**4, 10**5, 10**6):
            raw = config_to_dict(cfg)
            # store_tomography's one job per state, in a scenario that lets a state repeat
            raw.update(scenario="fidelity_vs_time", storage_times=cfg.storage_times[:1],
                       trials_per_projection=trials, seed=seed, input_states=["radial"] * 200)
            f = pipeline.run(config_from_dict(raw)).table.f_raw
            se = f.std(ddof=1) / math.sqrt(len(f))
            assert abs(f.mean() - f_inf) <= 4 * se
            errors.append(se)
        for coarse, fine in zip(errors, errors[1:]):
            assert 2.0 <= coarse / fine <= 5.0   # 1/sqrt(N): sqrt(10) per decade


class TestOfflineCountRecords:
    def test_round_trip_through_csv(self, tmp_path):
        from oracles import projection_probabilities, simulate_counts
        from vortexmem.hilbert import named_state
        from vortexmem.tomography import tomograph

        records = simulate_counts(
            projection_probabilities(named_state("D")), 50_000, 2, bg=0.001
        )
        path = tmp_path / "counts.csv"
        lines = ["projector,clicks,trials,bg_expected"]
        lines += [
            f"{r.projector_id},{r.clicks},{r.trials},{r.bg_clicks_expected}"
            for r in records
        ]
        path.write_text("\n".join(lines) + "\n")
        loaded = text.read_count_records(path)
        assert loaded == records
        assert tomograph(loaded).fidelity_vs(named_state("D")) > 0.98

    def test_byte_order_mark_skipped(self, tmp_path):
        # spreadsheet programs save "CSV UTF-8" with a BOM, which was read as
        # part of the first column name
        body = "projector,clicks,trials,bg_expected\nH,5,10,0.5\nV,3,10,0.5\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(body, encoding="utf-8")
        marked.write_text(body, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert text.read_count_records(marked) == text.read_count_records(plain)
        assert len(text.read_count_records(marked)) == 2

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("projector,clicks\nH,5\n")
        with pytest.raises(ConfigError, match=r"counts\.csv: .*lacks columns"):
            text.read_count_records(path)

    @pytest.mark.parametrize("header", ["projector,clicks,trials,bg_expected,clicks",
                                        "clicks,projector,trials,clicks,bg_expected"])
    def test_column_named_twice_rejected(self, tmp_path, header):
        """Such a file loaded once, clicks taken from the last cell so named."""
        path = tmp_path / "counts.csv"
        path.write_text(f"{header}\nH,5,10,0.0,7\n")
        with pytest.raises(ConfigError, match=r"counts\.csv: .*column 'clicks' twice"):
            text.read_count_records(path)

    def test_columns_in_any_order_with_extras_and_blank_rows(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("note,bg_expected,trials,note,clicks,projector\n"
                        "\n,0.5,10,,5,H\n\n\nx,0.5,10,y,3,V\n\n,0.5,10,,11,D\n")
        with pytest.raises(ConfigError, match=r"counts\.csv, line 8: .*clicks"):
            text.read_count_records(path)
        path.write_text(path.read_text().rsplit("\n", 2)[0] + "\n")
        assert text.read_count_records(path) == [photodetection.CountRecord("H", 5, 10, 0.5),
                                                 photodetection.CountRecord("V", 3, 10, 0.5)]

    @pytest.mark.parametrize("clicks, trials", [
        (math.nan, 10), (5, math.nan), (-1, 10), (11, 10), (0, 0), (5, 10.5), (5, math.inf),
    ], ids=["nan_clicks", "nan_trials", "negative_clicks", "clicks_past_trials", "no_trials",
            "fractional_trials", "infinite_trials"])
    def test_out_of_range_counts_rejected(self, clicks, trials):
        with pytest.raises(ValueError):
            photodetection.CountRecord("H", clicks, trials)
        # the stack form used by the pipeline gives the same verdict
        with pytest.raises(ValueError):
            photodetection.check_counts(np.array([[0.0, clicks]]), trials)

    @pytest.mark.parametrize("bg", [-50.0, -1e-9, 10.5, math.inf, -math.inf, math.nan])
    def test_background_outside_zero_to_trials_rejected(self, bg):
        """A negative background would add clicks in corrected tomography."""
        with pytest.raises(ValueError, match="bg_clicks_expected"):
            photodetection.CountRecord("H", 5, 10, bg)

    @pytest.mark.parametrize("trials", [2**53 + 1, 10**400, 1e300],
                             ids=["past_2_53", "ten_to_400", "float_1e300"])
    def test_trials_past_float_exactness_rejected(self, trials):
        """Counts are float64 arithmetic, exact only up to 2**53 trials."""
        with pytest.raises(ValueError, match="trials"):
            photodetection.CountRecord("H", 5, trials)
        with pytest.raises(ValueError, match="trials"):
            photodetection.check_counts(np.array([[0.0, 5.0]]), trials)

    def test_trials_at_2_53_accepted(self):
        assert photodetection.CountRecord("H", 5, 2**53).trials == photodetection.TRIALS_MAX
        photodetection.check_counts(np.array([[0.0, 5.0]]), 2**53)

    def test_background_at_the_range_ends_accepted(self):
        for bg in (0.0, 10.0):
            assert photodetection.CountRecord("H", 5, 10, bg).bg_clicks_expected == bg

    @pytest.mark.parametrize("row", [
        "H,5", "H,5.0,10,0.0", "H,5,10,x", "H,5,10,nan", "H,5,10,-50", "X,5,10,0.0", "H,11,10,0.0",
        f"H,5,{10**400},0.0", "H,5,10,0.0,extra", "H,5,10," + "0" * (csv.field_size_limit() + 1),
    ], ids=["short", "float_clicks", "text_background", "nan_background",
            "negative_background", "unknown_projector", "clicks_past_trials", "huge_trials",
            "long", "field_past_size_limit"])
    def test_malformed_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "counts.csv"
        path.write_text(f"projector,clicks,trials,bg_expected\nV,5,10,0.0\n{row}\n")
        with pytest.raises(ConfigError, match=r"counts\.csv, line 3: "):
            text.read_count_records(path)

    def test_non_utf8_file_names_file(self, tmp_path):
        # a small file is decoded on its first read, before any line is known
        path = tmp_path / "counts.csv"
        path.write_bytes(b"projector,clicks,trials,bg_expected\nV,5,10,0.0\nH\xff,5,10,0.0\n")
        with pytest.raises(ConfigError, match=r"counts\.csv: .*utf-8"):
            text.read_count_records(path)


def test_bench_entry_points_stay_on_cli():
    """The benchmark reaches these names through vortexmem.cli."""
    for name in ("config_to_dict", "default_config", "load_config", "main", "propagate",
                 "detection_records", "read_count_records"):
        assert callable(getattr(cli, name)), name
    assert cli.COUNT_RECORD_COLUMNS == ("projector", "clicks", "trials", "bg_expected")
    assert cli.read_count_records is text.read_count_records
    assert cli.propagate is pipeline.propagate
