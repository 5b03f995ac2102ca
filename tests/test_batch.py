"""The batched pipeline against the per-job reference oracles, bit for bit."""

import itertools
import json
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from helpers import assert_same_text, run_one_job
from vortexmem import cli, config, hilbert, optics, photodetection, pipeline, text, tomography
from vortexmem.photodetection import RangeError
from vortexmem.text import CSV_COLUMNS
from vortexmem.tomography import InsufficientCounts

ALL_STATES = list(hilbert.HYBRID_SPHERE_NAMES + hilbert.POLARIZATION_NAMES)
ANGLES = [math.radians(d) for d in (0.0, 7.3, 22.5, 45.0, 60.0, 90.0, 123.4, -20.0)]
# an offset, detuned, lossy plate: its phase exp(2i alpha0) is not 1, so the
# plate's phase and renormalisation are compared bit for bit
QPLATE_DETUNED = {"alpha0": 0.4, "tuning_delta": 2.5, "conversion_efficiency": 0.9}


def _config(scenario, trials, imperfection, encode, seed=4242):
    raw = config.config_to_dict(config.default_config(scenario))
    raw.update(trials_per_projection=trials, seed=seed, encode_with_qplate=bool(encode),
               input_states=ALL_STATES, rotation_angles=ANGLES)
    if isinstance(encode, dict):   # plate parameters of an encoding run
        raw["qplate"].update(encode)
    if scenario == "store_tomography":   # density_matrices.json is keyed by state alone
        raw["rotation_angles"] = ANGLES[2:3]
    raw["memory"]["rail_imbalance"] = imperfection
    raw["memory"]["rail_phase_error"] = imperfection
    if scenario == "fidelity_vs_time":
        raw["storage_times"] = [0.0, 1, 7.0]
    return config.config_from_dict(raw)


def _emitted(write, report, out):
    return {p.name: p.read_bytes() for p in write(report, out)}


@pytest.mark.parametrize("encode", [True, False, QPLATE_DETUNED],
                         ids=["qplate", "no_qplate", "qplate_detuned"])
@pytest.mark.parametrize("imperfection", [0.0, 0.05], ids=["balanced", "leaky"])
@pytest.mark.parametrize("trials", [150_000, 0], ids=["sampled", "exact"])
@pytest.mark.parametrize("scenario", ["fidelity_vs_rotation", "store_tomography",
                                      "fidelity_vs_time"])
def test_run_matches_per_job_oracle(tmp_path, scenario, trials, imperfection, encode):
    cfg = _config(scenario, trials, imperfection, encode)
    batch, oracle = pipeline.run(cfg), oracles.run(cfg)
    assert len(batch.table.rows()) == len(oracle.rows) > 0
    for got, want in zip(batch.table.rows(), oracle.rows):
        # json text also tells -0.0 from 0.0 and int from float
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert_same_text(_emitted(text.emit, batch, tmp_path / "batch"),
                     _emitted(oracles.emit, oracle, tmp_path / "oracle"))


def test_pairs_emptied_by_background_subtraction_match_oracle(tmp_path):
    """Past ~18 us the preset background leaves some jobs a basis pair with
    no counts after subtraction: those rows get no corrected estimate, every
    other row keeps its own, and the run goes on."""
    cfg = replace(_config("fidelity_vs_time", 150_000, 0.0, True), storage_times=(1.0, 20.0, 30.0))
    batch, oracle = pipeline.run(cfg), oracles.run(cfg)
    rows = batch.table.rows()
    assert len(rows) == len(oracle.rows)
    for got, want in zip(rows, oracle.rows):
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    late = [row for row in rows if row["time_us"] > 1.0]
    assert all(row["survival"] > 1e-12 for row in late)
    assert 0 < sum(row["fidelity_corrected"] is None for row in late) < len(late)
    assert_same_text(_emitted(text.emit, batch, tmp_path / "batch"),
                     _emitted(oracles.emit, oracle, tmp_path / "oracle"))


def test_single_job_api_matches_oracle():
    cfg = _config("fidelity_vs_rotation", 150_000, 0.05, False)
    for state in ("radial", "H", "D", "L"):
        for theta in ANGLES[:3]:
            got = run_one_job(state, cfg, 1.0, theta, 17)
            want = oracles.simulate_point(state, cfg, 1.0, theta, 17)
            assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
            light = pipeline.propagate(state, cfg, 1.0, theta)
            comps, target = oracles.propagate(state, cfg, 1.0, theta)
            signal, survival = oracles.signal(comps)
            assert light.signal.tolist() == [list(signal.values())]
            assert light.survival.tolist() == [survival]
            assert light.target.tolist() == target.tolist()
            assert (pipeline.detection_records(light, cfg, 17)
                    == oracles.detection_records(comps, cfg, 17))


def test_rotation_runs_once_per_distinct_angle(monkeypatch):
    """The 600-angle sweep computes the frame phases once per angle and
    projects the light of all jobs in at most three calls: target, L and R
    light."""
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    count(optics, "_frame_phases")
    count(photodetection, "projection_weights")
    cfg = replace(config.default_config("fidelity_vs_rotation"),
                  rotation_angles=tuple(math.radians(i / 10) for i in range(600)))
    table = pipeline._simulate(cfg)
    assert calls["_frame_phases"] == 600
    assert 1 <= calls["projection_weights"] <= 3
    assert set(calls) == {"_frame_phases", "projection_weights"}
    assert len(table.states) == 600 * len(cfg.input_states)


def _matches_oracles(cfg, jobs, capsys) -> dict:
    """Check a run of ``jobs`` jobs row by row against the per-job pipeline,
    and its files and stdout against the per-row writers, run from the
    current directory; returns the package's outputs."""
    batch, oracle = pipeline.run(cfg), oracles.run(cfg)
    assert len(batch.table.rows()) == len(oracle.rows) == jobs
    for got, want in zip(batch.table.rows(), oracle.rows):
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    Path("config.json").write_text(json.dumps(config.config_to_dict(cfg)))
    outputs = {}
    for name, main in (("cli", cli.main), ("oracle", oracles.main)):
        assert main(["--config", "config.json", "--out", name]) == 0
        outputs[name] = {p.name: p.read_bytes() for p in Path(name).iterdir()}
        outputs[name]["stdout"] = capsys.readouterr().out.replace(name, "OUT").encode()
    assert_same_text(outputs["cli"], outputs["oracle"])
    return outputs["cli"]


def test_repeated_and_signed_zero_angles_match_oracles(tmp_path, monkeypatch, capsys):
    """Angles that repeat or differ only in the sign of zero share nothing
    they should not: rows match the per-job pipeline, files and stdout the
    per-row writers."""
    angles = (0.0, -0.0, 0.3, -0.3, 0.3, -0.0, 0.0, 2.0, 0)
    cfg = replace(_config("fidelity_vs_rotation", 150_000, 0.05, False), rotation_angles=angles)
    monkeypatch.chdir(tmp_path)
    outputs = _matches_oracles(cfg, len(angles) * len(ALL_STATES), capsys)
    assert b"-0.0" in outputs["results.csv"]


@pytest.mark.parametrize("axis, values", [
    ("input_states", ("radial", "H", "radial")),
    ("storage_times", (1, 1.0, 7.0, 1)),
], ids=["states", "times"])
def test_repeated_states_and_times_match_oracles(tmp_path, monkeypatch, capsys, axis, values):
    """A state or storage time listed twice is a job of its own each time,
    and an int time keeps its integer text."""
    cfg = replace(_config("fidelity_vs_time", 150_000, 0.05, True), **{axis: values})
    monkeypatch.chdir(tmp_path)
    jobs = len(cfg.input_states) * len(cfg.storage_times) * len(cfg.rotation_angles)
    lines = _matches_oracles(cfg, jobs, capsys)["results.csv"].decode().splitlines()
    # states are the outer axis, then times: a new state every
    # len(storage_times) * len(rotation_angles) lines, a new time every
    # len(rotation_angles)
    step = len(cfg.rotation_angles) * (len(cfg.storage_times) if axis == "input_states" else 1)
    column = CSV_COLUMNS.index("state" if axis == "input_states" else "time_us")
    assert [line.split(",")[column] for line in lines[1::step][:len(values)]] == \
        list(map(str, values))


@pytest.mark.parametrize("trials, times, bg", [(150_000, (1.0, 200.0), 0.0),
                                               (20, (1.0, 7.0), None)],
                         ids=["nothing_retrieved", "twenty_trials"])
def test_jobs_without_raw_counts_match_oracles(tmp_path, monkeypatch, capsys, trials, times, bg):
    """A job whose counts leave a basis pair empty has no raw estimate: its
    raw and corrected fields are null, every other row keeps its own, and
    the run goes on.  No row is corrected without being reconstructed."""
    cfg = replace(_config("fidelity_vs_time", trials, 0.0, True), storage_times=times)
    if bg is not None:
        cfg = replace(cfg, memory=replace(cfg.memory, bg_click=bg))
    monkeypatch.chdir(tmp_path)
    jobs = len(ALL_STATES) * len(times) * len(ANGLES)
    _matches_oracles(cfg, jobs, capsys)
    table = pipeline.run(cfg).table
    assert 0 < table.reconstructed.sum() < jobs
    assert not (table.corrected & ~table.reconstructed).any()


@pytest.mark.parametrize("trials, bg", [(150_000, 0.01), (0, 1.0 - 2.0**-53)],
                         ids=["sampled", "exact"])
def test_survival_above_one_by_round_off_is_clamped(trials, bg):
    # at eta_H = 1 the closed form gives H light a survival of 1 + 2.2e-16,
    # outside click_probabilities' range; with a background of 1 - 2**-53 an
    # unclamped exact count exceeded its one trial
    cfg = _config("store_tomography", trials, 0.0, False)
    cfg = replace(cfg, storage_times=(0.0,), source=replace(cfg.source, nbar=10.0),
                  memory=replace(cfg.memory, eta0=1.0, bg_click=bg))
    assert pipeline.propagate("H", cfg, 0.0, 0.0).survival[0] > 1.0
    batch, oracle = pipeline.run(cfg), oracles.run(cfg)
    for got, want in zip(batch.table.rows(), oracle.rows):
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
        assert got["survival"] == 1.0


def test_one_job_run_is_row_zero_of_a_run_at_its_seed():
    # one stream per run, drawn in job order, and elementwise arithmetic on
    # the job axis: the first job of any run is the one-job run at its seed
    for scenario in ("fidelity_vs_rotation", "store_tomography", "fidelity_vs_time"):
        cfg = _config(scenario, 150_000, 0.05, True, seed=17)
        jobs = list(itertools.product(*oracles.axes(cfg)))
        state, t_us, theta = jobs[0]
        got = run_one_job(state, cfg, t_us, theta, 17)
        want = pipeline.run(cfg).table.rows()[0]
        assert len(jobs) > 1
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


@pytest.mark.parametrize("n_resamples", [1, 9, 150, 1000])
@pytest.mark.parametrize("subtract_bg", [False, True], ids=["raw", "corrected"])
def test_bootstrap_matches_resample_loop(subtract_bg, n_resamples):
    cfg = _config("fidelity_vs_time", 150_000, 0.05, True)
    for index, state in enumerate(("zero", "radial", "plus_i", "minus_i")):
        comps, target = oracles.propagate(state, cfg, 2.5, 0.0)
        records = oracles.detection_records(comps, cfg, 900 + index)
        # the draw follows the records' given order, reversed too
        for given in (records, records[::-1]):
            got = tomography.bootstrap_fidelity(given, target, n_resamples, 31 + index, subtract_bg)
            want = oracles.bootstrap_fidelity(given, target, n_resamples, 31 + index, subtract_bg)
            assert got == want
        point = tomography.tomograph(records, subtract_bg)
        stokes, rho = oracles.tomograph(records, subtract_bg)
        assert [point.stokes.s1, point.stokes.s2, point.stokes.s3] == stokes
        assert np.array_equal(point.rho, rho) and not point.rho.flags.writeable
        assert point.fidelity_vs(target) == oracles.conditional_fidelity(rho, target)


def test_projection_and_clicks_match_scalar_arithmetic():
    rng = np.random.default_rng(5)
    amps = rng.normal(size=(500, 2)) + 1j * rng.normal(size=(500, 2))
    amps /= np.linalg.norm(amps, axis=1)[:, None]
    weights = photodetection.projection_weights(amps)
    for row, (c0, c1) in zip(weights.tolist(), amps.tolist()):
        assert row == list(oracles.projection_probabilities((c0, c1)).values())
    survival = rng.random(500)
    clicks = photodetection.click_probabilities(0.5, survival, weights, 0.004)
    for row, s, w in zip(clicks.tolist(), survival.tolist(), weights.tolist()):
        assert row == [oracles.click_probability(0.5, s, p, 0.004) for p in w]


def test_zero_count_pair_raises_in_batch():
    counts = np.array([[10, 5, 3, 3, 8, 1],
                       [10, 5, 0, 0, 8, 1]])
    with pytest.raises(InsufficientCounts, match=r"\(D, A\)"):
        tomography.reconstruct(counts)
    with pytest.raises(InsufficientCounts):
        tomography.reconstruct(tomography.subtract_background(counts[:1], 3.5))


@pytest.mark.parametrize("call, error", [
    (lambda: hilbert.densities_from_bloch(np.array([[0.0, 0.0, 1.0], [0.8, 0.8, 0.8]])),
     RangeError),
    (lambda: photodetection.click_probabilities(0.5, np.array([0.2, 1.5]),
                                                np.full((2, 6), 0.5), 0.0), RangeError),
    (lambda: photodetection.click_probabilities(0.5, np.array([0.2, 0.5]),
                                                np.full((2, 6), -0.1), 0.0), RangeError),
    (lambda: photodetection.check_counts(np.array([[3.0, 1.5]]), 1), ValueError),
], ids=["outside_ball", "survival_range", "proj_range", "count_range"])
def test_batched_checks_raise_the_scalar_errors(call, error):
    with pytest.raises(error):
        call()
