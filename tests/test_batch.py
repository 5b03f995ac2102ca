"""The batched pipeline against the per-job reference oracles, bit for bit."""

import json
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from helpers import assert_same_text
from vortexmem import cli, hilbert, optics, photodetection, tomography
from vortexmem.hilbert import NonPhysicalDensity, OutsideBall
from vortexmem.photodetection import RangeError
from vortexmem.tomography import InsufficientCounts

ALL_STATES = list(hilbert.HYBRID_SPHERE_NAMES + hilbert.POLARIZATION_NAMES)
ANGLES = [math.radians(d) for d in (0.0, 7.3, 22.5, 45.0, 60.0, 90.0, 123.4, -20.0)]


def _config(scenario, trials, imperfection, encode, seed=4242):
    raw = cli.config_to_dict(cli.default_config(scenario))
    raw.update(trials_per_projection=trials, seed=seed, encode_with_qplate=encode,
               input_states=ALL_STATES, rotation_angles=ANGLES)
    raw["memory"]["rail_imbalance"] = imperfection
    raw["memory"]["rail_phase_error"] = imperfection
    if scenario == "fidelity_vs_time":
        raw["storage_times"] = [0.0, 1, 2.5, 7.0]
    return cli.config_from_dict(raw)


def _emitted(write, report, out):
    return {p.name: p.read_bytes() for p in write(report, out)}


@pytest.mark.parametrize("encode", [True, False], ids=["qplate", "no_qplate"])
@pytest.mark.parametrize("imperfection", [0.0, 0.05], ids=["balanced", "leaky"])
@pytest.mark.parametrize("trials", [150_000, 0], ids=["sampled", "exact"])
@pytest.mark.parametrize("scenario", ["fidelity_vs_rotation", "store_tomography",
                                      "fidelity_vs_time"])
def test_run_matches_per_job_oracle(tmp_path, scenario, trials, imperfection, encode):
    cfg = _config(scenario, trials, imperfection, encode)
    batch, oracle = cli.run(cfg), oracles.run(cfg)
    assert len(batch.rows) == len(oracle.rows) > 0
    for got, want in zip(batch.rows, oracle.rows):
        # json text also tells -0.0 from 0.0 and int from float
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert_same_text(_emitted(cli.emit, batch, tmp_path / "batch"),
                     _emitted(oracles.emit, oracle, tmp_path / "oracle"))


def test_single_job_api_matches_oracle():
    cfg = _config("fidelity_vs_rotation", 150_000, 0.05, False)
    for state in ("radial", "H", "D", "L"):
        for theta in ANGLES[:3]:
            got = cli.simulate_point(state, cfg, 1.0, theta, 17)
            want = oracles.simulate_point(state, cfg, 1.0, theta, 17)
            assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
            mix = cli.propagate(state, cfg, 1.0, theta)
            comps, target = oracles.propagate(state, cfg, 1.0, theta)
            assert mix.components == tuple(comps) and mix.target == target
            assert cli.detection_records(mix, cfg, 17) == oracles.detection_records(comps, cfg, 17)


def test_rotation_runs_once_per_distinct_angle(monkeypatch):
    """The 600-angle sweep computes the frame phases once per angle and
    builds no rotated mixture or state per job."""
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    count(optics, "_frame_phases")
    count(optics, "rotate_frame")
    count(cli.DetectionMixture, "rotated")
    cfg = replace(cli.default_config("fidelity_vs_rotation"),
                  rotation_angles=tuple(math.radians(i / 10) for i in range(600)))
    table = cli._simulate(cfg, cli._jobs(cfg), cfg.seed)
    assert calls == {"_frame_phases": 600}
    assert len(table.states) == 600 * len(cfg.input_states)


def test_repeated_and_signed_zero_angles_match_oracles(tmp_path, monkeypatch, capsys):
    """Angles that repeat or differ only in the sign of zero share nothing
    they should not: rows match the per-job pipeline, files and stdout the
    per-row writers."""
    angles = (0.0, -0.0, 0.3, -0.3, 0.3, -0.0, 0.0, 2.0, 0)
    cfg = replace(_config("fidelity_vs_rotation", 150_000, 0.05, False), rotation_angles=angles)
    batch, oracle = cli.run(cfg), oracles.run(cfg)
    assert len(batch.rows) == len(oracle.rows) == len(angles) * len(ALL_STATES)
    for got, want in zip(batch.rows, oracle.rows):
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps(cli.config_to_dict(cfg)))
    outputs = {}
    for name, main in (("cli", cli.main), ("oracle", oracles.main)):
        assert main(["--config", "config.json", "--out", name]) == 0
        outputs[name] = {p.name: p.read_bytes() for p in Path(name).iterdir()}
        outputs[name]["stdout"] = capsys.readouterr().out.replace(name, "OUT").encode()
    assert b"-0.0" in outputs["cli"]["results.csv"]
    assert_same_text(outputs["cli"], outputs["oracle"])


def test_one_job_run_is_row_zero_of_a_run_at_its_seed():
    # one stream per run, drawn in job order, and elementwise arithmetic on
    # the job axis: the first job of any run is the one-job run at its seed
    for scenario in ("fidelity_vs_rotation", "store_tomography", "fidelity_vs_time"):
        cfg = _config(scenario, 150_000, 0.05, True, seed=17)
        state, t_us, theta = cli._jobs(cfg)[0]
        got = cli.simulate_point(state, cfg, t_us, theta, 17)
        want = cli.run(cfg).rows[0]
        assert len(cli._jobs(cfg)) > 1
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


@pytest.mark.parametrize("subtract_bg", [False, True], ids=["raw", "corrected"])
def test_bootstrap_matches_resample_loop(subtract_bg):
    cfg = _config("fidelity_vs_time", 150_000, 0.05, True)
    for index, state in enumerate(("zero", "radial", "plus_i", "minus_i")):
        comps, target = oracles.propagate(state, cfg, 2.5, 0.0)
        records = oracles.detection_records(comps, cfg, 900 + index)
        got = tomography.bootstrap_fidelity(records, target, 150, 31 + index, subtract_bg)
        want = oracles.bootstrap_fidelity(records, target, 150, 31 + index, subtract_bg)
        assert got == want
        point = tomography.tomograph(records, subtract_bg)
        stokes, rho = oracles.tomograph(records, subtract_bg)
        assert [point.stokes.s1, point.stokes.s2, point.stokes.s3] == stokes
        assert np.array_equal(point.rho.elements, rho)
        assert point.fidelity_vs(target) == oracles.conditional_fidelity(rho, target)


def test_projection_and_clicks_match_scalar_arithmetic():
    rng = np.random.default_rng(5)
    amps = rng.normal(size=(500, 2)) + 1j * rng.normal(size=(500, 2))
    amps /= np.linalg.norm(amps, axis=1)[:, None]
    weights = photodetection.projection_weights(amps)
    for row, (c0, c1) in zip(weights.tolist(), amps.tolist()):
        psi = hilbert.HybridState(c0, c1, hilbert.BasisTag.POLARIZATION)
        assert row == list(oracles.projection_probabilities(psi).values())
    survival = rng.random(500)
    clicks = photodetection.click_probabilities(0.5, survival, weights, 0.004)
    for row, s, w in zip(clicks.tolist(), survival.tolist(), weights.tolist()):
        assert row == [oracles.click_probability(0.5, s, p, 0.004) for p in w]


def test_zero_count_pair_raises_in_batch():
    counts = np.array([[10, 5, 3, 3, 8, 1],
                       [10, 5, 0, 0, 8, 1]])
    with pytest.raises(InsufficientCounts, match=r"\(D, A\)"):
        tomography.reconstruct(counts, 0.0)
    with pytest.raises(InsufficientCounts):
        tomography.reconstruct(counts[:1], 3.5, subtract_bg=True)


@pytest.mark.parametrize("call, error", [
    (lambda: hilbert.fidelities(np.array([np.eye(2), np.diag([1.5, -0.5])]),
                                np.ones((2, 2)) / math.sqrt(2)), NonPhysicalDensity),
    (lambda: hilbert.densities_from_bloch(np.array([[0.0, 0.0, 1.0], [0.8, 0.8, 0.8]])),
     OutsideBall),
    (lambda: photodetection.click_probabilities(0.5, np.array([0.2, 1.5]),
                                                np.full((2, 6), 0.5), 0.0), RangeError),
    (lambda: photodetection.click_probabilities(0.5, np.array([0.2, 0.5]),
                                                np.full((2, 6), -0.1), 0.0), RangeError),
    (lambda: photodetection.check_counts(np.array([[3.0, 1.5]]), 1), ValueError),
], ids=["nonphysical", "outside_ball", "survival_range", "proj_range", "count_range"])
def test_batched_checks_raise_the_scalar_errors(call, error):
    with pytest.raises(error):
        call()
