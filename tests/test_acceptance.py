"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances and runtime budgets are pinned here, not configurable.
"""

import json
import math
import time

import mpmath as mp
import numpy as np
import pytest

from helpers import assert_same_text, peak_radius, project_polarization, run_one_job
from vortexmem import cli, config, memory, photodetection, security, tomography
from vortexmem.fields import Grid, lg_amplitude, vector_field_map
from vortexmem.hilbert import HYBRID_SPHERE_NAMES, named_state
from vortexmem.memory import MemoryParams, efficiency_at
from vortexmem.photodetection import CountRecord, calibrate_background, snr_for_raw_fidelity

SIX = HYBRID_SPHERE_NAMES
ANGLES = tuple(math.radians(d) for d in range(0, 70, 10))


def _passline(n, text):
    print(f"\nACCEPTANCE {n} PASS — {text}")


def _noiseless_config(**overrides):
    base = {
        "scenario": "store_tomography",
        "memory": {"eta0": 1.0, "bg_click": 0.0},
        "trials_per_projection": 0,
    }
    base.update(overrides)
    return config.config_from_dict(base)


def test_criterion_1_noiseless_end_to_end_identity():
    start = time.perf_counter()
    cfg = _noiseless_config(storage_times=[3.7])
    worst = 1.0
    for name in SIX:
        row = run_one_job(name, cfg, 3.7, 0.0, 0)
        worst = min(worst, row["fidelity_raw"])
    elapsed = time.perf_counter() - start
    assert worst >= 1 - 1e-9
    assert elapsed < 1.0
    _passline(1, f"noiseless end-to-end identity: min fidelity {worst:.2e} offset "
                 f"{1 - worst:.1e}, {elapsed:.2f} s")


def test_criterion_2_rotational_invariance_with_noise():
    # measured regime: nbar 0.5, eta0 0.26, tau 7 us, background at SNR 12
    # (inside the 8-17 operating band), 150 000 trials per projection
    start = time.perf_counter()
    mem = MemoryParams()
    survival = efficiency_at(mem, 1.0)
    bg = calibrate_background(0.5, survival, snr=12.0)
    cfg = config.config_from_dict({
        "scenario": "fidelity_vs_rotation",
        "memory": {"eta0": 0.26, "tau": 7.0, "bg_click": bg},
        "trials_per_projection": 150_000,
    })
    worst = 1.0
    for seed in range(10):
        for ia, theta in enumerate(ANGLES):
            for istate, name in enumerate(SIX):
                job_seed = seed * 10_000 + ia * 100 + istate
                row = run_one_job(name, cfg, 1.0, theta, job_seed)
                worst = min(worst, row["fidelity_raw"])
                assert row["fidelity_raw"] > 0.89
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passline(2, f"rotational invariance at SNR 12 over 10 seeds x 7 angles x 6 states: "
                 f"worst raw fidelity {worst:.4f} > 0.89, {elapsed:.1f} s")


def test_criterion_3_malus_law_for_polarization_encoding():
    start = time.perf_counter()
    cfg = _noiseless_config(scenario="fidelity_vs_rotation", encode_with_qplate=False)
    f0 = {name: run_one_job(name, cfg, 0.0, 0.0, 0)["fidelity_raw"]
          for name in ("H", "V", "D", "A")}
    worst_dev = 0.0
    for theta_deg in (0, 10, 20, 30, 40, 45, 50, 60):
        theta = math.radians(theta_deg)
        for name in ("H", "V", "D", "A"):
            f = run_one_job(name, cfg, 0.0, theta, 0)["fidelity_raw"]
            dev = abs(f - f0[name] * math.cos(theta) ** 2)
            worst_dev = max(worst_dev, dev)
            assert dev <= 0.005
        for name in ("R", "L"):
            f = run_one_job(name, cfg, 0.0, theta, 0)["fidelity_raw"]
            assert f >= 0.999
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passline(3, f"Malus law for linear states (max deviation {worst_dev:.1e}) and "
                 f"rotation-proof circular states, {elapsed:.2f} s")


def test_criterion_4_measured_fidelity_regime():
    # calibration procedure: (a) rail phase error emulates the measured
    # encode-decode fidelity floor, pinning the corrected average near 0.995;
    # (b) background is then set so the expected raw six-state average
    # reproduces the measured 0.967
    start = time.perf_counter()
    floor = 0.995
    phase_err = 2 * math.asin(math.sqrt(1.5 * (1 - floor)))
    mem = MemoryParams(rail_phase_error=phase_err)
    survival = efficiency_at(mem, 1.0)
    bg = calibrate_background(0.5, survival, snr_for_raw_fidelity(0.967, state_fidelity=floor))
    cfg = config.config_from_dict({
        "scenario": "store_tomography",
        "memory": {"eta0": 0.26, "tau": 7.0, "bg_click": bg,
                   "rail_phase_error": phase_err},
        "trials_per_projection": 150_000,
    })
    raw, corrected = [], []
    for seed in range(20):
        for istate, name in enumerate(SIX):
            row = run_one_job(name, cfg, 1.0, 0.0, seed * 100 + istate)
            raw.append(row["fidelity_raw"])
            corrected.append(row["fidelity_corrected"])
    raw_avg = float(np.mean(raw))
    corr_avg = float(np.mean(corrected))
    elapsed = time.perf_counter() - start
    assert 0.95 <= raw_avg <= 0.98
    assert corr_avg >= 0.985
    _passline(4, f"measured regime over 20 seeds: raw average {raw_avg:.4f} in [0.95, 0.98], "
                 f"corrected average {corr_avg:.4f} >= 0.985, {elapsed:.1f} s")


def test_criterion_5_classical_bounds():
    start = time.perf_counter()
    mp.mp.dps = 40

    def oracle_poisson(nbar, nmax=200):
        nb = mp.mpf(nbar)
        s = sum(mp.mpf(n + 1) / (n + 2) * mp.e ** (-nb) * nb**n / mp.factorial(n)
                for n in range(1, nmax))
        return float(s / (1 - mp.e ** (-nb)))

    def oracle_threshold(nbar, eta, kmax=40):
        nb = mp.mpf(nbar)
        terms = [mp.e ** (-nb) * nb**n / mp.factorial(n) for n in range(kmax + 200)]
        target = mp.mpf(eta) * (1 - terms[0])
        best = mp.mpf(0)
        for k in range(1, kmax + 1):
            tail = sum(terms[k + 1:])
            frac = (target - tail) / terms[k]
            if not 0 <= frac <= 1:
                continue
            fid = sum(mp.mpf(n + 1) / (n + 2) * terms[n] for n in range(k + 1, len(terms)))
            fid += mp.mpf(k + 1) / (k + 2) * frac * terms[k]
            best = max(best, fid / target)
        return float(best)

    poisson = security.classical_bound_poisson(0.5)
    assert abs(poisson - 0.6878) <= 0.0005
    assert poisson == pytest.approx(oracle_poisson(0.5), abs=1e-12)
    assert security.classical_bound_nphoton(1) == 2 / 3
    eff = security.classical_bound_with_efficiency(security.BenchmarkInput(0.5, 0.26))
    assert eff > poisson
    assert eff == pytest.approx(oracle_threshold(0.5, 0.26), abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passline(5, f"classical bounds: poisson(0.5) = {poisson:.6f}, threshold(0.5, 0.26) = "
                 f"{eff:.6f} vs oracles, {elapsed:.2f} s")


def test_criterion_6_efficiency_decay_and_loss_invariance():
    start = time.perf_counter()
    p = MemoryParams(eta0=0.26, tau=7.0)
    assert efficiency_at(p, 0.0) == pytest.approx(0.26, abs=1e-12)
    assert efficiency_at(p, 7.0) == pytest.approx(0.26 * math.exp(-1), abs=1e-12)
    cfg = config.config_from_dict({
        "scenario": "fidelity_vs_time",
        "memory": {"eta0": 0.26, "tau": 7.0, "bg_click": 0.0},
        "trials_per_projection": 0,
        "storage_times": [0.0, 1.0, 3.0, 7.0, 15.0],
    })
    for t in cfg.storage_times:
        for name in SIX:
            row = run_one_job(name, cfg, t, 0.0, 0)
            assert row["fidelity_raw"] == pytest.approx(1.0, abs=1e-9)
    elapsed = time.perf_counter() - start
    _passline(6, f"Gaussian efficiency decay anchored at eta0 and eta0/e; balanced "
                 f"retrieval fidelity invariant over t in 0..15 us, {elapsed:.2f} s")


def test_criterion_7_field_maps():
    # odd pixel count keeps samples exactly on the nodal axes; size and
    # runtime budget match the 256-class grid of the design default
    start = time.perf_counter()
    grid = Grid(nx=257, ny=257, extent=3.0)
    fmap = vector_field_map(named_state("radial"), grid)
    ph = project_polarization(fmap, np.array([1.0, 0.0]))
    pv = project_polarization(fmap, np.array([0.0, 1.0]))
    xx, _ = grid.mesh()
    on_axis = np.isclose(xx, 0.0)
    assert ph[on_axis].max() < 1e-10 * ph.max()
    assert np.abs(ph - ph[:, ::-1]).max() < 1e-12 * ph.max()  # bilateral lobes
    assert np.abs(np.rot90(ph) - pv).max() < 1e-9
    r1 = peak_radius(np.abs(lg_amplitude(1, grid)) ** 2, grid)
    r4 = peak_radius(np.abs(lg_amplitude(4, grid)) ** 2, grid)
    pixel = 2 * grid.extent / (grid.nx - 1)
    assert abs(r4 - 2.0 * r1) <= pixel
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passline(7, f"two-lobe projection with nodal axis, 90-degree pair symmetry, "
                 f"peak-radius ratio {r4 / r1:.4f}, {elapsed:.2f} s")


def test_criterion_8_tomography_robustness():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    order = photodetection.PROJECTOR_ORDER
    for _ in range(1000):
        trials = int(rng.integers(1, 10_000))
        clicks = rng.integers(0, trials + 1, size=6)
        for i in (0, 2, 4):  # keep each basis pair observable
            if clicks[i] + clicks[i + 1] == 0:
                clicks[i] = 1
        records = [CountRecord(name, int(c), trials) for name, c in zip(order, clicks)]
        rho = tomography.tomograph(records).rho
        m = rho
        assert np.allclose(m, m.conj().T, atol=1e-12)
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(m).min() >= -1e-10
    elapsed = time.perf_counter() - start
    _passline(8, f"1000 adversarial count sets all reconstruct to physical density "
                 f"matrices, {elapsed:.1f} s")


def test_criterion_9_byte_identical_reruns(tmp_path):
    start = time.perf_counter()
    for scenario, extra in (
        ("store_tomography", {"trials_per_projection": 20_000}),
        ("field_maps", {"input_states": ["radial", "zero"]}),
    ):
        cfg_path = tmp_path / f"{scenario}.json"
        cfg_path.write_text(json.dumps({"scenario": scenario, "seed": 99, **extra}))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{scenario}_{tag}"
            assert cli.main(["--config", str(cfg_path), "--out", str(out)]) == 0
            outs.append(out)
        first, second = ({p.name: p.read_bytes() for p in out.iterdir()} for out in outs)
        assert_same_text(second, first)
    elapsed = time.perf_counter() - start
    _passline(9, f"byte-identical outputs for repeated (config, seed) runs of two "
                 f"scenarios, {elapsed:.1f} s")
