import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import states
from vortexmem import config, pipeline
from vortexmem.hilbert import named_state
from vortexmem.photodetection import (
    PROJECTOR_ORDER,
    PROJECTOR_PAIRS,
    CountRecord,
    RangeError,
    SourceParams,
    calibrate_background,
    click_probabilities,
    projection_weights,
    sample_counts,
    snr_for_raw_fidelity,
    snr_of,
)

probs01 = st.floats(0, 1, allow_nan=False)


def _click(nbar, survival, proj_prob, bg):
    """click_probabilities of one survival and one projection probability."""
    return click_probabilities(nbar, np.array([survival]), np.array([[proj_prob]]), bg)[0, 0]


def _projections(psi):
    """projection_weights of one state, by projector name."""
    return dict(zip(PROJECTOR_ORDER, projection_weights(np.array([psi]))[0].tolist()))


def _clicks(probabilities, trials, seed):
    """sample_counts of one row of click probabilities, as a list."""
    return sample_counts(np.array([probabilities], dtype=float), trials, seed)[0].tolist()


class TestClickProbability:
    def test_vacuum_no_dark_counts(self):
        assert _click(0.0, 0.5, 0.5, 0.0) == 0.0

    def test_bright_pulse_saturates(self):
        assert _click(1e9, 1.0, 0.5, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_reference_value(self):
        p = _click(0.5, 0.26, 1.0, 0.0)
        assert p == pytest.approx(0.1219045690794387, abs=1e-12)

    @given(probs01, probs01)
    def test_reduces_to_bg_without_signal(self, survival, proj):
        bg = 0.37
        assert _click(0.0, survival, proj, bg) == pytest.approx(bg, abs=1e-12)
        assert _click(0.5, 0.0, proj, bg) == pytest.approx(bg, abs=1e-12)
        assert _click(0.5, survival, 0.0, bg) == pytest.approx(bg, abs=1e-12)

    @given(st.floats(0, 5, allow_nan=False), st.floats(0, 5, allow_nan=False),
           probs01, st.floats(0, 0.99, allow_nan=False))
    @settings(max_examples=100)
    def test_monotone_in_nbar(self, n1, n2, surv, bg):
        lo, hi = sorted((n1, n2))
        assert _click(hi, surv, 1.0, bg) >= _click(lo, surv, 1.0, bg)

    @given(st.floats(0, 5, allow_nan=False), probs01, probs01, st.floats(0, 0.99, allow_nan=False))
    @settings(max_examples=100)
    def test_range_of_output(self, nbar, surv, proj, bg):
        p = _click(nbar, surv, proj, bg)
        assert bg - 1e-15 <= p < 1.0

    def test_range_errors(self):
        with pytest.raises(RangeError):
            _click(-1.0, 0.5, 0.5, 0.0)
        with pytest.raises(RangeError):
            _click(0.5, 1.5, 0.5, 0.0)
        with pytest.raises(RangeError):
            _click(0.5, 0.5, -0.1, 0.0)
        with pytest.raises(RangeError):
            _click(0.5, 0.5, 0.5, 1.0)


class TestProjectionProbabilities:
    def test_h_state(self):
        p = _projections(named_state("H"))
        expected = {"H": 1.0, "V": 0.0, "D": 0.5, "A": 0.5, "R": 0.5, "L": 0.5}
        for k, v in expected.items():
            assert p[k] == pytest.approx(v, abs=1e-12)

    def test_d_state(self):
        p = _projections(named_state("D"))
        expected = {"D": 1.0, "A": 0.0, "H": 0.5, "V": 0.5, "R": 0.5, "L": 0.5}
        for k, v in expected.items():
            assert p[k] == pytest.approx(v, abs=1e-12)

    def test_r_state(self):
        p = _projections(named_state("R"))
        expected = {"R": 1.0, "L": 0.0, "H": 0.5, "V": 0.5, "D": 0.5, "A": 0.5}
        for k, v in expected.items():
            assert p[k] == pytest.approx(v, abs=1e-12)

    def test_h_projection_is_exactly_one(self):
        # |<H|H>|^2 alone rounds to 1.0000000000000004; the pair sum divides it out
        assert _projections(named_state("H"))["H"] == 1.0

    @given(states())
    @settings(max_examples=200)
    def test_probabilities_lie_in_unit_interval(self, psi):
        assert all(0.0 <= p <= 1.0 for p in _projections(psi).values())

    @given(states())
    @settings(max_examples=50)
    def test_opposite_pairs_sum_to_one(self, psi):
        p = _projections(psi)
        for a, b in PROJECTOR_PAIRS:
            assert p[a] + p[b] == pytest.approx(1.0, abs=1e-12)


class TestSimulateCounts:
    def test_zero_probability(self):
        assert _clicks([0.0] * 6, 1000, seed=1) == [0] * 6

    def test_unit_probability(self):
        assert _clicks([1.0] * 6, 1000, seed=1) == [1000] * 6

    def test_reference_binomial_moments(self):
        p = 0.1219045690794387
        clicks = _clicks([p], 150_000, seed=123)
        mean = 150_000 * p
        sigma = math.sqrt(150_000 * p * (1 - p))
        assert abs(clicks[0] - mean) < 5 * sigma

    def test_seeded_determinism(self):
        probs = list(_projections(named_state("D")).values())
        a = _clicks(probs, 5000, seed=99)
        b = _clicks(probs, 5000, seed=99)
        assert a == b

    def test_different_seeds_differ(self):
        a = _clicks([0.5] * 6, 100_000, seed=1)
        b = _clicks([0.5] * 6, 100_000, seed=2)
        assert a != b

    def test_bg_expectation_attached(self):
        # the records of the pipeline carry bg * trials expected background clicks
        cfg = config.default_config("store_tomography")
        cfg = replace(cfg, trials_per_projection=2000, memory=replace(cfg.memory, bg_click=0.01))
        recs = pipeline.detection_records(pipeline.propagate("H", cfg, 1.0, 0.0), cfg, 0)
        assert recs[0].bg_clicks_expected == pytest.approx(20.0)

    def test_empirical_convergence(self):
        # 5-sigma band holds in at least 99 of 100 seeds at a million trials
        p = 0.3
        trials = 1_000_000
        band = 5 * math.sqrt(p * (1 - p) / trials)
        hits = 0
        for seed in range(100):
            clicks = _clicks([p], trials, seed=seed)[0]
            if abs(clicks / trials - p) < band:
                hits += 1
        assert hits >= 99

    @pytest.mark.parametrize("p", [1.0000000000000004, -1e-17, math.nan])
    def test_out_of_range_probability_raises(self, p):
        # no silent clip: click probabilities lie in [bg, 1] by construction
        with pytest.raises(ValueError):
            _clicks([p], 1000, seed=1)

    def test_canonical_order(self):
        cfg = replace(config.default_config("store_tomography"), trials_per_projection=10)
        recs = pipeline.detection_records(pipeline.propagate("H", cfg, 1.0, 0.0), cfg, 4)
        assert tuple(r.projector_id for r in recs) == PROJECTOR_ORDER


class TestRecordValidation:
    def test_clicks_bounded_by_trials(self):
        with pytest.raises(ValueError):
            CountRecord("H", 11, 10)

    def test_unknown_projector(self):
        with pytest.raises(ValueError):
            CountRecord("X", 0, 10)

    def test_source_params(self):
        with pytest.raises(ValueError):
            SourceParams(nbar=-0.1)


class TestCalibration:
    def test_snr_round_trip(self):
        bg = calibrate_background(0.5, 0.25, snr=12.0)
        assert snr_of(0.5, 0.25, bg) == pytest.approx(12.0, abs=1e-9)

    def test_snr_infinite_without_background(self):
        assert snr_of(0.5, 0.25, 0.0) == math.inf

    def test_raw_fidelity_inversion(self):
        # F = (1 + s*R/(R+2))/2 inverts back to the requested fidelity
        snr = snr_for_raw_fidelity(0.967)
        shrink = snr / (snr + 2.0)
        assert (1 + shrink) / 2 == pytest.approx(0.967, abs=1e-12)

    def test_raw_fidelity_with_floor(self):
        snr = snr_for_raw_fidelity(0.95, state_fidelity=0.99)
        shrink = snr / (snr + 2.0)
        assert (1 + (2 * 0.99 - 1) * shrink) / 2 == pytest.approx(0.95, abs=1e-12)

    def test_infeasible_target_rejected(self):
        with pytest.raises(RangeError):
            snr_for_raw_fidelity(0.99, state_fidelity=0.98)
