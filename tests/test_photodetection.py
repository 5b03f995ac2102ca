import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import states
from vortexmem.hilbert import BasisTag, named_state
from vortexmem.photodetection import (
    PROJECTOR_ORDER,
    PROJECTOR_PAIRS,
    CountRecord,
    RangeError,
    SourceParams,
    calibrate_background,
    click_probability,
    projection_probabilities,
    simulate_counts,
    snr_for_raw_fidelity,
    snr_of,
)

probs01 = st.floats(0, 1, allow_nan=False)


class TestClickProbability:
    def test_vacuum_no_dark_counts(self):
        assert click_probability(0.0, 0.5, 0.5, 0.0) == 0.0

    def test_bright_pulse_saturates(self):
        assert click_probability(1e9, 1.0, 0.5, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_reference_value(self):
        p = click_probability(0.5, 0.26, 1.0, 0.0)
        assert p == pytest.approx(0.1219045690794387, abs=1e-12)

    @given(probs01, probs01)
    def test_reduces_to_bg_without_signal(self, survival, proj):
        bg = 0.37
        assert click_probability(0.0, survival, proj, bg) == pytest.approx(bg, abs=1e-12)
        assert click_probability(0.5, 0.0, proj, bg) == pytest.approx(bg, abs=1e-12)
        assert click_probability(0.5, survival, 0.0, bg) == pytest.approx(bg, abs=1e-12)

    @given(st.floats(0, 5, allow_nan=False), st.floats(0, 5, allow_nan=False),
           probs01, st.floats(0, 0.99, allow_nan=False))
    @settings(max_examples=100)
    def test_monotone_in_nbar(self, n1, n2, surv, bg):
        lo, hi = sorted((n1, n2))
        assert click_probability(hi, surv, 1.0, bg) >= click_probability(lo, surv, 1.0, bg)

    @given(st.floats(0, 5, allow_nan=False), probs01, probs01, st.floats(0, 0.99, allow_nan=False))
    @settings(max_examples=100)
    def test_range_of_output(self, nbar, surv, proj, bg):
        p = click_probability(nbar, surv, proj, bg)
        assert bg - 1e-15 <= p < 1.0

    def test_range_errors(self):
        with pytest.raises(RangeError):
            click_probability(-1.0, 0.5, 0.5, 0.0)
        with pytest.raises(RangeError):
            click_probability(0.5, 1.5, 0.5, 0.0)
        with pytest.raises(RangeError):
            click_probability(0.5, 0.5, -0.1, 0.0)
        with pytest.raises(RangeError):
            click_probability(0.5, 0.5, 0.5, 1.0)


class TestProjectionProbabilities:
    def test_h_state(self):
        p = projection_probabilities(named_state("H"))
        expected = {"H": 1.0, "V": 0.0, "D": 0.5, "A": 0.5, "R": 0.5, "L": 0.5}
        for k, v in expected.items():
            assert p[k] == pytest.approx(v, abs=1e-12)

    def test_d_state(self):
        p = projection_probabilities(named_state("D"))
        expected = {"D": 1.0, "A": 0.0, "H": 0.5, "V": 0.5, "R": 0.5, "L": 0.5}
        for k, v in expected.items():
            assert p[k] == pytest.approx(v, abs=1e-12)

    def test_r_state(self):
        p = projection_probabilities(named_state("R"))
        expected = {"R": 1.0, "L": 0.0, "H": 0.5, "V": 0.5, "D": 0.5, "A": 0.5}
        for k, v in expected.items():
            assert p[k] == pytest.approx(v, abs=1e-12)

    def test_rejects_hybrid_states(self):
        with pytest.raises(ValueError):
            projection_probabilities(named_state("radial"))

    def test_h_projection_is_exactly_one(self):
        # |<H|H>|^2 alone rounds to 1.0000000000000004; the pair sum divides it out
        assert projection_probabilities(named_state("H"))["H"] == 1.0

    @given(states(BasisTag.POLARIZATION))
    @settings(max_examples=200)
    def test_probabilities_lie_in_unit_interval(self, psi):
        assert all(0.0 <= p <= 1.0 for p in projection_probabilities(psi).values())

    @given(states(BasisTag.POLARIZATION))
    @settings(max_examples=50)
    def test_opposite_pairs_sum_to_one(self, psi):
        p = projection_probabilities(psi)
        for a, b in PROJECTOR_PAIRS:
            assert p[a] + p[b] == pytest.approx(1.0, abs=1e-12)


class TestSimulateCounts:
    def test_zero_probability(self):
        recs = simulate_counts({k: 0.0 for k in PROJECTOR_ORDER}, 1000, seed=1)
        assert all(r.clicks == 0 for r in recs)

    def test_unit_probability(self):
        recs = simulate_counts({k: 1.0 for k in PROJECTOR_ORDER}, 1000, seed=1)
        assert all(r.clicks == 1000 for r in recs)

    def test_reference_binomial_moments(self):
        p = 0.1219045690794387
        recs = simulate_counts({"H": p}, 150_000, seed=123)
        mean = 150_000 * p
        sigma = math.sqrt(150_000 * p * (1 - p))
        assert abs(recs[0].clicks - mean) < 5 * sigma

    def test_seeded_determinism(self):
        probs = projection_probabilities(named_state("D"))
        a = simulate_counts(probs, 5000, seed=99, bg=0.01)
        b = simulate_counts(probs, 5000, seed=99, bg=0.01)
        assert a == b

    def test_different_seeds_differ(self):
        probs = {k: 0.5 for k in PROJECTOR_ORDER}
        a = simulate_counts(probs, 100_000, seed=1)
        b = simulate_counts(probs, 100_000, seed=2)
        assert any(x.clicks != y.clicks for x, y in zip(a, b))

    def test_bg_expectation_attached(self):
        recs = simulate_counts({"H": 0.5}, 2000, seed=0, bg=0.01)
        assert recs[0].bg_clicks_expected == pytest.approx(20.0)

    def test_empirical_convergence(self):
        # 5-sigma band holds in at least 99 of 100 seeds at a million trials
        p = 0.3
        trials = 1_000_000
        band = 5 * math.sqrt(p * (1 - p) / trials)
        hits = 0
        for seed in range(100):
            r = simulate_counts({"H": p}, trials, seed=seed)[0]
            if abs(r.clicks / trials - p) < band:
                hits += 1
        assert hits >= 99

    @pytest.mark.parametrize("p", [1.0000000000000004, -1e-17, math.nan])
    def test_out_of_range_probability_raises(self, p):
        # no silent clip: click probabilities lie in [bg, 1] by construction
        with pytest.raises(ValueError):
            simulate_counts({"H": p}, 1000, seed=1)

    def test_canonical_order(self):
        probs = {k: 0.5 for k in PROJECTOR_ORDER}
        recs = simulate_counts(probs, 10, seed=4)
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
