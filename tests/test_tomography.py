import math
import statistics

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import states
from oracles import (bloch_of, check_densities, click_probability, density_from_pure,
                     projection_probabilities, simulate_counts)
from vortexmem import config, pipeline, tomography
from vortexmem.hilbert import (
    HYBRID_SPHERE_NAMES,
    RangeError,
    densities_from_bloch,
    named_state,
)
from vortexmem.photodetection import (
    PROJECTOR_ORDER,
    CountRecord,
)
from vortexmem.tomography import (
    InsufficientCounts,
    bootstrap_fidelity,
    project_to_ball,
    stokes_of,
    subtract_background,
    tomograph,
)


def _records(clicks: dict[str, float], trials: int = 1000, bg: float = 0.0):
    return [CountRecord(k, v, trials, bg * trials) for k, v in clicks.items()]


def _density(s1, s2, s3):
    """Linear inversion of one Stokes vector, projected onto the Bloch ball."""
    return densities_from_bloch(project_to_ball(np.array([[s1, s2, s3]], dtype=float)))[0]


class TestBackgroundSubtract:
    def test_plain_subtraction(self):
        assert subtract_background(np.array([1000]), 100.0)[0] == 900

    def test_clamps_at_zero(self):
        assert subtract_background(np.array([50]), 100.0)[0] == 0

    def test_rounds_integer_records(self):
        out = subtract_background(np.array([1000, 7]), np.array([100.4, 2.6]))
        assert out.tolist() == [900.0, 4.0]

    def test_float_records_stay_exact(self):
        out = subtract_background(np.array([0.75]), 0.1)[0]
        assert out == pytest.approx(0.65, abs=1e-15)

    def test_corrected_at_least_raw_over_100_seeds(self):
        # noisy synthetic data in the measured regime; the correction must
        # never lose to the raw reconstruction
        psi = named_state("R")
        target_probs = projection_probabilities(psi)
        nbar, survival, bg = 0.5, 0.25, 0.005
        click_probs = {
            k: click_probability(nbar, survival, p, bg) for k, p in target_probs.items()
        }
        for seed in range(100):
            records = simulate_counts(click_probs, 150_000, seed, bg=bg)
            f_raw = tomograph(records).fidelity_vs(psi)
            f_corr = tomograph(records, subtract_bg=True).fidelity_vs(psi)
            assert f_corr >= f_raw


class TestStokesFromCounts:
    def test_h_state_exact(self):
        s = tomograph(_records({"H": 1000, "V": 0, "D": 500, "A": 500, "R": 500, "L": 500})).stokes
        assert (s.s1, s.s2, s.s3) == (1.0, 0.0, 0.0)

    def test_maximally_mixed(self):
        s = tomograph(_records({k: 500 for k in PROJECTOR_ORDER})).stokes
        assert (s.s1, s.s2, s.s3) == (0.0, 0.0, 0.0)

    def test_d_state_sampled(self):
        probs = projection_probabilities(named_state("D"))
        records = simulate_counts(probs, 150_000, 21)
        result = tomograph(records)
        assert bloch_of(result.rho).s2 == pytest.approx(1.0, abs=0.02)

    def test_missing_projector_rejected(self):
        with pytest.raises(ValueError):
            tomograph(_records({"H": 10, "V": 10}))

    def test_zero_pair_rejected(self):
        with pytest.raises(InsufficientCounts):
            tomograph(_records({"H": 0, "V": 0, "D": 5, "A": 5, "R": 5, "L": 5}))

    def test_pairwise_normalization_immune_to_pair_gain(self):
        base = {"H": 800, "V": 200, "D": 500, "A": 500, "R": 300, "L": 700}
        scaled = dict(base, D=50, A=50)  # 10x lower gain on the D/A pair
        s1 = tomograph(_records(base)).stokes
        s2 = tomograph(_records(scaled)).stokes
        assert (s1.s1, s1.s2, s1.s3) == (s2.s1, s2.s2, s2.s3)


class TestDensityFromStokes:
    def test_pole(self):
        rho = _density(0, 0, 1)
        assert np.allclose(rho, np.diag([1, 0]), atol=1e-15)

    def test_mixed(self):
        rho = _density(0, 0, 0)
        assert np.allclose(rho, np.eye(2) / 2, atol=1e-15)

    def test_radial_projection_of_overlong_vector(self):
        rho = _density(0, 0, 1.04)
        assert np.allclose(rho, np.diag([1, 0]), atol=1e-12)

    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=100)
    def test_always_physical(self, s1, s2, s3):
        rho = _density(s1, s2, s3)
        check_densities(rho[None])


class TestTomograph:
    def test_noiseless_six_states_at_experiment_trials(self):
        # measured on the decoded polarization image of each hybrid state;
        # components are identical under the project conventions
        for i, name in enumerate(HYBRID_SPHERE_NAMES):
            probs = projection_probabilities(_decoded(name))
            records = simulate_counts(probs, 150_000, 100 + i)
            result = tomograph(records)
            assert result.fidelity_vs(_decoded(name)) > 0.99

    @given(states())
    @settings(max_examples=50)
    def test_exact_round_trip(self, psi):
        probs = projection_probabilities(psi)
        s = stokes_of(np.array([[probs[k] for k in PROJECTOR_ORDER]]))[0]
        rho = _density(*s.tolist())
        target = density_from_pure(psi)
        assert np.allclose(rho, target, atol=1e-12)

    def test_unbiased_at_large_trials(self):
        psi = named_state("plus_i")
        pol = _decoded("plus_i")
        probs = projection_probabilities(pol)
        trials = 10_000
        estimates = []
        for seed in range(200):
            records = simulate_counts(probs, trials, seed)
            s = tomograph(records).stokes
            estimates.append([s.s1, s.s2, s.s3])
        est = np.array(estimates)
        truth = bloch_of(density_from_pure(pol))
        se = est.std(axis=0, ddof=1) / math.sqrt(len(est))
        for mean, true_val, err in zip(est.mean(axis=0), (truth.s1, truth.s2, truth.s3), se):
            assert abs(mean - true_val) <= 3 * max(err, 1e-6)


def _decoded(name):
    """Polarization image of a hybrid state under the decoding plate."""
    from vortexmem.optics import QPlateParams, qplate_pass

    return qplate_pass(named_state(name), QPlateParams(), -1)


class TestBootstrap:
    def test_interval_brackets_point_estimate(self):
        pol = _decoded("radial")
        probs = projection_probabilities(pol)
        records = simulate_counts(probs, 20_000, 3)
        point = tomograph(records).fidelity_vs(pol)
        mean, std = bootstrap_fidelity(records, pol, n_resamples=100, seed=5)
        assert std > 0.0
        assert abs(mean - point) < 5 * std + 1e-3

    def test_deterministic(self):
        pol = _decoded("one")
        records = simulate_counts(projection_probabilities(pol), 5000, 8)
        assert bootstrap_fidelity(records, pol, seed=1) == bootstrap_fidelity(records, pol, seed=1)

    @pytest.mark.parametrize("subtract_bg", [False, True], ids=["raw", "corrected"])
    @pytest.mark.parametrize("state", ["radial", "zero"])
    def test_std_matches_spread_across_seeds(self, state, subtract_bg):
        # store_tomography preset at 1 us: the median bootstrap std of single
        # runs against the std of the point fidelity over 120 independent
        # runs, which itself has a relative standard error of ~6.5 %
        # (1/sqrt(2 * 119)); the band allows about three of those
        cfg = config.default_config("store_tomography")
        mix = pipeline.propagate(state, cfg, 1.0, 0.0)
        points, stds = [], []
        for seed in range(120):
            records = pipeline.detection_records(mix, cfg, seed)
            points.append(tomograph(records, subtract_bg).fidelity_vs(mix.target))
            _, std = bootstrap_fidelity(records, mix.target, 200, 100_000 + seed, subtract_bg)
            stds.append(std)
        ratio = statistics.median(stds) / statistics.stdev(points)
        assert 0.8 <= ratio <= 1.25

    @pytest.mark.parametrize("n_resamples", [0, -1, 2.5])
    def test_unusable_resample_count_rejected_before_drawing(self, n_resamples):
        # 0 gave (nan, nan) with a RuntimeWarning, -1 a numpy shape error
        pol = _decoded("one")
        records = simulate_counts(projection_probabilities(pol), 5000, 8)
        tomography._resample.cache_clear()
        with pytest.raises(RangeError, match=rf"n_resamples {n_resamples}\b"):
            bootstrap_fidelity(records, pol, n_resamples=n_resamples)
        assert tomography._resample.cache_info().misses == 0

    def test_bool_resample_count_rejected_before_drawing(self):
        # True is an Integral >= 1, but numpy's binomial refuses it as a size
        pol = _decoded("one")
        records = simulate_counts(projection_probabilities(pol), 5000, 8)
        tomography._resample.cache_clear()
        with pytest.raises(TypeError, match=r"n_resamples True is not an integer"):
            bootstrap_fidelity(records, pol, n_resamples=True)
        assert tomography._resample.cache_info().misses == 0


    def test_a_pair_emptied_by_a_resample_is_named(self):
        """Records that fill every pair, H with 3 clicks in 150 000 trials,
        give a point estimate, but some of 200 redraws empty (H, V); the
        bootstrap raises and says so, rather than fabricating."""
        records = _records(dict(zip("HVDARL", (3, 0, 500, 500, 500, 500))), trials=150_000)
        assert tomograph(records).fidelity_vs((1, 0)) == 0.5
        with pytest.raises(InsufficientCounts, match=r"^pair \(H, V\) has zero counts in a "
                                                     r"resample: the records fill the pair.*"
                                                     r"need more clicks$"):
            bootstrap_fidelity(records, (1, 0), 200, 0)

    def test_a_pair_the_records_leave_empty_is_theirs(self):
        records = _records(dict(zip("HVDARL", (300, 300, 0, 0, 500, 500))), trials=150_000)
        with pytest.raises(InsufficientCounts, match=r"^pair \(D, A\) has zero counts$"):
            bootstrap_fidelity(records, (1, 0), 200, 0)


class TestBootstrapDraw:
    """One binomial draw per (trials, clicks, n_resamples, seed), shared by
    consecutive calls and identical to an uncached draw."""

    @staticmethod
    def _bits(result):
        return [v.hex() for v in result]

    def test_corrected_call_reuses_the_raw_draw(self):
        pol = _decoded("radial")
        records = simulate_counts(projection_probabilities(pol), 20_000, 3, bg=0.002)
        tomography._resample.cache_clear()
        bootstrap_fidelity(records, pol, 50, 9, subtract_bg=False)
        bootstrap_fidelity(records, pol, 50, 9, subtract_bg=True)
        info = tomography._resample.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_interleaved_record_sets_match_cold_calls(self):
        pol = _decoded("radial")
        a = simulate_counts(projection_probabilities(pol), 20_000, 3, bg=0.002)
        b = simulate_counts(projection_probabilities(pol), 20_000, 4, bg=0.002)
        calls = [(a, False), (a, True), (b, False), (b, True), (a, False), (a, True)]
        tomography._resample.cache_clear()
        warm = [self._bits(bootstrap_fidelity(r, pol, 60, 5, bg)) for r, bg in calls]
        cold = []
        for r, bg in calls:
            tomography._resample.cache_clear()
            cold.append(self._bits(bootstrap_fidelity(r, pol, 60, 5, bg)))
        assert warm == cold

    def test_cached_draw_is_read_only(self):
        draws = tomography._resample((1000, 1000), (400, 900), 4, 2)
        assert tomography._resample((1000, 1000), (400, 900), 4, 2) is draws
        with pytest.raises(ValueError, match="read-only"):
            draws[0, 0] = 0

    @pytest.mark.parametrize("seed", [np.random.default_rng(7), np.random.SeedSequence(7)],
                             ids=["generator", "seed_sequence"])
    def test_non_integer_seed_rejected(self, seed):
        pol = _decoded("one")
        records = simulate_counts(projection_probabilities(pol), 5000, 8)
        with pytest.raises(TypeError):
            bootstrap_fidelity(records, pol, 20, seed)

    @pytest.mark.parametrize("seed, error, message", [
        (-1, RangeError, r"seed -1 is negative"),
        (np.int64(-5), RangeError, r"seed -5 is negative"),
        (True, TypeError, r"seed True is not an integer"),
        (False, TypeError, r"seed False is not an integer"),
    ], ids=["negative", "numpy_negative", "true", "false"])
    def test_unusable_seed_rejected_before_drawing(self, seed, error, message):
        # -1 escaped as numpy's bare "expected non-negative integer", and True
        # drew as seed 1; run seeds are checked the same way (ExperimentConfig)
        pol = _decoded("one")
        records = simulate_counts(projection_probabilities(pol), 5000, 8)
        tomography._resample.cache_clear()
        with pytest.raises(error, match=message):
            bootstrap_fidelity(records, pol, 20, seed)
        assert tomography._resample.cache_info().misses == 0

    def test_numpy_integer_seed_draws_as_python_int(self):
        pol = _decoded("one")
        records = simulate_counts(projection_probabilities(pol), 5000, 8)
        tomography._resample.cache_clear()
        got = bootstrap_fidelity(records, pol, 20, np.int64(7))
        tomography._resample.cache_clear()
        assert self._bits(got) == self._bits(bootstrap_fidelity(records, pol, 20, 7))


class TestAdversarialPhysicality:
    @given(
        st.tuples(*[st.integers(0, 1000) for _ in range(6)]),
        st.booleans(),
    )
    @settings(max_examples=200)
    def test_any_counts_give_physical_rho(self, clicks, subtract):
        clicks = list(clicks)
        # keep every basis pair observable, also after subtraction
        for i in (0, 2, 4):
            if clicks[i] + clicks[i + 1] <= 8:
                clicks[i] = 10
        records = [
            CountRecord(name, c, 1000, 3.0)
            for name, c in zip(PROJECTOR_ORDER, clicks)
        ]
        result = tomograph(records, subtract_bg=subtract)
        check_densities(result.rho[None])

    @given(data=st.data(), integer=st.booleans(), subtract=st.booleans(),
           n=st.integers(1, 4))
    @settings(max_examples=300)
    def test_reconstructed_stacks_pass_the_check_fidelities_skips(
            self, data, integer, subtract, n):
        """Every count stack that reconstruct accepts gives matrices that
        pass the reference physicality check, which hilbert.fidelities
        relies on and does not repeat.  Pairs are drawn free, at a pole (one
        count zero) or nearly even on large totals, so that |s| lands just
        past 1 and projection fires."""
        count = st.integers(0, 10**9) if integer else st.floats(0.0, 1e9)
        big = st.integers(10**6, 10**9) if integer else st.floats(1e6, 1e9)
        pair = st.one_of(
            st.tuples(count, count),
            count.map(lambda c: (c, 0)), count.map(lambda c: (0, c)),
            st.tuples(big, st.integers(-50, 50)).map(lambda t: (t[0], t[0] + t[1])),
        )
        rows = data.draw(st.lists(st.tuples(pair, pair, pair), min_size=n, max_size=n))
        counts = np.array([[c for p in row for c in p] for row in rows],
                          dtype=np.int64 if integer else float)
        if subtract:
            bg = data.draw(st.lists(st.floats(0.0, 100.0), min_size=6, max_size=6))
            counts = subtract_background(counts, np.array(bg))
        try:
            _, rho = tomography.reconstruct(counts)
        except InsufficientCounts:
            assume(False)
        check_densities(rho)

    def test_projected_stack_passes_the_check(self):
        """A pole on one pair and a 2e-8 asymmetry on another: |s| > 1 in
        float arithmetic, so reconstruct projects the vector."""
        counts = np.array([[10**9, 0, 10**9, 10**9 - 40, 5, 5]])
        stokes, rho = tomography.reconstruct(counts)
        assert math.sqrt(float(np.sum(stokes * stokes))) > 1.0
        check_densities(rho)

    def test_starved_pair_raises_rather_than_fabricating(self):
        records = [
            CountRecord("H", 2, 1000, 5.0),
            CountRecord("V", 1, 1000, 5.0),
            CountRecord("D", 500, 1000, 5.0),
            CountRecord("A", 500, 1000, 5.0),
            CountRecord("R", 500, 1000, 5.0),
            CountRecord("L", 500, 1000, 5.0),
        ]
        with pytest.raises(InsufficientCounts):
            tomograph(records, subtract_bg=True)
