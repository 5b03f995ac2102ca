import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexmem.security import (
    SHOR_PRESKILL_THRESHOLD,
    BenchmarkInput,
    RangeError,
    classical_bound_nphoton,
    classical_bound_poisson,
    classical_bound_with_efficiency,
    shor_preskill_passes,
)

mp.mp.dps = 40


def poisson_bound_oracle(nbar: float, nmax: int = 300) -> float:
    """High-precision series oracle, independent of the implementation."""
    nb = mp.mpf(nbar)
    total = mp.mpf(0)
    for n in range(1, nmax + 1):
        p = mp.e ** (-nb) * nb**n / mp.factorial(n)
        total += mp.mpf(n + 1) / (n + 2) * p
    return float(total / (1 - mp.e ** (-nb)))


def efficiency_bound_oracle(nbar: float, eta: float, kmax: int = 40) -> float:
    """Brute-force threshold search with fractional boundary acceptance."""
    nb = mp.mpf(nbar)
    terms = [mp.e ** (-nb) * nb**n / mp.factorial(n) for n in range(kmax + 300)]
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


class TestNPhotonBound:
    def test_single_photon_limit(self):
        assert classical_bound_nphoton(1) == 2 / 3  # bit-exact same division

    def test_two_photons(self):
        assert classical_bound_nphoton(2) == 0.75

    def test_monotone_to_one(self):
        values = [classical_bound_nphoton(n) for n in range(1, 60)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert classical_bound_nphoton(10_000) > 0.999

    def test_domain_error(self):
        with pytest.raises(RangeError):
            classical_bound_nphoton(0)


class TestPoissonBound:
    def test_reference_value(self):
        assert classical_bound_poisson(0.5) == pytest.approx(0.6878, abs=5e-4)

    def test_against_high_precision_oracle(self):
        for nbar in (0.05, 0.1, 0.5, 1.0, 2.0, 5.0):
            assert classical_bound_poisson(nbar) == pytest.approx(
                poisson_bound_oracle(nbar), abs=1e-12
            )

    def test_small_nbar_limit(self):
        assert classical_bound_poisson(1e-6) == pytest.approx(2 / 3, abs=1e-6)

    def test_extreme_nbar_values(self):
        # below double resolution the single-photon term is everything
        assert classical_bound_poisson(1e-300) == pytest.approx(2 / 3, abs=1e-12)
        # bright-pulse side stays finite and close to 1 within the guard
        assert classical_bound_poisson(600.0) > 0.995
        with pytest.raises(RangeError):
            classical_bound_poisson(800.0)

    def test_monotone_in_nbar(self):
        assert classical_bound_poisson(1.0) > classical_bound_poisson(0.5)

    @given(st.floats(1e-3, 5.0, allow_nan=False))
    @settings(max_examples=50)
    def test_stays_in_open_interval(self, nbar):
        b = classical_bound_poisson(nbar)
        assert 2 / 3 < b < 1.0

    def test_truncation_stability(self):
        # doubling the summation depth moves the value by less than 1e-12
        nbar = 0.5
        def partial(depth):
            total = sum(
                (n + 1) / (n + 2) * math.exp(-nbar) * nbar**n / math.factorial(n)
                for n in range(1, depth)
            )
            return total / (1 - math.exp(-nbar))
        assert abs(partial(40) - partial(80)) < 1e-12
        assert classical_bound_poisson(nbar) == pytest.approx(partial(80), abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(RangeError):
            classical_bound_poisson(0.0)
        with pytest.raises(RangeError):
            classical_bound_poisson(-0.5)


class TestEfficiencyBound:
    def test_equals_poisson_bound_at_unit_efficiency(self):
        for nbar in (0.1, 0.5, 1.0):
            full = classical_bound_with_efficiency(BenchmarkInput(nbar, 1.0))
            assert full == pytest.approx(classical_bound_poisson(nbar), abs=1e-12)

    def test_small_efficiency_approaches_one(self):
        b6 = classical_bound_with_efficiency(BenchmarkInput(0.5, 1e-6))
        b12 = classical_bound_with_efficiency(BenchmarkInput(0.5, 1e-12))
        assert b6 > 0.85
        assert b12 > b6  # keeps climbing toward 1 as the memory keeps less

    def test_measured_operating_point_exceeds_poisson_bound(self):
        bound = classical_bound_with_efficiency(BenchmarkInput(0.5, 0.26))
        assert bound > classical_bound_poisson(0.5) + 1e-3
        assert bound == pytest.approx(0.747790549467, abs=1e-9)

    def test_matches_brute_force_threshold_search(self):
        for nbar, eta in ((0.5, 0.26), (0.5, 0.1), (1.0, 0.26), (0.1, 0.5), (2.0, 0.7)):
            got = classical_bound_with_efficiency(BenchmarkInput(nbar, eta))
            assert got == pytest.approx(efficiency_bound_oracle(nbar, eta), abs=1e-9)

    def test_monotone_non_increasing_in_eta(self):
        values = [
            classical_bound_with_efficiency(BenchmarkInput(0.5, eta))
            for eta in (0.05, 0.1, 0.26, 0.5, 0.9, 1.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_monotone_non_decreasing_in_nbar(self):
        values = [
            classical_bound_with_efficiency(BenchmarkInput(nbar, 0.26))
            for nbar in (0.1, 0.5, 1.0, 2.0)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_underflowing_budget_is_the_top_term_limit(self):
        # eta * (1 - P(0)) underflows to 0; a tiny budget gives the same value
        assert classical_bound_with_efficiency(BenchmarkInput(5e-324, 1e-12)) == 2 / 3
        tiny = classical_bound_with_efficiency(BenchmarkInput(5e-300, 1e-12))
        assert tiny == pytest.approx(2 / 3, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(RangeError):
            BenchmarkInput(0.0, 0.26)
        with pytest.raises(RangeError):
            BenchmarkInput(0.5, 0.0)
        with pytest.raises(RangeError):
            BenchmarkInput(0.5, 1.2)


@pytest.mark.parametrize("nbar, eta, want", [
    (5e-324, None, 2 / 3),
    (1e-320, None, 2 / 3),
    (0.5, 1e-322, 14 / 15),
    (0.5, 1e-318, 14 / 15),
])
def test_subnormal_nbar_or_budget_gives_the_limit(nbar, eta, want):
    # 1 - P(0), or the budget eta * (1 - P(0)), is subnormal and carries too
    # few bits for the ratios: the bound is the limit it tends to, the single
    # photon or, for a vanishing budget at nbar = 0.5, the top term N = 13
    bound = (classical_bound_poisson(nbar) if eta is None
             else classical_bound_with_efficiency(BenchmarkInput(nbar, eta)))
    assert bound == pytest.approx(want, abs=1e-12)


class TestShorPreskill:
    def test_measured_average_passes(self):
        assert shor_preskill_passes(np.array([0.967])).tolist() == [True]

    def test_threshold_is_strict(self):
        assert shor_preskill_passes(np.array([0.89])).tolist() == [False]
        assert SHOR_PRESKILL_THRESHOLD == 0.89

    def test_classical_limit_fails(self):
        assert shor_preskill_passes(np.array([0.667])).tolist() == [False]

    def test_range_error(self):
        with pytest.raises(RangeError):
            shor_preskill_passes(np.array([1.5]))
        with pytest.raises(RangeError):
            shor_preskill_passes(np.array([-0.1]))
