import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fidelity, states
from vortexmem.hilbert import BasisTag, RangeError, jones_of, make_state, named_state
from vortexmem.memory import MemoryParams, efficiency_at, rail_efficiencies, store_retrieve
from vortexmem.optics import displacer_recombine, displacer_split

MEASURED = MemoryParams(eta0=0.26, tau=7.0)


def _kept_fidelity(psi, p, t):
    """Fidelity of the whole retrieved field with the input: the recombined
    state's fidelity times the share of the throughput left in the logical
    space, so the leaked component counts against it."""
    rec = displacer_recombine(store_retrieve(displacer_split(psi), p, t))
    return fidelity(rec.state, psi) * (rec.throughput - rec.leak_power) / rec.throughput


class TestEfficiencyDecay:
    def test_peak_value_at_zero(self):
        assert efficiency_at(MEASURED, 0.0) == pytest.approx(0.26, abs=1e-15)

    def test_one_over_e_at_tau(self):
        assert efficiency_at(MEASURED, 7.0) == pytest.approx(0.26 * math.exp(-1), abs=1e-12)

    def test_vanishes_at_long_times(self):
        assert efficiency_at(MEASURED, 200.0) < 1e-10

    def test_negative_time_rejected(self):
        with pytest.raises(RangeError):
            efficiency_at(MEASURED, -0.1)

    @given(st.floats(0, 50, allow_nan=False), st.floats(0, 50, allow_nan=False))
    @settings(max_examples=100)
    def test_monotone_non_increasing(self, t1, t2):
        lo, hi = sorted((t1, t2))
        assert efficiency_at(MEASURED, hi) <= efficiency_at(MEASURED, lo) + 1e-15

    @given(st.floats(0, 100, allow_nan=False))
    def test_bounded_by_peak(self, t):
        assert 0.0 <= efficiency_at(MEASURED, t) <= MEASURED.eta0


class TestStoreRetrieve:
    def test_identity_when_noise_free(self):
        p = MemoryParams(eta0=1.0, tau=7.0)
        d = displacer_split(named_state("plus_i"))
        out = store_retrieve(d, p, 0.0)
        assert out.rail_h == d.rail_h
        assert out.rail_v == d.rail_v
        assert out.rail_phase == 0.0

    def test_rail_scaling_and_throughput(self):
        d = displacer_split(named_state("radial"))
        out = store_retrieve(d, MEASURED, 1.0)
        scale = math.sqrt(0.26 * math.exp(-1 / 49))
        for a, b in zip(out.rail_h + out.rail_v, d.rail_h + d.rail_v):
            assert a == pytest.approx(b * scale, abs=1e-15)
        assert out.power() == pytest.approx(0.2547476, abs=1e-6)

    def test_radial_state_survives_balanced_loss(self):
        psi = named_state("radial")
        for t in (0.0, 1.0, 5.0, 20.0):
            rec = displacer_recombine(store_retrieve(displacer_split(psi), MEASURED, t))
            assert fidelity(rec.state, psi) == pytest.approx(1.0, abs=1e-12)

    def test_oam_labels_unchanged(self):
        d = displacer_split(named_state("zero"))
        assert store_retrieve(d, MEASURED, 2.0).oam_labels == d.oam_labels

    def test_rail_phase_accumulates(self):
        p = MemoryParams(rail_phase_error=0.25)
        d = displacer_split(named_state("D"))
        out = store_retrieve(store_retrieve(d, p, 0.0), p, 0.0)
        assert out.rail_phase == pytest.approx(0.5, abs=1e-15)

    def test_rail_efficiencies_clamped(self):
        p = MemoryParams(eta0=1.0, tau=7.0, rail_imbalance=0.5)
        eta_h, eta_v = rail_efficiencies(p, 0.0)
        assert eta_h == 1.0  # would be 1.25 unclamped
        assert eta_v == pytest.approx(0.75, abs=1e-12)


class TestChannelInvariants:
    @given(states(BasisTag.HYBRID_POINCARE), st.floats(0, 30, allow_nan=False))
    @settings(max_examples=50)
    def test_balanced_memory_preserves_every_state(self, psi, t):
        rec = displacer_recombine(store_retrieve(displacer_split(psi), MEASURED, t))
        assert fidelity(rec.state, psi) > 1 - 1e-12

    @given(states(BasisTag.POLARIZATION), st.floats(0, 30, allow_nan=False))
    @settings(max_examples=50)
    def test_throughput_equals_efficiency_when_balanced(self, psi, t):
        rec = displacer_recombine(store_retrieve(displacer_split(psi), MEASURED, t))
        assert rec.throughput == pytest.approx(efficiency_at(MEASURED, t), abs=1e-12)

    def test_single_rail_states_immune_to_imbalance(self):
        p = MemoryParams(eta0=0.8, tau=7.0, rail_imbalance=0.4, rail_phase_error=0.7)
        for name in ("H", "V"):
            psi = named_state(name)
            rec = displacer_recombine(store_retrieve(displacer_split(psi), p, 1.0))
            assert fidelity(rec.state, psi) == pytest.approx(1.0, abs=1e-12)

    def test_imbalance_damages_two_rail_states(self):
        p = MemoryParams(eta0=0.8, tau=7.0, rail_imbalance=0.4)
        for name in ("zero", "radial", "D"):
            assert _kept_fidelity(named_state(name), p, 1.0) < 1 - 1e-4

    def test_polarization_kept_fidelity_matches_2x2_rail_map(self):
        # |<psi|M psi>|^2 / <M psi|M psi> with M the diagonal rail-loss map
        p = MemoryParams(eta0=0.7, tau=7.0, rail_imbalance=0.2, rail_phase_error=0.3)
        t = 0.8
        eta_h, eta_v = rail_efficiencies(p, t)
        m = np.diag([math.sqrt(eta_h), math.sqrt(eta_v) * cmath.exp(1j * p.rail_phase_error)])
        rng = np.random.default_rng(23)
        for _ in range(20):
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            c = c / np.linalg.norm(c)
            psi = make_state(c[0], c[1], BasisTag.POLARIZATION)
            jones = np.array(jones_of(psi))
            num = abs(np.conj(jones) @ m @ jones) ** 2
            den = float(np.real(np.conj(m @ jones) @ (m @ jones)))
            assert _kept_fidelity(psi, p, t) == pytest.approx(num / den, abs=1e-12)

    def test_hybrid_states_share_one_fidelity_curve(self):
        # every hybrid-sphere state splits half-and-half over the rails, so
        # imbalance and phase error hit the whole sphere uniformly
        p = MemoryParams(eta0=0.9, tau=7.0, rail_imbalance=0.3, rail_phase_error=0.2)
        values = {
            name: _kept_fidelity(named_state(name), p, 2.0)
            for name in ("zero", "one", "radial", "azimuthal", "plus_i", "minus_i")
        }
        ref = values["zero"]
        assert ref < 1 - 1e-4
        assert all(abs(v - ref) < 1e-12 for v in values.values())


class TestParamsValidation:
    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            MemoryParams(eta0=1.2)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            MemoryParams(tau=0.0)

    def test_rejects_bad_bg(self):
        with pytest.raises(ValueError):
            MemoryParams(bg_click=1.0)

    def test_rejects_negative_imbalance(self):
        with pytest.raises(ValueError):
            MemoryParams(rail_imbalance=-0.1)
