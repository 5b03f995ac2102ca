import cmath
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import fidelity, haar_states, states
from oracles import State, displacer_recombine, displacer_split, jones_of, state, store_retrieve
from vortexmem import config, pipeline
from vortexmem.hilbert import HYBRID_SPHERE_NAMES, POLARIZATION_NAMES, RangeError, normalized
from vortexmem.memory import MemoryParams, efficiency_at, rail_efficiencies, rail_gains
from vortexmem.optics import QPlateParams

MEASURED = MemoryParams(eta0=0.26, tau=7.0)
# the rail imbalance x phase error grid of the closed-form checks: the
# values of the rail-chain tests, their neighbours and a phase error of pi
IMBALANCES = (0.0, 0.05, 0.2, 0.3, 0.4, 0.5)
PHASE_ERRORS = (0.0, 0.05, 0.2, 0.25, 0.3, 0.7, math.pi)
ROUND_OFF = 1e-15


def _kept_fidelity(psi, p, t):
    """Fidelity of the whole retrieved field with the input state psi (an
    oracle State): the recombined state's fidelity times the share of the
    throughput left in the logical space, so the leaked component counts
    against it."""
    rec = displacer_recombine(store_retrieve(displacer_split(psi), p, t))
    return fidelity(rec.state.vector(), psi.vector()) * (rec.throughput - rec.leak_power) / rec.throughput


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
    """The memory step of the dual-rail chain (tests/oracles.py)."""

    def test_identity_when_noise_free(self):
        p = MemoryParams(eta0=1.0, tau=7.0)
        d = displacer_split(state("plus_i"))
        out = store_retrieve(d, p, 0.0)
        assert out.rail_h == d.rail_h
        assert out.rail_v == d.rail_v
        assert out.rail_phase == 0.0

    def test_rail_scaling_and_throughput(self):
        d = displacer_split(state("radial"))
        out = store_retrieve(d, MEASURED, 1.0)
        scale = math.sqrt(0.26 * math.exp(-1 / 49))
        for a, b in zip(out.rail_h + out.rail_v, d.rail_h + d.rail_v):
            assert a == pytest.approx(b * scale, abs=1e-15)
        assert out.power() == pytest.approx(0.2547476, abs=1e-6)

    def test_radial_state_survives_balanced_loss(self):
        psi = state("radial")
        for t in (0.0, 1.0, 5.0, 20.0):
            rec = displacer_recombine(store_retrieve(displacer_split(psi), MEASURED, t))
            assert fidelity(rec.state.vector(), psi.vector()) == pytest.approx(1.0, abs=1e-12)

    def test_oam_labels_unchanged(self):
        d = displacer_split(state("zero"))
        assert store_retrieve(d, MEASURED, 2.0).oam_labels == d.oam_labels

    def test_rail_phase_accumulates(self):
        p = MemoryParams(rail_phase_error=0.25)
        d = displacer_split(state("D"))
        out = store_retrieve(store_retrieve(d, p, 0.0), p, 0.0)
        assert out.rail_phase == pytest.approx(0.5, abs=1e-15)

    def test_rail_efficiencies_clamped(self):
        p = MemoryParams(eta0=1.0, tau=7.0, rail_imbalance=0.5)
        eta_h, eta_v = rail_efficiencies(p, 0.0)
        assert eta_h == 1.0  # would be 1.25 unclamped
        assert eta_v == pytest.approx(0.75, abs=1e-12)


class TestChannelInvariants:
    @given(states(), st.floats(0, 30, allow_nan=False))
    @settings(max_examples=50)
    def test_balanced_memory_preserves_every_state(self, c, t):
        psi = State(*c, hybrid=True)
        rec = displacer_recombine(store_retrieve(displacer_split(psi), MEASURED, t))
        assert fidelity(rec.state.vector(), c) > 1 - 1e-12

    @given(states(), st.floats(0, 30, allow_nan=False))
    @settings(max_examples=50)
    def test_throughput_equals_efficiency_when_balanced(self, c, t):
        psi = State(*c, hybrid=False)
        rec = displacer_recombine(store_retrieve(displacer_split(psi), MEASURED, t))
        assert rec.throughput == pytest.approx(efficiency_at(MEASURED, t), abs=1e-12)

    def test_single_rail_states_immune_to_imbalance(self):
        p = MemoryParams(eta0=0.8, tau=7.0, rail_imbalance=0.4, rail_phase_error=0.7)
        for name in ("H", "V"):
            psi = state(name)
            rec = displacer_recombine(store_retrieve(displacer_split(psi), p, 1.0))
            assert fidelity(rec.state.vector(), psi.vector()) == pytest.approx(1.0, abs=1e-12)

    def test_imbalance_damages_two_rail_states(self):
        p = MemoryParams(eta0=0.8, tau=7.0, rail_imbalance=0.4)
        for name in ("zero", "radial", "D"):
            assert _kept_fidelity(state(name), p, 1.0) < 1 - 1e-4

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
            psi = State(*normalized(c[0], c[1]), hybrid=False)
            jones = np.array(jones_of(psi))
            num = abs(np.conj(jones) @ m @ jones) ** 2
            den = float(np.real(np.conj(m @ jones) @ (m @ jones)))
            assert _kept_fidelity(psi, p, t) == pytest.approx(num / den, abs=1e-12)

    def test_hybrid_states_share_one_fidelity_curve(self):
        # every hybrid-sphere state splits half-and-half over the rails, so
        # imbalance and phase error hit the whole sphere uniformly
        p = MemoryParams(eta0=0.9, tau=7.0, rail_imbalance=0.3, rail_phase_error=0.2)
        values = {
            name: _kept_fidelity(state(name), p, 2.0)
            for name in ("zero", "one", "radial", "azimuthal", "plus_i", "minus_i")
        }
        ref = values["zero"]
        assert ref < 1 - 1e-4
        assert all(abs(v - ref) < 1e-12 for v in values.values())


class TestClosedForm:
    """memory.rail_gains and the pipeline's light against the dual-rail
    chain: kept weight, leak split and state overlap agree to round-off.
    The overlap is weighted by the kept power: where almost nothing is kept
    (a phase error of pi on balanced rails), the chain's renormalized state
    is round-off and says nothing."""

    @pytest.mark.parametrize("phase_error", PHASE_ERRORS)
    @pytest.mark.parametrize("imbalance", IMBALANCES)
    def test_gains_match_rail_chain(self, imbalance, phase_error):
        rng = np.random.default_rng(29)
        times = (0.0, 1.0, 2.5, 7.0)
        for eta0 in (0.26, 0.8, 1.0):
            p = MemoryParams(eta0=eta0, tau=7.0, rail_imbalance=imbalance,
                             rail_phase_error=phase_error)
            gains = zip(*rail_gains(p, times))
            for t, (g, h) in zip(times, gains):
                for psi in haar_states(rng, 5):
                    rec = displacer_recombine(store_retrieve(
                        displacer_split(State(*psi, hybrid=True)), p, t))
                    assert abs(abs(g) ** 2 - (rec.throughput - rec.leak_power)) <= ROUND_OFF
                    for c, leak in zip(psi, rec.leak):
                        assert abs(abs(c * h) ** 2 - abs(leak) ** 2) <= ROUND_OFF
                    assert abs(g) ** 2 * abs(fidelity(rec.state.vector(), psi) - 1.0) <= ROUND_OFF
                for psi in haar_states(rng, 5):
                    rec = displacer_recombine(store_retrieve(
                        displacer_split(State(*psi, hybrid=False)), p, t))
                    c0, c1 = g * psi[0] + h * psi[1], h * psi[0] + g * psi[1]
                    power = abs(c0) ** 2 + abs(c1) ** 2
                    assert abs(power - rec.throughput) <= ROUND_OFF
                    out = normalized(c0, c1)
                    assert power * abs(fidelity(rec.state.vector(), out) - 1.0) <= ROUND_OFF

    def test_balanced_memory_leaks_nothing(self):
        for t in (0.0, 1.0, 5.0, 20.0):
            g, h = rail_gains(MEASURED, [t])
            assert h[0] == 0.0
            assert abs(g[0]) ** 2 == pytest.approx(efficiency_at(MEASURED, t), abs=1e-15)

    @pytest.mark.parametrize("phase_error", PHASE_ERRORS)
    @pytest.mark.parametrize("imbalance", IMBALANCES)
    def test_pipeline_light_matches_rail_chain(self, imbalance, phase_error):
        raw = config.config_to_dict(config.default_config("fidelity_vs_time"))
        raw["memory"].update(rail_imbalance=imbalance, rail_phase_error=phase_error)
        for plate, encode, eta0 in ((QPlateParams(), False, 0.26),
                                    (QPlateParams(alpha0=0.4, tuning_delta=2.5,
                                                  conversion_efficiency=0.9), True, 1.0)):
            raw["memory"]["eta0"] = eta0
            cfg = config.config_from_dict({**raw, "encode_with_qplate": encode,
                                           "qplate": asdict(plate)})
            for name in HYBRID_SPHERE_NAMES + POLARIZATION_NAMES:
                psi = state(name)
                if not psi.hybrid and encode:
                    psi = oracles.qplate_apply(psi, cfg.qplate)
                for t, theta in ((0.0, 0.0), (2.5, 0.3), (7.0, -1.2)):
                    light = pipeline.propagate(name, cfg, t, theta)
                    sig, survival = oracles.signal(oracles.rail_chain_light(psi, cfg, t, theta))
                    assert abs(light.survival[0] - survival) <= ROUND_OFF
                    assert np.abs(light.signal[0] - list(sig.values())).max() <= ROUND_OFF

    def test_nothing_retrieved_is_background_only(self):
        # eta underflows to 0 at long storage times: no light, no NaN
        cfg = config.default_config("fidelity_vs_time")
        for name in ("radial", "H", "D"):
            light = pipeline.propagate(name, cfg, 300.0, 0.4)
            assert light.survival.tolist() == [0.0]
            assert light.signal.tolist() == [[0.0] * 6]


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

    def test_rejects_imbalance_past_2(self):
        # past 2 the V rail's efficiency eta (1 - imbalance/2) is negative
        MemoryParams(rail_imbalance=2.0)
        for imbalance in (2.0 + 2.0**-51, 3.0, 1e308, math.inf):
            with pytest.raises(ValueError, match=r"\[0, 2\]"):
                MemoryParams(rail_imbalance=imbalance)

    def test_rejects_infinite_phase_error(self):
        # exp(i phi) of an infinite phase error is NaN (NaN: test_security)
        for phi in (math.inf, -math.inf):
            with pytest.raises(ValueError):
                MemoryParams(rail_phase_error=phi)
