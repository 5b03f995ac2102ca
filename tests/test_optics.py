import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fidelity, haar_states, states
from oracles import (DualRailState, State, VacuumOutput, displacer_recombine, displacer_split,
                     rotate_frame, scalar_rails, state)
from vortexmem.hilbert import RangeError, named_state, normalized
from vortexmem.optics import QPlateParams, conversion_probability, qplate_pass

QP = QPlateParams()
SQ2 = math.sqrt(2.0)


class TestQPlate:
    def test_h_encodes_to_radial(self):
        out = qplate_pass(named_state("H"), QP, +1)
        assert fidelity(out, named_state("radial")) == pytest.approx(1.0, abs=1e-12)

    def test_v_encodes_to_azimuthal(self):
        out = qplate_pass(named_state("V"), QP, +1)
        assert fidelity(out, named_state("azimuthal")) == pytest.approx(1.0, abs=1e-12)

    def test_r_encodes_to_zero(self):
        out = qplate_pass(named_state("R"), QP, +1)
        assert fidelity(out, named_state("zero")) == pytest.approx(1.0, abs=1e-12)

    def test_decode_zero_gives_r(self):
        out = qplate_pass(named_state("zero"), QP, -1)
        assert fidelity(out, named_state("R")) == pytest.approx(1.0, abs=1e-12)

    def test_decode_inverts_encode_on_d(self):
        out = qplate_pass(qplate_pass(named_state("D"), QP, +1), QP, -1)
        assert fidelity(out, named_state("D")) > 1 - 1e-12

    def test_decode_equatorial_phases(self):
        # (|0> + e^{i phi}|1>)/sqrt2 -> (|R> + e^{i phi}|L>)/sqrt2
        rng = np.random.default_rng(11)
        for phi in rng.uniform(0, 2 * math.pi, size=20):
            psi = normalized(1, cmath.exp(1j * phi))   # hybrid in, polarization out
            assert fidelity(qplate_pass(psi, QP, -1), psi) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_on_haar_states(self):
        rng = np.random.default_rng(5)
        for psi in haar_states(rng, 100):
            back = qplate_pass(qplate_pass(psi, QP, +1), QP, -1)
            assert fidelity(back, psi) >= 1 - 1e-10

    def test_unsupported_charge(self):
        for q in (0.0, 1.0, 1.5, -2.0):
            with pytest.raises(RangeError):
                qplate_pass(named_state("H"), QPlateParams(q=q), +1)

    def test_negative_half_charge_rejected(self):
        # a -1/2 plate gives the pair (|L,+1>, |R,-1>), not the package's hybrid basis
        with pytest.raises(RangeError, match=r"q=-0\.5"):
            QPlateParams(q=-0.5)

    def test_non_half_integer_charge_rejected(self):
        with pytest.raises(ValueError):
            QPlateParams(q=0.3)

    def test_infinite_offset_rejected(self):
        # exp(2i alpha0) of an infinite offset is NaN (NaN: test_security)
        for alpha0 in (math.inf, -math.inf):
            with pytest.raises(ValueError):
                QPlateParams(alpha0=alpha0)

    def test_alpha0_relative_phase_cancels_on_round_trip(self):
        plate = QPlateParams(alpha0=0.7)
        psi = named_state("D")
        enc = qplate_pass(psi, plate, +1)
        imparted = (enc[1] / enc[0]) / (psi[1] / psi[0])
        assert abs(imparted - cmath.exp(2j * 0.7)) < 1e-12
        assert fidelity(qplate_pass(enc, plate, -1), psi) == pytest.approx(1.0, abs=1e-12)

    def test_conversion_probability(self):
        assert conversion_probability(QP) == pytest.approx(1.0, abs=1e-12)
        detuned = QPlateParams(tuning_delta=math.pi / 2, conversion_efficiency=0.9)
        assert conversion_probability(detuned) == pytest.approx(0.9 * 0.5, abs=1e-12)

    @given(states())
    @settings(max_examples=50)
    def test_unitary(self, psi):
        assert abs(np.linalg.norm(qplate_pass(psi, QP, +1)) - 1.0) < 1e-12


class TestRotateFrame:
    def test_h_to_v_at_90_degrees(self):
        out = rotate_frame(state("H"), math.pi / 2)
        assert fidelity(out.vector(), named_state("V")) == pytest.approx(1.0, abs=1e-12)

    def test_circular_invariant(self):
        for theta in (0.1, 1.0, 2.7):
            out = rotate_frame(state("R"), theta)
            assert fidelity(out.vector(), named_state("R")) == pytest.approx(1.0, abs=1e-12)

    def test_radial_invariant(self):
        out = rotate_frame(state("radial"), math.radians(20))
        assert fidelity(out.vector(), named_state("radial")) == pytest.approx(1.0, abs=1e-12)

    @given(states(), st.floats(-10, 10, allow_nan=False), st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=50)
    def test_composition(self, c, t1, t2):
        psi = State(*c, hybrid=False)
        a = rotate_frame(rotate_frame(psi, t1), t2)
        b = rotate_frame(psi, t1 + t2)
        assert fidelity(a.vector(), b.vector()) == pytest.approx(1.0, abs=1e-12)

    @given(states(), st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=50)
    def test_hybrid_amplitude_invariance(self, c, theta):
        assert fidelity(c, rotate_frame(State(*c, hybrid=True), theta).vector()) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(0, math.pi, allow_nan=False), st.floats(-4, 4, allow_nan=False))
    @settings(max_examples=50)
    def test_malus_law_for_linear_states(self, angle, theta):
        h, v = math.cos(angle), math.sin(angle)
        psi = State(*normalized((h + 1j * v) / SQ2, (h - 1j * v) / SQ2), hybrid=False)
        assert fidelity(psi.vector(), rotate_frame(psi, theta).vector()) == pytest.approx(
            math.cos(theta) ** 2, abs=1e-12
        )


class TestDisplacers:
    """The beam displacers of the dual-rail chain, the physics reference of
    the memory's closed form (tests/oracles.py)."""

    def test_h_occupies_single_rail(self):
        d = displacer_split(state("H"))
        assert d.rail_h == pytest.approx((1.0,), abs=1e-12)
        assert abs(d.rail_v[0]) < 1e-12
        assert d.oam_labels == (0,)
        assert d.rail_phase == 0.0

    def test_radial_fills_rails_equally(self):
        d = displacer_split(state("radial"))
        assert np.linalg.norm(d.rail_h) == pytest.approx(1 / SQ2, abs=1e-12)
        assert np.linalg.norm(d.rail_v) == pytest.approx(1 / SQ2, abs=1e-12)
        assert d.oam_labels == (-1, +1)

    def test_zero_state_rail_amplitudes(self):
        # |0> = |L,-1>: expanding |L> in H/V gives rails (1/sqrt2, +i/sqrt2)
        d = displacer_split(state("zero"))
        assert d.rail_h == pytest.approx((1 / SQ2, 0.0), abs=1e-12)
        assert d.rail_v == pytest.approx((1j / SQ2, 0.0), abs=1e-12)

    @given(states())
    @settings(max_examples=25)
    def test_round_trip_polarization(self, c):
        rec = displacer_recombine(displacer_split(State(*c, hybrid=False)))
        assert fidelity(rec.state.vector(), c) > 1 - 1e-12
        assert rec.throughput == pytest.approx(1.0, abs=1e-12)
        assert rec.leak_power == 0.0

    @given(states())
    @settings(max_examples=25)
    def test_round_trip_hybrid(self, c):
        rec = displacer_recombine(displacer_split(State(*c, hybrid=True)))
        assert fidelity(rec.state.vector(), c) > 1 - 1e-12
        assert rec.throughput == pytest.approx(1.0, abs=1e-12)
        assert rec.leak_power < 1e-24

    def test_round_trip_50_random_states(self):
        rng = np.random.default_rng(17)
        for hybrid in (False, True):
            for c in haar_states(rng, 25):
                rec = displacer_recombine(displacer_split(State(*c, hybrid)))
                assert fidelity(rec.state.vector(), c) > 1 - 1e-12

    def test_single_rail_recombines_to_h(self):
        rec = displacer_recombine(scalar_rails(1.0, 0.0))
        assert fidelity(rec.state.vector(), named_state("H")) == pytest.approx(1.0, abs=1e-12)
        assert rec.throughput == pytest.approx(1.0, abs=1e-12)

    def test_rail_phase_pi_flips_to_orthogonal_state(self):
        base = displacer_recombine(scalar_rails(1 / SQ2, 1 / SQ2, rail_phase=0.0))
        flipped = displacer_recombine(scalar_rails(1 / SQ2, 1 / SQ2, rail_phase=math.pi))
        assert abs(np.vdot(base.state.vector(), flipped.state.vector())) < 1e-12

    def test_vacuum_output(self):
        with pytest.raises(VacuumOutput):
            displacer_recombine(scalar_rails(0.0, 0.0))

    def test_mismatched_rails_rejected(self):
        with pytest.raises(ValueError):
            DualRailState((1.0,), (0.0, 0.0), (0,))
