import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fidelity, haar_states, states
from oracles import (DualRailState, VacuumOutput, displacer_recombine, displacer_split,
                     rotate_frame, scalar_rails)
from vortexmem.hilbert import BasisTag, RangeError, make_state, named_state
from vortexmem.optics import (
    QPlateParams,
    conversion_probability,
    qplate_apply,
    qplate_decode,
)

QP = QPlateParams()
SQ2 = math.sqrt(2.0)


class TestQPlate:
    def test_h_encodes_to_radial(self):
        out = qplate_apply(named_state("H"), QP)
        assert out.basis_tag is BasisTag.HYBRID_POINCARE
        assert fidelity(out, named_state("radial")) == pytest.approx(1.0, abs=1e-12)

    def test_v_encodes_to_azimuthal(self):
        out = qplate_apply(named_state("V"), QP)
        assert fidelity(out, named_state("azimuthal")) == pytest.approx(1.0, abs=1e-12)

    def test_r_encodes_to_zero(self):
        out = qplate_apply(named_state("R"), QP)
        assert fidelity(out, named_state("zero")) == pytest.approx(1.0, abs=1e-12)

    def test_decode_zero_gives_r(self):
        out = qplate_decode(named_state("zero"), QP)
        assert out.basis_tag is BasisTag.POLARIZATION
        assert fidelity(out, named_state("R")) == pytest.approx(1.0, abs=1e-12)

    def test_decode_inverts_encode_on_d(self):
        out = qplate_decode(qplate_apply(named_state("D"), QP), QP)
        assert fidelity(out, named_state("D")) > 1 - 1e-12

    def test_decode_equatorial_phases(self):
        # (|0> + e^{i phi}|1>)/sqrt2 -> (|R> + e^{i phi}|L>)/sqrt2
        rng = np.random.default_rng(11)
        for phi in rng.uniform(0, 2 * math.pi, size=20):
            psi = make_state(1, cmath.exp(1j * phi), BasisTag.HYBRID_POINCARE)
            expected = make_state(1, cmath.exp(1j * phi), BasisTag.POLARIZATION)
            assert fidelity(qplate_decode(psi, QP), expected) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_on_haar_states(self):
        rng = np.random.default_rng(5)
        for psi in haar_states(rng, 100, BasisTag.POLARIZATION):
            back = qplate_decode(qplate_apply(psi, QP), QP)
            assert fidelity(back, psi) >= 1 - 1e-10

    def test_unsupported_charge(self):
        for q in (0.0, 1.0, 1.5, -2.0):
            with pytest.raises(RangeError):
                qplate_apply(named_state("H"), QPlateParams(q=q))

    def test_negative_half_charge_accepted(self):
        qplate_apply(named_state("H"), QPlateParams(q=-0.5))

    def test_non_half_integer_charge_rejected(self):
        with pytest.raises(ValueError):
            QPlateParams(q=0.3)

    def test_alpha0_relative_phase_cancels_on_round_trip(self):
        plate = QPlateParams(alpha0=0.7)
        psi = named_state("D")
        enc = qplate_apply(psi, plate)
        imparted = (enc.c1 / enc.c0) / (psi.c1 / psi.c0)
        assert abs(imparted - cmath.exp(2j * 0.7)) < 1e-12
        assert fidelity(qplate_decode(enc, plate), psi) == pytest.approx(1.0, abs=1e-12)

    def test_conversion_probability(self):
        assert conversion_probability(QP) == pytest.approx(1.0, abs=1e-12)
        detuned = QPlateParams(tuning_delta=math.pi / 2, conversion_efficiency=0.9)
        assert conversion_probability(detuned) == pytest.approx(0.9 * 0.5, abs=1e-12)

    def test_wrong_basis_rejected(self):
        with pytest.raises(ValueError):
            qplate_apply(named_state("zero"), QP)
        with pytest.raises(ValueError):
            qplate_decode(named_state("H"), QP)

    @given(states(BasisTag.POLARIZATION))
    @settings(max_examples=50)
    def test_unitary(self, psi):
        assert abs(np.linalg.norm(qplate_apply(psi, QP).vector()) - 1.0) < 1e-12


class TestRotateFrame:
    def test_h_to_v_at_90_degrees(self):
        out = rotate_frame(named_state("H"), math.pi / 2)
        assert fidelity(out, named_state("V")) == pytest.approx(1.0, abs=1e-12)

    def test_circular_invariant(self):
        for theta in (0.1, 1.0, 2.7):
            out = rotate_frame(named_state("R"), theta)
            assert fidelity(out, named_state("R")) == pytest.approx(1.0, abs=1e-12)

    def test_radial_invariant(self):
        out = rotate_frame(named_state("radial"), math.radians(20))
        assert fidelity(out, named_state("radial")) == pytest.approx(1.0, abs=1e-12)

    @given(states(BasisTag.POLARIZATION),
           st.floats(-10, 10, allow_nan=False), st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=50)
    def test_composition(self, psi, t1, t2):
        a = rotate_frame(rotate_frame(psi, t1), t2)
        b = rotate_frame(psi, t1 + t2)
        assert fidelity(a, b) == pytest.approx(1.0, abs=1e-12)

    @given(states(BasisTag.HYBRID_POINCARE), st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=50)
    def test_hybrid_amplitude_invariance(self, psi, theta):
        assert fidelity(psi, rotate_frame(psi, theta)) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(0, math.pi, allow_nan=False), st.floats(-4, 4, allow_nan=False))
    @settings(max_examples=50)
    def test_malus_law_for_linear_states(self, angle, theta):
        h, v = math.cos(angle), math.sin(angle)
        psi = make_state((h + 1j * v) / SQ2, (h - 1j * v) / SQ2, BasisTag.POLARIZATION)
        assert fidelity(psi, rotate_frame(psi, theta)) == pytest.approx(
            math.cos(theta) ** 2, abs=1e-12
        )


class TestDisplacers:
    """The beam displacers of the dual-rail chain, the physics reference of
    the memory's closed form (tests/oracles.py)."""

    def test_h_occupies_single_rail(self):
        d = displacer_split(named_state("H"))
        assert d.rail_h == pytest.approx((1.0,), abs=1e-12)
        assert abs(d.rail_v[0]) < 1e-12
        assert d.oam_labels == (0,)
        assert d.rail_phase == 0.0

    def test_radial_fills_rails_equally(self):
        d = displacer_split(named_state("radial"))
        assert np.linalg.norm(d.rail_h) == pytest.approx(1 / SQ2, abs=1e-12)
        assert np.linalg.norm(d.rail_v) == pytest.approx(1 / SQ2, abs=1e-12)
        assert d.oam_labels == (-1, +1)

    def test_zero_state_rail_amplitudes(self):
        # |0> = |L,-1>: expanding |L> in H/V gives rails (1/sqrt2, +i/sqrt2)
        d = displacer_split(named_state("zero"))
        assert d.rail_h == pytest.approx((1 / SQ2, 0.0), abs=1e-12)
        assert d.rail_v == pytest.approx((1j / SQ2, 0.0), abs=1e-12)

    @given(states(BasisTag.POLARIZATION))
    @settings(max_examples=25)
    def test_round_trip_polarization(self, psi):
        rec = displacer_recombine(displacer_split(psi))
        assert fidelity(rec.state, psi) > 1 - 1e-12
        assert rec.throughput == pytest.approx(1.0, abs=1e-12)
        assert rec.leak_power == 0.0

    @given(states(BasisTag.HYBRID_POINCARE))
    @settings(max_examples=25)
    def test_round_trip_hybrid(self, psi):
        rec = displacer_recombine(displacer_split(psi))
        assert fidelity(rec.state, psi) > 1 - 1e-12
        assert rec.throughput == pytest.approx(1.0, abs=1e-12)
        assert rec.leak_power < 1e-24

    def test_round_trip_50_random_states(self):
        rng = np.random.default_rng(17)
        for tag in (BasisTag.POLARIZATION, BasisTag.HYBRID_POINCARE):
            for psi in haar_states(rng, 25, tag):
                rec = displacer_recombine(displacer_split(psi))
                assert fidelity(rec.state, psi) > 1 - 1e-12

    def test_single_rail_recombines_to_h(self):
        rec = displacer_recombine(scalar_rails(1.0, 0.0))
        assert fidelity(rec.state, named_state("H")) == pytest.approx(1.0, abs=1e-12)
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
