import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import amplitude_pairs, bloch_vectors, states
from vortexmem.hilbert import (
    ATOL_BALL,
    TAU3,
    HYBRID_SPHERE_NAMES,
    RangeError,
    POLARIZATION_NAMES,
    densities_from_bloch,
    fidelities,
    named_state,
    normalized,
)
from oracles import BlochVector, bloch_of, density_from_pure

SQ2 = math.sqrt(2.0)


def conditional_fidelity(m, psi):
    """<psi|m|psi> of one density matrix, by the package's stack function."""
    return float(fidelities(np.asarray(m, dtype=complex)[None],
                            np.asarray(psi, dtype=complex)[None])[0])


class TestMakeState:
    """normalized: a state made from any nonzero amplitude pair."""

    def test_basis_state(self):
        c0, c1 = normalized(1, 0)
        assert c0 == 1 and c1 == 0
        assert type(c0) is complex and type(c1) is complex

    def test_radial_superposition(self):
        c0, c1 = normalized(1, 1)
        assert c0 == pytest.approx(1 / SQ2, abs=1e-15)
        assert c1 == pytest.approx(1 / SQ2, abs=1e-15)

    def test_normalizes_scaled_input(self):
        psi = normalized(2, 0)
        assert psi == (1, 0)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    @given(amplitude_pairs())
    def test_always_normalized(self, c):
        assert abs(np.linalg.norm(normalized(c[0], c[1])) - 1.0) < 1e-12

    @given(amplitude_pairs())
    def test_proportional_to_input(self, c):
        c0, c1 = normalized(c[0], c[1])
        # cross ratio unchanged by normalization
        assert abs(c0 * c[1] - c1 * c[0]) < 1e-9 * (abs(c[0]) + abs(c[1]))


class TestDensityFromPure:
    def test_pole(self):
        rho = density_from_pure(named_state("zero"))
        assert np.allclose(rho, np.diag([1, 0]), atol=1e-15)

    def test_radial(self):
        rho = density_from_pure(named_state("radial"))
        assert np.allclose(rho, np.full((2, 2), 0.5), atol=1e-15)

    def test_plus_i_off_diagonals(self):
        rho = density_from_pure(named_state("plus_i"))
        assert rho[0, 1] == pytest.approx(-0.5j, abs=1e-15)
        assert rho[1, 0] == pytest.approx(+0.5j, abs=1e-15)

    @given(states())
    @settings(max_examples=50)
    def test_idempotent(self, psi):
        m = density_from_pure(psi)
        assert np.allclose(m @ m, m, atol=1e-10)
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)


class TestConditionalFidelity:
    def test_self_fidelity_is_one(self):
        psi = named_state("plus_i")
        assert conditional_fidelity(density_from_pure(psi), psi) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_gives_half(self):
        rho = np.eye(2) / 2
        for name in HYBRID_SPHERE_NAMES:
            assert conditional_fidelity(rho, named_state(name)) == pytest.approx(0.5, abs=1e-12)

    @given(bloch_vectors(), bloch_vectors(), st.floats(0, 1, allow_nan=False))
    @settings(max_examples=50)
    def test_linear_in_rho(self, s_a, s_b, lam):
        psi = named_state("radial")
        rho_a, rho_b = densities_from_bloch(np.array([s_a, s_b], dtype=float))
        mixed = lam * rho_a + (1 - lam) * rho_b
        f_mix = conditional_fidelity(mixed, psi)
        f_parts = lam * conditional_fidelity(rho_a, psi) + (1 - lam) * conditional_fidelity(rho_b, psi)
        assert f_mix == pytest.approx(f_parts, abs=1e-12)


class TestCheckDensities:
    """The package checks no density matrix: densities_from_bloch builds
    them physical.  The tests' reference check (oracles.check_densities)
    holds it to that."""

    def test_every_density_inside_the_ball_tolerance_passes(self):
        """densities_from_bloch accepts |s| <= 1 + ATOL_BALL, whose smaller
        eigenvalue (1 - |s|)/2 >= -5e-11 lies within ATOL_EIGEN."""
        rng = np.random.default_rng(7)
        s = rng.normal(size=(20_000, 3))
        s /= np.linalg.norm(s, axis=1, keepdims=True)
        s[:10_000] *= 1.0 + ATOL_BALL
        s[10_000:] *= rng.uniform(0.0, 1.0 + ATOL_BALL, size=(10_000, 1))
        s = s[np.linalg.norm(s, axis=1) <= 1.0 + ATOL_BALL]
        assert len(s) > 15_000
        oracles.check_densities(densities_from_bloch(s))

    def test_bloch_length_past_the_eigen_tolerance_rejected(self):
        """The reference check does reject a matrix just past ATOL_EIGEN, so
        the physicality tests that use it can fail."""
        m = (np.eye(2) + (1.0 + 3e-10) * TAU3) / 2.0
        with pytest.raises(oracles.NonPhysicalDensity, match="negative eigenvalue -1.5"):
            oracles.check_densities(m[None])


class TestBlochMaps:
    def test_stack_has_the_bits_of_the_complex_sum(self):
        """The one-product build gives the bits of (I + s . tau)/2 summed as
        complex matrices, for signed zero and subnormal components too; a
        stack with a NaN component is rejected."""
        rng = np.random.default_rng(11)
        s = rng.normal(size=(20_000, 3))
        s /= np.linalg.norm(s, axis=1, keepdims=True) * rng.uniform(1.0, 3.0, size=(20_000, 1))
        special = np.array([0.0, -0.0, 5e-324, -5e-324, -1e-310, 2.2250738585072014e-308,
                            math.nan, 1.0, -1.0])
        mask = rng.random(s.shape) < 0.2
        s[mask] = rng.choice(special, size=mask.sum())
        s = s[~(np.linalg.norm(s, axis=1) > 1.0 + ATOL_BALL)]   # NaN rows stay
        assert np.isnan(s).any() and (s == 0.0).any() and (np.abs(s) < 2.3e-308).any()
        with pytest.raises(RangeError):
            densities_from_bloch(s)
        s = s[~np.isnan(s).any(axis=1)]
        got = densities_from_bloch(s)
        assert got.shape == (len(s), 2, 2)
        assert np.array_equal(got.view(np.int64), oracles.densities_from_bloch(s).view(np.int64))

    def test_pole_convention(self):
        assert bloch_of(np.diag([1.0, 0.0])) == BlochVector(0.0, 0.0, 1.0)

    def test_maximally_mixed(self):
        b = bloch_of(np.eye(2) / 2)
        assert (b.s1, b.s2, b.s3) == (0.0, 0.0, 0.0)

    def test_rho_of_pole(self):
        assert np.allclose(densities_from_bloch(np.array([[0.0, 0.0, 1.0]]))[0], np.diag([1, 0]))

    def test_outside_ball_rejected(self):
        with pytest.raises(RangeError):
            densities_from_bloch(np.array([[0.8, 0.8, 0.8]]))

    def test_integer_vector_outside_ball_rejected(self):
        # its square 2**64 would wrap to 0 in int64
        with pytest.raises(RangeError):
            densities_from_bloch(np.array([[0, 2**32, 0]]))

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_nan_component_rejected(self, axis):
        s = np.zeros((2, 3))
        s[1, axis] = math.nan
        with pytest.raises(RangeError):
            densities_from_bloch(s)

    @given(bloch_vectors())
    @settings(max_examples=100)
    def test_round_trip(self, s):
        back = bloch_of(densities_from_bloch(np.array([s], dtype=float))[0])
        assert back.s1 == pytest.approx(s[0], abs=1e-12)
        assert back.s2 == pytest.approx(s[1], abs=1e-12)
        assert back.s3 == pytest.approx(s[2], abs=1e-12)

    @given(states())
    @settings(max_examples=50)
    def test_pure_states_on_sphere(self, psi):
        b = bloch_of(density_from_pure(psi))
        assert b.length() == pytest.approx(1.0, abs=1e-10)


class TestNamedStates:
    def test_catalogue_complete(self):
        assert set(HYBRID_SPHERE_NAMES) == {"zero", "one", "radial", "azimuthal", "plus_i", "minus_i"}
        assert set(POLARIZATION_NAMES) == {"H", "V", "D", "A", "R", "L"}

    def test_states_are_normalized_amplitude_pairs(self):
        for name in HYBRID_SPHERE_NAMES + POLARIZATION_NAMES:
            c = named_state(name)
            assert len(c) == 2 and all(type(x) is complex for x in c)
            assert abs(c[0]) ** 2 + abs(c[1]) ** 2 == pytest.approx(1.0, abs=1e-15)
        assert named_state("radial") == pytest.approx((1 / SQ2, 1 / SQ2), abs=1e-15)
        # D = (|H> + |V>)/sqrt2 with |R>, |L> = (|H> -+ i|V>)/sqrt2
        assert named_state("D") == pytest.approx(((1 + 1j) / 2, (1 - 1j) / 2), abs=1e-15)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            named_state("diagonal")

    def test_opposite_pairs_orthogonal(self):
        for a, b in (("zero", "one"), ("radial", "azimuthal"), ("plus_i", "minus_i"),
                     ("H", "V"), ("D", "A"), ("R", "L")):
            assert abs(np.vdot(named_state(a), named_state(b))) < 1e-12
