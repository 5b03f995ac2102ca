import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import amplitude_pairs, bloch_vectors, states
from vortexmem.hilbert import (
    ATOL_BALL,
    TAU1,
    TAU2,
    TAU3,
    BasisTag,
    BlochVector,
    DensityMatrix,
    HYBRID_SPHERE_NAMES,
    NonPhysicalDensity,
    OutsideBall,
    POLARIZATION_NAMES,
    ZeroVector,
    bloch_of,
    check_densities,
    conditional_fidelity,
    densities_from_bloch,
    density_from_pure,
    make_state,
    named_state,
    rho_of,
)

SQ2 = math.sqrt(2.0)


class TestMakeState:
    def test_basis_state(self):
        psi = make_state(1, 0, BasisTag.HYBRID_POINCARE)
        assert psi.c0 == 1 and psi.c1 == 0
        assert psi.basis_tag is BasisTag.HYBRID_POINCARE

    def test_radial_superposition(self):
        psi = make_state(1, 1, BasisTag.HYBRID_POINCARE)
        assert psi.c0 == pytest.approx(1 / SQ2, abs=1e-15)
        assert psi.c1 == pytest.approx(1 / SQ2, abs=1e-15)

    def test_normalizes_scaled_input(self):
        psi = make_state(2, 0, BasisTag.POLARIZATION)
        assert psi.c0 == 1 and psi.c1 == 0
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            make_state(0, 0, BasisTag.POLARIZATION)

    @given(amplitude_pairs())
    def test_always_normalized(self, c):
        psi = make_state(c[0], c[1], BasisTag.HYBRID_POINCARE)
        assert abs(psi.norm() - 1.0) < 1e-12

    @given(amplitude_pairs())
    def test_proportional_to_input(self, c):
        psi = make_state(c[0], c[1], BasisTag.HYBRID_POINCARE)
        # cross ratio unchanged by normalization
        assert abs(psi.c0 * c[1] - psi.c1 * c[0]) < 1e-9 * (abs(c[0]) + abs(c[1]))


class TestDensityFromPure:
    def test_pole(self):
        rho = density_from_pure(named_state("zero"))
        assert np.allclose(rho.elements, np.diag([1, 0]), atol=1e-15)

    def test_radial(self):
        rho = density_from_pure(named_state("radial"))
        assert np.allclose(rho.elements, np.full((2, 2), 0.5), atol=1e-15)

    def test_plus_i_off_diagonals(self):
        rho = density_from_pure(named_state("plus_i"))
        assert rho.elements[0, 1] == pytest.approx(-0.5j, abs=1e-15)
        assert rho.elements[1, 0] == pytest.approx(+0.5j, abs=1e-15)

    @given(states())
    @settings(max_examples=50)
    def test_idempotent(self, psi):
        m = density_from_pure(psi).elements
        assert np.allclose(m @ m, m, atol=1e-10)
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)


class TestConditionalFidelity:
    def test_self_fidelity_is_one(self):
        psi = named_state("plus_i")
        assert conditional_fidelity(density_from_pure(psi), psi) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_gives_half(self):
        rho = DensityMatrix(np.eye(2) / 2)
        for name in HYBRID_SPHERE_NAMES:
            assert conditional_fidelity(rho, named_state(name)) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_nonphysical(self):
        bad = DensityMatrix(np.array([[1.5, 0], [0, -0.5]]))
        with pytest.raises(NonPhysicalDensity):
            conditional_fidelity(bad, named_state("zero"))
        not_hermitian = DensityMatrix(np.array([[0.5, 0.3], [0.0, 0.5]]))
        with pytest.raises(NonPhysicalDensity):
            conditional_fidelity(not_hermitian, named_state("zero"))

    @given(bloch_vectors(), bloch_vectors(), st.floats(0, 1, allow_nan=False))
    @settings(max_examples=50)
    def test_linear_in_rho(self, s_a, s_b, lam):
        psi = named_state("radial")
        rho_a, rho_b = rho_of(BlochVector(*s_a)), rho_of(BlochVector(*s_b))
        mixed = DensityMatrix(lam * rho_a.elements + (1 - lam) * rho_b.elements)
        f_mix = conditional_fidelity(mixed, psi)
        f_parts = lam * conditional_fidelity(rho_a, psi) + (1 - lam) * conditional_fidelity(rho_b, psi)
        assert f_mix == pytest.approx(f_parts, abs=1e-12)


_NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "infj": complex(0.0, math.inf)}


def _non_finite_matrices():
    """The maximally mixed state with one non-finite element, alone or with
    its Hermitian partner set to the conjugate."""
    for (label, value), (i, j), mirrored in itertools.product(
            _NON_FINITE.items(), ((0, 0), (0, 1), (1, 0), (1, 1)), (False, True)):
        if mirrored and i == j:
            continue
        m = np.eye(2, dtype=complex) / 2.0
        m[i, j] = value
        if mirrored:
            m[j, i] = np.conj(value)
        yield pytest.param(m, id=f"{label}-{i}{j}-{'mirrored' if mirrored else 'alone'}")
    yield pytest.param(np.diag([math.inf, -math.inf]).astype(complex), id="inf-diagonal")


def _verdict(check, m) -> str:
    """'physical', or the first word of the NonPhysicalDensity message."""
    try:
        check(m)
    except NonPhysicalDensity as e:
        return str(e).split()[0]
    return "physical"


_unit = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 0.1)
_tiny = st.tuples(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-14.0, -11.0)).map(
    lambda t: t[0] * 10.0 ** t[1])


class TestCheckDensities:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m", _non_finite_matrices())
    def test_non_finite_elements_rejected(self, m):
        with pytest.raises(NonPhysicalDensity, match="non-finite"):
            DensityMatrix(m).validate()
        with pytest.raises(NonPhysicalDensity, match="non-finite"):
            conditional_fidelity(DensityMatrix(m), named_state("radial"))

    @given(direction=_unit, sign=st.sampled_from([-1.0, 1.0]), exponent=st.floats(-14.0, -8.0),
           tiny=st.lists(_tiny, min_size=8, max_size=8))
    @settings(max_examples=500, deadline=None)
    def test_verdict_matches_reference_near_the_boundary(self, direction, sign, exponent, tiny):
        """Bloch lengths 1 +- 1e-14..1e-8 put the smaller eigenvalue around
        -ATOL_EIGEN; perturbations up to 1e-11 straddle ATOL_HERMITIAN and
        ATOL_TRACE."""
        s = np.array(direction) / math.hypot(*direction) * (1.0 + sign * 10.0 ** exponent)
        m = (np.eye(2) + s[0] * TAU1 + s[1] * TAU2 + s[2] * TAU3) / 2.0
        m = m + (np.array(tiny[:4]) + 1j * np.array(tiny[4:])).reshape(2, 2)
        assert _verdict(check_densities, m[None]) == _verdict(oracles.check_densities, m[None])

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
        check_densities(densities_from_bloch(s))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m", [
        [[0.5, 1.5e308], [-1.5e308, 0.5]],
        [[1.5e308, 0.0], [0.0, 1.5e308]],
        [[0.5, 1.5e308], [1.5e308, 0.5]],
        [[0.5, 1.5e308j], [-1.5e308j, 0.5]],
    ], ids=["anti_hermitian", "diagonal", "hermitian", "imaginary"])
    def test_huge_finite_elements_rejected_without_overflow(self, m):
        m = np.array(m, dtype=complex)
        with pytest.raises(NonPhysicalDensity, match="beyond 2"):
            check_densities(m[None])
        with pytest.raises(NonPhysicalDensity, match="beyond 2"):
            conditional_fidelity(DensityMatrix(m), named_state("radial"))

    def test_bloch_length_past_the_eigen_tolerance_rejected(self):
        m = (np.eye(2) + (1.0 + 3e-10) * TAU3) / 2.0
        with pytest.raises(NonPhysicalDensity, match="negative eigenvalue -1.5"):
            check_densities(m[None])

    @pytest.mark.parametrize("rows, message", [
        (["trace", "non_finite", "hermitian"], "matrix has a non-finite element"),
        (["trace", "hermitian", "beyond_2"],
         "matrix has an element beyond 2 in real or imaginary part"),
        (["good", "trace", "good", "hermitian"], "matrix is not Hermitian"),
        (["good", "eigen", "trace", "half_trace"], "trace is (1.125+0j), expected 1"),
        (["good", "eigen", "good", "pole_eigen"], "negative eigenvalue -4.999999969612645e-09"),
    ], ids=["non_finite", "beyond_2", "hermitian", "trace", "eigen"])
    def test_mixed_stack_names_the_first_failing_check(self, rows, message):
        """Checks run in order over the whole stack: a trace failure in an
        earlier row gives way to a Hermiticity failure in a later one.  Each
        message is pinned to the byte, the trace and eigenvalue included."""
        good = oracles.densities_from_bloch(np.array([[0.6, 0.0, 0.8], [0.0, 0.3, 0.0]]))
        hermitian = (np.eye(2) + 0.5 * TAU1) / 2.0
        hermitian[0, 1] += 1e-9
        matrices = {
            "good": good[0],
            "trace": np.diag([0.625, 0.5]).astype(complex),
            "half_trace": np.diag([0.3125, 0.25]).astype(complex),
            "hermitian": hermitian,
            "eigen": (np.eye(2) + (1.0 + 3e-9) * (0.6 * TAU1 + 0.8 * TAU2)) / 2.0,
            "pole_eigen": (np.eye(2) + (1.0 + 1e-8) * TAU3) / 2.0,
            "non_finite": np.diag([math.nan, 0.5]).astype(complex),
            "beyond_2": np.diag([3.0, -2.0]).astype(complex),
        }
        with pytest.raises(NonPhysicalDensity) as info:
            check_densities(np.array([matrices[name] for name in rows]))
        assert str(info.value) == message


class TestBlochMaps:
    def test_stack_has_the_bits_of_the_complex_sum(self):
        """The one-product build gives the bits of (I + s . tau)/2 summed as
        complex matrices, for signed zero, subnormal and NaN components too."""
        rng = np.random.default_rng(11)
        s = rng.normal(size=(20_000, 3))
        s /= np.linalg.norm(s, axis=1, keepdims=True) * rng.uniform(1.0, 3.0, size=(20_000, 1))
        special = np.array([0.0, -0.0, 5e-324, -5e-324, -1e-310, 2.2250738585072014e-308,
                            math.nan, 1.0, -1.0])
        mask = rng.random(s.shape) < 0.2
        s[mask] = rng.choice(special, size=mask.sum())
        s = s[~(np.linalg.norm(s, axis=1) > 1.0 + ATOL_BALL)]   # NaN rows stay
        assert np.isnan(s).any() and (s == 0.0).any() and (np.abs(s) < 2.3e-308).any()
        got = densities_from_bloch(s)
        assert got.shape == (len(s), 2, 2)
        assert np.array_equal(got.view(np.int64), oracles.densities_from_bloch(s).view(np.int64))

    def test_pole_convention(self):
        assert bloch_of(DensityMatrix(np.diag([1.0, 0.0]))) == BlochVector(0.0, 0.0, 1.0)

    def test_maximally_mixed(self):
        b = bloch_of(DensityMatrix(np.eye(2) / 2))
        assert (b.s1, b.s2, b.s3) == (0.0, 0.0, 0.0)

    def test_rho_of_pole(self):
        assert np.allclose(rho_of(BlochVector(0, 0, 1)).elements, np.diag([1, 0]))

    def test_outside_ball_rejected(self):
        with pytest.raises(OutsideBall):
            rho_of(BlochVector(0.8, 0.8, 0.8))

    @given(bloch_vectors())
    @settings(max_examples=100)
    def test_round_trip(self, s):
        back = bloch_of(rho_of(BlochVector(*s)))
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

    def test_tags(self):
        assert named_state("radial").basis_tag is BasisTag.HYBRID_POINCARE
        assert named_state("D").basis_tag is BasisTag.POLARIZATION

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            named_state("diagonal")

    def test_opposite_pairs_orthogonal(self):
        for a, b in (("zero", "one"), ("radial", "azimuthal"), ("plus_i", "minus_i"),
                     ("H", "V"), ("D", "A"), ("R", "L")):
            assert abs(named_state(a).overlap(named_state(b))) < 1e-12
