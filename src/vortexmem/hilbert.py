"""State algebra for the two-dimensional hybrid polarization-OAM space.

The logical basis is fixed project-wide as (|0>, |1>) = (|L,-1>, |R,+1>):
left-circular light carrying one negative quantum of orbital angular
momentum, and right-circular light carrying one positive quantum.  The same
two-component machinery doubles as a plain polarization qubit in the
(|R>, |L>) basis, selected by a basis tag.  Circular basis convention,
fixed everywhere: |R> = (|H> - i|V>)/sqrt2, |L> = (|H> + i|V>)/sqrt2.

All types are immutable values and all operations are pure functions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

ATOL_HERMITIAN = 1e-12
ATOL_TRACE = 1e-12
ATOL_EIGEN = 1e-10
ATOL_BALL = 1e-10

_SQRT2 = math.sqrt(2.0)


class RangeError(ValueError):
    """A parameter lies outside its allowed range."""


class ZeroVector(ValueError):
    """Both amplitudes are zero; no state can be normalized from them."""


class NonPhysicalDensity(ValueError):
    """Density matrix violates hermiticity, unit trace or positivity."""


class OutsideBall(ValueError):
    """Bloch vector has length > 1 beyond tolerance."""


class BasisTag(enum.Enum):
    HYBRID_POINCARE = "hybrid_poincare"  # basis (|L,-1>, |R,+1>)
    POLARIZATION = "polarization"        # basis (|R>, |L>)


@dataclass(frozen=True)
class HybridState:
    """Normalized two-component state over the tagged logical basis."""

    c0: complex
    c1: complex
    basis_tag: BasisTag

    def vector(self) -> np.ndarray:
        return np.array([self.c0, self.c1], dtype=complex)

    def norm(self) -> float:
        return math.sqrt(abs(self.c0) ** 2 + abs(self.c1) ** 2)

    def overlap(self, other: "HybridState") -> complex:
        """Inner product <self|other>."""
        return np.conj(self.c0) * other.c0 + np.conj(self.c1) * other.c1


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """2x2 Hermitian, unit-trace, positive-semidefinite operator."""

    elements: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.elements, dtype=complex).reshape(2, 2)
        arr.setflags(write=False)
        object.__setattr__(self, "elements", arr)

    def validate(self) -> None:
        check_densities(self.elements[None])


@dataclass(frozen=True)
class BlochVector:
    s1: float
    s2: float
    s3: float

    def length(self) -> float:
        return math.sqrt(self.s1**2 + self.s2**2 + self.s3**2)


# Stokes-aligned Pauli triple.  tau2 carries the opposite sign of the
# textbook sigma_y: forced by the fixed circular-basis convention together
# with s2 being read off the D/A analyzer pair.
TAU1 = np.array([[0, 1], [1, 0]], dtype=complex)
TAU2 = np.array([[0, 1j], [-1j, 0]], dtype=complex)
TAU3 = np.array([[1, 0], [0, -1]], dtype=complex)

# (I + s . tau)/2 as one product on the float view (Re, Im) of [[a, b], [c, d]]:
# row k of _TAU_PARTS is tau_k.  Each element has at most one nonzero term,
# +-1 times a component, so the product is exact; adding _I_PARTS turns every
# zero into +0.0, and halving comes last, as in the complex sum, so that a
# subnormal component rounds the same.  The result has the bits of
# (I + s1 tau1 + s2 tau2 + s3 tau3)/2 in complex arithmetic.
_TAU_PARTS = np.stack([TAU1, TAU2, TAU3]).reshape(3, 4).view(float)
_I_PARTS = np.eye(2, dtype=complex).reshape(4).view(float)

# the bounds of the six check values of check_densities: |b - conj(c)|, Im a
# and Im d (Hermitian; 2|x| <= tol is |x| <= tol/2 exactly), Re(a + d) - 1
# and Im(a + d) (trace), and the smaller eigenvalue
_CHECK_LOWER = np.array([[-np.inf], [-ATOL_HERMITIAN / 2.0], [-ATOL_HERMITIAN / 2.0],
                         [-ATOL_TRACE], [-ATOL_TRACE], [-ATOL_EIGEN]])
_CHECK_UPPER = np.array([[ATOL_HERMITIAN], [ATOL_HERMITIAN / 2.0], [ATOL_HERMITIAN / 2.0],
                         [ATOL_TRACE], [ATOL_TRACE], [np.inf]])


def make_state(c0: complex, c1: complex, tag: BasisTag) -> HybridState:
    """Normalizing constructor; raises ZeroVector on (0, 0) input."""
    n = math.sqrt(abs(c0) ** 2 + abs(c1) ** 2)
    if n == 0.0:
        raise ZeroVector("cannot normalize the zero vector")
    return HybridState(complex(c0) / n, complex(c1) / n, tag)


def density_from_pure(psi: HybridState) -> DensityMatrix:
    v = psi.vector()
    return DensityMatrix(np.outer(v, v.conj()))


def check_densities(m: np.ndarray) -> None:
    """Raise NonPhysicalDensity unless every matrix of the stack (N, 2, 2) has
    finite elements, is Hermitian, has unit trace and no negative eigenvalue.

    The check is closed-form on the four elements [[a, b], [c, d]], with no
    eigensolver: |m_ij - conj(m_ji)| <= ATOL_HERMITIAN for every i, j (on the
    diagonal 2|Im a| and 2|Im d|), real and imaginary part of a + d - 1
    within ATOL_TRACE, and the smaller eigenvalue of the Hermitian part,
    Re(a + d)/2 - sqrt((Re(a - d)/2)^2 + |b + conj(c)|^2/4), at least
    -ATOL_EIGEN.  A NaN or infinite element is rejected before any
    arithmetic on it, and so is an element with a real or imaginary part
    beyond 2 in magnitude: no matrix that passes has one (its elements lie
    within 1 up to the tolerances), and on one near the float range the
    closed form would overflow.

    All checks are decided by one comparison of the stack's check values
    with their bounds; only a failing stack is searched for the first check
    that fails, in the order above, to name it.
    """
    elements = np.ascontiguousarray(m, dtype=complex).reshape(-1, 4)
    # real and imaginary parts side by side; NaN fails the comparison too
    parts = elements.view(float)
    if not (np.abs(parts) <= 2.0).all():
        if not np.isfinite(parts).all():
            raise NonPhysicalDensity("matrix has a non-finite element")
        raise NonPhysicalDensity("matrix has an element beyond 2 in real or imaginary part")
    a, b, c, d = elements.T
    c_bar = c.conj()
    trace = a + d
    low = trace.real / 2.0 - np.hypot((a.real - d.real) / 2.0, np.abs((b + c_bar) / 2.0))
    checks = np.array([np.abs(b - c_bar), a.imag, d.imag, trace.real - 1.0, trace.imag, low])
    inside = (checks >= _CHECK_LOWER) & (checks <= _CHECK_UPPER)
    if inside.all():
        return
    if not inside[:3].all():
        raise NonPhysicalDensity("matrix is not Hermitian")
    bad = ~inside[3:5].all(axis=0)
    if bad.any():
        raise NonPhysicalDensity(f"trace is {trace[bad][0]}, expected 1")
    raise NonPhysicalDensity(f"negative eigenvalue {low.min()}")


def fidelities(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Conditional fidelities <v|rho|v> of a stack of density matrices
    (N, 2, 2) with state vectors (N, 2), or one vector (1, 2) for all of
    them, each clamped to [0, 1]."""
    check_densities(m)
    f = (v.conj()[:, :, None] * m * v[:, None, :]).sum((1, 2)).real
    f = np.where(f > 0.0, f, 0.0)
    return np.where(f < 1.0, f, 1.0)


def conditional_fidelity(rho: DensityMatrix, psi: HybridState) -> float:
    """Conditional fidelity <psi|rho|psi>, clamped to [0, 1]."""
    return float(fidelities(rho.elements[None], psi.vector()[None])[0])


def bloch_of(rho: DensityMatrix) -> BlochVector:
    m = rho.elements
    return BlochVector(
        float(np.real(np.trace(m @ TAU1))),
        float(np.real(np.trace(m @ TAU2))),
        float(np.real(np.trace(m @ TAU3))),
    )


def densities_from_bloch(s: np.ndarray) -> np.ndarray:
    """Density matrices (I + s . tau)/2 for a stack of Bloch vectors (N, 3);
    raises OutsideBall if any is longer than 1 beyond tolerance."""
    length = np.linalg.norm(s, axis=-1)
    if (length > 1.0 + ATOL_BALL).any():
        raise OutsideBall(f"Bloch vector length {length.max()} > 1")
    return ((s @ _TAU_PARTS + _I_PARTS) / 2.0).view(complex).reshape(-1, 2, 2)


def rho_of(b: BlochVector) -> DensityMatrix:
    return DensityMatrix(densities_from_bloch(np.array([[b.s1, b.s2, b.s3]], dtype=float))[0])


# --- named state catalogue -------------------------------------------------
#
# Hybrid-sphere names follow the transverse polarization pattern each state
# produces; polarization names are the usual analyzer letters.  Polarization
# states are built from their H/V Jones components so that relative phases
# stay pinned to the circular-basis convention.

def _pol_from_jones(h: complex, v: complex) -> HybridState:
    return make_state((h + 1j * v) / _SQRT2, (h - 1j * v) / _SQRT2, BasisTag.POLARIZATION)


def jones_of(psi: HybridState) -> tuple[complex, complex]:
    """H/V Jones components of a polarization-basis state."""
    if psi.basis_tag is not BasisTag.POLARIZATION:
        raise ValueError("jones_of expects a polarization-basis state")
    return ((psi.c0 + psi.c1) / _SQRT2, 1j * (psi.c1 - psi.c0) / _SQRT2)


_HYBRID_NAMES = {
    "zero": (1, 0),
    "one": (0, 1),
    "radial": (1, 1),
    "azimuthal": (1, -1),
    "plus_i": (1, 1j),
    "minus_i": (1, -1j),
}

_POL_JONES = {
    "H": (1, 0),
    "V": (0, 1),
    "D": (1, 1),
    "A": (1, -1),
    "R": (1, -1j),
    "L": (1, 1j),
}

STATE_NAMES = tuple(_HYBRID_NAMES) + tuple(_POL_JONES)
HYBRID_SPHERE_NAMES = tuple(_HYBRID_NAMES)
POLARIZATION_NAMES = tuple(_POL_JONES)


def named_state(name: str) -> HybridState:
    if name in _HYBRID_NAMES:
        c0, c1 = _HYBRID_NAMES[name]
        return make_state(c0, c1, BasisTag.HYBRID_POINCARE)
    if name in _POL_JONES:
        h, v = _POL_JONES[name]
        return _pol_from_jones(h, v)
    raise KeyError(f"unknown state name {name!r}; expected one of {STATE_NAMES}")
