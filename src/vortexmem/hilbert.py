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
    """Raise NonPhysicalDensity unless every matrix of the stack (N, 2, 2) is
    Hermitian, has unit trace and no negative eigenvalue."""
    adjoint = m.conj().swapaxes(-1, -2)
    if not np.isclose(m, adjoint, atol=ATOL_HERMITIAN, rtol=0.0).all():
        raise NonPhysicalDensity("matrix is not Hermitian")
    trace = np.trace(m, axis1=-2, axis2=-1)
    bad = (np.abs(trace.real - 1.0) > ATOL_TRACE) | (np.abs(trace.imag) > ATOL_TRACE)
    if bad.any():
        raise NonPhysicalDensity(f"trace is {trace[bad][0]}, expected 1")
    eig = np.linalg.eigvalsh((m + adjoint) / 2.0)
    if eig.size and eig.min() < -ATOL_EIGEN:
        raise NonPhysicalDensity(f"negative eigenvalue {eig.min()}")


def fidelities(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Conditional fidelities <v|rho|v> of a stack of density matrices
    (N, 2, 2) with state vectors (N, 2), each clamped to [0, 1]."""
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
    s1, s2, s3 = (s[:, i, None, None] for i in range(3))
    return (np.eye(2, dtype=complex) + s1 * TAU1 + s2 * TAU2 + s3 * TAU3) / 2.0


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
