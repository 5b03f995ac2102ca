"""Optical elements: q-plate encode/decode, frame rotation and calcite
beam-displacer rail splitting/recombination.

The q-plate couples spin and orbital angular momentum: with half-integer
charge q it sends a polarization qubit a|R> + b|L> to the structured state
a|L,-2q> + b|R,+2q>, and a second pass inverts the map.  Beam displacers
decompose a state into an H rail and a V rail; each rail carries its OAM
content unchanged, so rails are stored as small amplitude vectors over the
OAM labels rather than bare scalars.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import BasisTag, HybridState, RangeError, make_state, jones_of

_SQRT2 = math.sqrt(2.0)


class VacuumOutput(ValueError):
    """Both rail amplitudes are zero; recombination has no state to return."""


@dataclass(frozen=True)
class QPlateParams:
    q: float = 0.5
    alpha0: float = 0.0
    tuning_delta: float = math.pi       # retardation; pi = fully tuned
    conversion_efficiency: float = 1.0

    def __post_init__(self):
        if abs(2 * self.q - round(2 * self.q)) > 1e-9:
            raise ValueError(f"q must be half-integer, got {self.q}")
        if not 0.0 <= self.tuning_delta < 2 * math.pi:
            raise ValueError("tuning_delta must lie in [0, 2*pi)")
        if not 0.0 <= self.conversion_efficiency <= 1.0:
            raise ValueError("conversion_efficiency must lie in [0, 1]")


@dataclass(frozen=True)
class DualRailState:
    """Amplitudes of the H and V displacer rails, resolved over OAM labels.

    ``rail_h[k]`` is the amplitude of OAM mode ``oam_labels[k]`` in the H
    rail.  ``rail_phase`` is the relative phase imparted between the two
    interferometric paths; it is applied to the V rail on recombination.
    Total power may drop below 1 after a lossy channel.
    """

    rail_h: tuple[complex, ...]
    rail_v: tuple[complex, ...]
    oam_labels: tuple[int, ...]
    rail_phase: float = 0.0

    def __post_init__(self):
        if not (len(self.rail_h) == len(self.rail_v) == len(self.oam_labels)):
            raise ValueError("rail amplitude vectors must match the OAM labels")

    def power(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.rail_h + self.rail_v))


def scalar_rails(h: complex, v: complex, rail_phase: float = 0.0) -> DualRailState:
    """Rail pair for a polarization state (single OAM-0 mode per rail)."""
    return DualRailState((complex(h),), (complex(v),), (0,), rail_phase)


@dataclass(frozen=True)
class RecombineResult:
    state: HybridState
    throughput: float                         # total recombined power, leak included
    leak: tuple[complex, complex] = (0j, 0j)  # amplitudes on (|R,-1>, |L,+1>)

    @property
    def leak_power(self) -> float:
        """Power diverted outside the logical two-space."""
        return abs(self.leak[0]) ** 2 + abs(self.leak[1]) ** 2


def _check_charge(p: QPlateParams):
    if abs(abs(2 * p.q) - 1) > 1e-9:
        raise RangeError(f"charge q={p.q} does not map onto the two-dimensional hybrid basis")


def qplate_apply(psi: HybridState, p: QPlateParams) -> HybridState:
    """Encode a polarization qubit onto the hybrid sphere.

    a|R> + b|L>  ->  a|L,-2q> + b|R,+2q>, with the plate offset angle
    entering as a relative phase exp(2i*alpha0) on the second component.
    A detuned plate is heralded: the returned state is the converted part,
    and conversion_probability() gives the success weight.
    """
    if psi.basis_tag is not BasisTag.POLARIZATION:
        raise ValueError("qplate_apply expects a polarization-basis state")
    _check_charge(p)
    return make_state(
        psi.c0, psi.c1 * cmath.exp(2j * p.alpha0), BasisTag.HYBRID_POINCARE
    )


def qplate_decode(psi: HybridState, p: QPlateParams) -> HybridState:
    """Convert a hybrid state back to polarization: inverse of qplate_apply."""
    if psi.basis_tag is not BasisTag.HYBRID_POINCARE:
        raise ValueError("qplate_decode expects a hybrid-basis state")
    _check_charge(p)
    return make_state(
        psi.c0, psi.c1 * cmath.exp(-2j * p.alpha0), BasisTag.POLARIZATION
    )


def conversion_probability(p: QPlateParams) -> float:
    """Heralded success probability of one pass through the plate."""
    return p.conversion_efficiency * math.sin(p.tuning_delta / 2.0) ** 2


def _frame_phases(theta: float) -> tuple[complex, complex]:
    """(exp(-i theta), exp(+i theta)): the phases a detection frame rotated
    by theta puts on the |R> and |L> amplitudes."""
    return cmath.exp(-1j * theta), cmath.exp(1j * theta)


def rotate_frame(psi: HybridState, theta: float) -> HybridState:
    """View the state in a detection frame rotated by theta about the beam axis.

    Polarization basis: |R> -> exp(-i theta)|R>, |L> -> exp(+i theta)|L>
    (linear polarizations rotate by theta).  Hybrid basis: each logical
    state carries zero total angular momentum, so the state is unchanged.
    """
    if psi.basis_tag is BasisTag.HYBRID_POINCARE:
        return psi
    p0, p1 = _frame_phases(theta)
    return HybridState(psi.c0 * p0, psi.c1 * p1, BasisTag.POLARIZATION)


def displacer_split(psi: HybridState) -> DualRailState:
    """Split a state into H and V rails, OAM content carried per rail.

    Polarization states occupy a single OAM-0 mode per rail; hybrid states
    spread |L,-1> and |R,+1> polarization content over both rails:
    |0> = |L,-1> lands on rails (1/sqrt2, +i/sqrt2), both in OAM -1.
    """
    if psi.basis_tag is BasisTag.POLARIZATION:
        h, v = jones_of(psi)
        return scalar_rails(h, v)
    # |L> = (|H> + i|V>)/sqrt2 and |R> = (|H> - i|V>)/sqrt2, applied to the
    # OAM -1 and +1 logical components respectively.
    rail_h = (psi.c0 / _SQRT2, psi.c1 / _SQRT2)
    rail_v = (1j * psi.c0 / _SQRT2, -1j * psi.c1 / _SQRT2)
    return DualRailState(rail_h, rail_v, (-1, +1), 0.0)


def displacer_recombine(d: DualRailState) -> RecombineResult:
    """Recombine the rails into a logical state plus throughput.

    Inverse of displacer_split at rail_phase = 0 and no loss.  Rail
    imbalance or phase error on hybrid states populates the orthogonal
    spin-orbit combinations (|R,-1>, |L,+1>); that weight is reported as
    leak_power and the returned state is the renormalized logical part.
    Throughput is the full recombined power, leak included.
    """
    total = d.power()
    if total == 0.0:
        raise VacuumOutput("both rails are empty")
    phase = cmath.exp(1j * d.rail_phase)
    if d.oam_labels == (0,):
        h = d.rail_h[0]
        v = d.rail_v[0] * phase
        c0 = (h + 1j * v) / _SQRT2   # |R> component
        c1 = (h - 1j * v) / _SQRT2   # |L> component
        state = make_state(c0, c1, BasisTag.POLARIZATION)
        return RecombineResult(state, total)
    a_h = np.asarray(d.rail_h, dtype=complex)
    a_v = np.asarray(d.rail_v, dtype=complex) * phase
    keep0 = (a_h[0] - 1j * a_v[0]) / _SQRT2   # <L,-1|
    keep1 = (a_h[1] + 1j * a_v[1]) / _SQRT2   # <R,+1|
    leak0 = (a_h[0] + 1j * a_v[0]) / _SQRT2   # <R,-1|
    leak1 = (a_h[1] - 1j * a_v[1]) / _SQRT2   # <L,+1|
    if abs(keep0) ** 2 + abs(keep1) ** 2 == 0.0:
        raise VacuumOutput("recombined state has no logical component")
    state = make_state(keep0, keep1, BasisTag.HYBRID_POINCARE)
    return RecombineResult(state, total, (complex(leak0), complex(leak1)))
