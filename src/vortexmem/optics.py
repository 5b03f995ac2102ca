"""Optical elements: q-plate encode/decode and the detection-frame rotation.

The q-plate couples spin and orbital angular momentum: with charge q it
sends a polarization qubit a|R> + b|L> to the structured state
a|L,-2q> + b|R,+2q>, and a second pass inverts the map.  Only q = +-1/2
maps onto the two-dimensional hybrid basis; QPlateParams rejects any other
charge.  The beam displacers around the memory are part of its
closed-form channel (memory.rail_gains).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .hilbert import BasisTag, HybridState, RangeError, make_state


@dataclass(frozen=True)
class QPlateParams:
    q: float = 0.5
    alpha0: float = 0.0
    tuning_delta: float = math.pi       # retardation; pi = fully tuned
    conversion_efficiency: float = 1.0

    def __post_init__(self):
        if not abs(abs(2 * self.q) - 1) <= 1e-9:   # written so that NaN fails too
            raise RangeError(
                f"charge q={self.q} does not map onto the two-dimensional hybrid basis")
        if not 0.0 <= self.tuning_delta < 2 * math.pi:
            raise ValueError("tuning_delta must lie in [0, 2*pi)")
        if not 0.0 <= self.conversion_efficiency <= 1.0:
            raise ValueError("conversion_efficiency must lie in [0, 1]")


def qplate_apply(psi: HybridState, p: QPlateParams) -> HybridState:
    """Encode a polarization qubit onto the hybrid sphere.

    a|R> + b|L>  ->  a|L,-2q> + b|R,+2q>, with the plate offset angle
    entering as a relative phase exp(2i*alpha0) on the second component.
    A detuned plate is heralded: the returned state is the converted part,
    and conversion_probability() gives the success weight.
    """
    if psi.basis_tag is not BasisTag.POLARIZATION:
        raise ValueError("qplate_apply expects a polarization-basis state")
    return make_state(
        psi.c0, psi.c1 * cmath.exp(2j * p.alpha0), BasisTag.HYBRID_POINCARE
    )


def qplate_decode(psi: HybridState, p: QPlateParams) -> HybridState:
    """Convert a hybrid state back to polarization: inverse of qplate_apply."""
    if psi.basis_tag is not BasisTag.HYBRID_POINCARE:
        raise ValueError("qplate_decode expects a hybrid-basis state")
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

