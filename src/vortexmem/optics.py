"""Optical elements: the q-plate pass and the detection-frame rotation.

The q-plate couples spin and orbital angular momentum: with charge q it
sends a polarization qubit a|R> + b|L> to the structured state
a|L,-2q> + b|R,+2q>, and a second pass inverts the map.  Both bases carry a
state as the same amplitude pair (c0, c1), so a pass is a phase on c1 and
the basis the result is in follows from the direction of the pass.  Only
q = 1/2 maps onto the package's hybrid basis (|L,-1>, |R,+1>); a -1/2 plate
would give the pair (|L,+1>, |R,-1>), which the detection frame turns, so
QPlateParams rejects every other charge.  The beam displacers around the
memory are part of its closed-form channel (memory.rail_gains).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .hilbert import RangeError, normalized


@dataclass(frozen=True)
class QPlateParams:
    q: float = 0.5
    alpha0: float = 0.0
    tuning_delta: float = math.pi       # retardation; pi = fully tuned
    conversion_efficiency: float = 1.0

    def __post_init__(self):
        if self.q != 0.5:   # NaN fails too
            raise RangeError(
                f"charge q={self.q}: only q = 1/2 maps onto the hybrid basis (|L,-1>, |R,+1>)")
        if not 0.0 <= self.tuning_delta < 2 * math.pi:
            raise ValueError("tuning_delta must lie in [0, 2*pi)")
        if not 0.0 <= self.conversion_efficiency <= 1.0:
            raise ValueError("conversion_efficiency must lie in [0, 1]")
        if not abs(self.alpha0) < math.inf:   # NaN fails too
            raise ValueError("alpha0 must be finite")


def qplate_pass(c, p: QPlateParams, sign: int) -> tuple[complex, complex]:
    """One pass of the amplitudes c = (c0, c1) through the plate.

    sign = +1 encodes a polarization qubit onto the hybrid sphere,
    a|R> + b|L>  ->  a|L,-1> + b|R,+1>, with the plate offset angle
    entering as a relative phase exp(2i*alpha0) on the second component;
    sign = -1 decodes a hybrid state back to polarization, the inverse.
    A detuned plate is heralded: the returned state is the converted part,
    and conversion_probability() gives the success weight.
    """
    phase = cmath.exp(2j * p.alpha0) if sign > 0 else cmath.exp(-2j * p.alpha0)
    return normalized(c[0], c[1] * phase)


def conversion_probability(p: QPlateParams) -> float:
    """Heralded success probability of one pass through the plate."""
    return p.conversion_efficiency * math.sin(p.tuning_delta / 2.0) ** 2


def _frame_phases(theta: float) -> tuple[complex, complex]:
    """(exp(-i theta), exp(+i theta)): the phases a detection frame rotated
    by theta puts on the |R> and |L> amplitudes."""
    return cmath.exp(-1j * theta), cmath.exp(1j * theta)

