"""Phenomenological dual-rail storage-and-retrieval channel.

The microscopic atomic physics is collapsed into five numbers: a peak
storage-and-retrieval efficiency, a motional-dephasing coherence time with
Gaussian envelope eta(t) = eta0 * exp(-t^2/tau^2), a background click
probability per detection window (consumed by the photodetection module,
not applied to the state), and two rail imperfections (fractional
efficiency imbalance and relative phase error between the H and V paths).

Beam displacers split the light into an H and a V rail, the memory scales
them by sqrt(eta_H) and sqrt(eta_V) e^{i phi}, and the displacers
recombine them.  The channel is that map in closed form: the amplitude
factors g, h = (sqrt(eta_H) +- sqrt(eta_V) e^{i phi})/2 of rail_gains.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .hilbert import RangeError

DEFAULT_ETA0 = 0.26      # measured peak storage-retrieval efficiency
DEFAULT_TAU_US = 7.0     # motional-dephasing coherence time, microseconds


@dataclass(frozen=True)
class MemoryParams:
    eta0: float = DEFAULT_ETA0
    tau: float = DEFAULT_TAU_US          # microseconds, 1/e time of eta(t)
    bg_click: float = 0.0                # background click prob per window
    rail_imbalance: float = 0.0          # fractional efficiency difference
    rail_phase_error: float = 0.0        # radians added per retrieval

    def __post_init__(self):
        if not 0.0 <= self.eta0 <= 1.0:
            raise ValueError("eta0 must lie in [0, 1]")
        if not self.tau > 0.0:   # written so that NaN fails too
            raise ValueError("tau must be positive")
        if not 0.0 <= self.bg_click < 1.0:
            raise ValueError("bg_click must lie in [0, 1)")
        if not 0.0 <= self.rail_imbalance <= 2.0:   # past 2, eta_V would be negative
            raise ValueError("rail_imbalance must lie in [0, 2]")
        if not abs(self.rail_phase_error) < math.inf:   # NaN fails too
            raise ValueError("rail_phase_error must be finite")


def efficiency_at(p: MemoryParams, t: float) -> float:
    """Storage-retrieval efficiency after t microseconds in memory."""
    if not t >= 0.0:
        raise RangeError(f"storage time {t} is not >= 0")
    return p.eta0 * math.exp(-((t / p.tau) ** 2))


def rail_efficiencies(p: MemoryParams, t: float) -> tuple[float, float]:
    eta = efficiency_at(p, t)
    eta_h = min(1.0, max(0.0, eta * (1.0 + p.rail_imbalance / 2.0)))
    eta_v = min(1.0, max(0.0, eta * (1.0 - p.rail_imbalance / 2.0)))
    return eta_h, eta_v


def rail_gains(p: MemoryParams, times: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """The amplitude factors (g, h) of the retrieval, one per storage time.

    A hybrid state c0|L,-1> + c1|R,+1> comes back as g times itself plus h
    times its spin-orbit partner c0|R,-1> + c1|L,+1>, which lies outside the
    logical space: |g|^2 is kept and |h|^2 leaks.  A polarization state
    (c0, c1) in the (|R>, |L>) basis comes back as (g c0 + h c1, h c0 + g c1),
    the Jones matrix diag(sqrt(eta_H), sqrt(eta_V) e^{i phi}) in that basis.
    """
    sh, sv = np.sqrt(np.array([rail_efficiencies(p, t) for t in times]).reshape(-1, 2)).T
    v = sv * cmath.exp(1j * p.rail_phase_error)
    return (sh + v) / 2.0, (sh - v) / 2.0
