"""Phenomenological dual-rail storage-and-retrieval channel.

The microscopic atomic physics is collapsed into five numbers: a peak
storage-and-retrieval efficiency, a motional-dephasing coherence time with
Gaussian envelope eta(t) = eta0 * exp(-t^2/tau^2), a background click
probability per detection window (consumed by the photodetection module,
not applied to the state), and two rail imperfections (fractional
efficiency imbalance and relative phase error between the H and V paths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .hilbert import RangeError
from .optics import DualRailState

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
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if not 0.0 <= self.bg_click < 1.0:
            raise ValueError("bg_click must lie in [0, 1)")
        if self.rail_imbalance < 0.0:
            raise ValueError("rail_imbalance must be >= 0")


def efficiency_at(p: MemoryParams, t: float) -> float:
    """Storage-retrieval efficiency after t microseconds in memory."""
    if t < 0.0:
        raise RangeError(f"storage time {t} < 0")
    return p.eta0 * math.exp(-((t / p.tau) ** 2))


def rail_efficiencies(p: MemoryParams, t: float) -> tuple[float, float]:
    eta = efficiency_at(p, t)
    eta_h = min(1.0, max(0.0, eta * (1.0 + p.rail_imbalance / 2.0)))
    eta_v = min(1.0, max(0.0, eta * (1.0 - p.rail_imbalance / 2.0)))
    return eta_h, eta_v


def store_retrieve(d: DualRailState, p: MemoryParams, t: float) -> DualRailState:
    """Map rail amplitudes through the memory for a storage time t (us).

    Each rail is scaled by sqrt of its efficiency, the rail phase error is
    accumulated, and the OAM content rides along unchanged (the ensemble is
    spatially multimode and mode-preserving).
    """
    eta_h, eta_v = rail_efficiencies(p, t)
    sh, sv = math.sqrt(eta_h), math.sqrt(eta_v)
    return replace(
        d,
        rail_h=tuple(a * sh for a in d.rail_h),
        rail_v=tuple(a * sv for a in d.rail_v),
        rail_phase=d.rail_phase + p.rail_phase_error,
    )
