"""Monte Carlo click statistics for weak coherent pulses behind projective
polarization analyzers.

The detector is a non-number-resolving threshold detector: a pulse with
Poissonian photon number of mean nbar, end-to-end survival s and analyzer
projection probability p clicks with probability
1 - (1 - bg) * exp(-nbar * s * p), where bg is an unpolarized background
click probability per detection window (dark counts plus control leakage).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import RangeError, named_state

PROJECTOR_ORDER = ("H", "V", "D", "A", "R", "L")
PROJECTOR_PAIRS = (("H", "V"), ("D", "A"), ("R", "L"))

# click counts and their background subtraction are float64 arithmetic,
# exact only up to 2**53
TRIALS_MAX = 2**53


@dataclass(frozen=True)
class SourceParams:
    nbar: float = 0.5     # mean photon number per pulse

    def __post_init__(self):
        if not self.nbar >= 0.0:   # written so that NaN fails too
            raise ValueError("nbar must be >= 0")


@dataclass(frozen=True)
class CountRecord:
    # clicks are integers for sampled data; expectation-valued records from
    # the exact pipeline carry floats
    projector_id: str
    clicks: float
    trials: int
    bg_clicks_expected: float = 0.0

    def __post_init__(self):
        if self.projector_id not in PROJECTOR_ORDER:
            raise ValueError(f"unknown projector {self.projector_id!r}")
        check_counts(self.clicks, self.trials)
        bg = self.bg_clicks_expected
        if not (math.isfinite(bg) and 0 <= bg <= self.trials):
            raise ValueError(f"bg_clicks_expected {bg} must be finite and lie in [0, trials]")


def check_counts(clicks: np.ndarray, trials) -> None:
    """The ranges of clicks and trials, for one click number or a stack of
    them at one number of trials; plain comparisons, which a NaN fails."""
    if not (1 <= trials <= TRIALS_MAX and trials % 1 == 0):
        raise ValueError(f"trials must be a whole number in [1, {TRIALS_MAX}]")
    inside = (clicks >= 0) & (clicks <= trials)   # a bool for one click number
    if not (inside if isinstance(inside, bool) else inside.all()):
        raise ValueError("clicks must lie in [0, trials]")


def click_probabilities(nbar: float, survival: np.ndarray, proj_prob: np.ndarray,
                        bg: float) -> np.ndarray:
    """Click probabilities (N, k) for survivals (N,) and analyzer projection
    probabilities (N, k) at one mean photon number and background."""
    if not (math.isfinite(nbar) and nbar >= 0.0):
        raise RangeError(f"nbar {nbar} out of range")
    for name, values in (("survival", survival), ("proj_prob", proj_prob)):
        outside = ~((values >= 0.0) & (values <= 1.0))
        if outside.any():
            raise RangeError(f"{name} {values[outside][0]} outside [0, 1]")
    if not 0.0 <= bg < 1.0:
        raise RangeError(f"bg {bg} outside [0, 1)")
    return 1.0 - (1.0 - bg) * np.exp(-nbar * survival[:, None] * proj_prob)


# analyzer amplitudes, conjugated: row k gives <analyzer k| in the (|R>, |L>) basis
_ANALYZER_BRAS = np.array([named_state(name) for name in PROJECTOR_ORDER]).conj()


def projection_weights(amps: np.ndarray) -> np.ndarray:
    """Probabilities |<analyzer|psi>|^2 (N, 6) of the six analyzer settings
    for normalized polarization amplitudes (N, 2) in the (|R>, |L>) basis.

    Each is divided by the sum over its basis pair, which is 1 up to
    round-off, so every probability lies in [0, 1]: |<H|H>|^2 alone comes to
    1.0000000000000004.
    """
    weights = np.abs((_ANALYZER_BRAS * amps[:, None, :]).sum(-1)) ** 2
    return weights / (weights[:, 0::2] + weights[:, 1::2]).repeat(2, axis=1)


def sample_counts(probabilities: np.ndarray, trials: int, seed: int) -> np.ndarray:
    """Binomial click counts (N, k) for click probabilities (N, k).

    All counts come from one stream, default_rng(seed), drawn in row-major
    order: row 0 first, each row in column order.  Row 0 of a batch is
    therefore the one-row draw at the same seed.  Probabilities outside
    [0, 1] raise numpy's ValueError.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return np.random.default_rng(seed).binomial(trials, probabilities)


def snr_of(nbar: float, survival: float, bg: float) -> float:
    """Signal-to-noise ratio (p_signal - p_bg)/p_bg at the maximal projector."""
    if bg <= 0.0:
        return math.inf
    return (1.0 - bg) * (1.0 - math.exp(-nbar * survival)) / bg


def calibrate_background(nbar: float, survival: float, snr: float) -> float:
    """Background click probability per window that realizes a target SNR."""
    if snr <= 0.0:
        raise RangeError("target SNR must be positive")
    sig = 1.0 - math.exp(-nbar * survival)
    return sig / (snr + sig)


def snr_for_raw_fidelity(f_raw: float, state_fidelity: float = 1.0) -> float:
    """SNR at which the expected raw conditional fidelity equals f_raw.

    With unpolarized background, the aligned Stokes component shrinks to
    s_true * R/(R+2), so F_raw = (1 + (2*state_fidelity - 1) * R/(R+2))/2.
    """
    s_true = 2.0 * state_fidelity - 1.0
    s_need = 2.0 * f_raw - 1.0
    if not 0.0 < s_need < s_true:
        raise RangeError("raw fidelity target incompatible with state fidelity")
    return 2.0 * s_need / (s_true - s_need)
