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
from typing import Mapping

import numpy as np

from .hilbert import BasisTag, HybridState, RangeError, named_state

PROJECTOR_ORDER = ("H", "V", "D", "A", "R", "L")
PROJECTOR_PAIRS = (("H", "V"), ("D", "A"), ("R", "L"))

_ANALYZERS = {name: named_state(name) for name in PROJECTOR_ORDER}


@dataclass(frozen=True)
class SourceParams:
    nbar: float = 0.5     # mean photon number per pulse

    def __post_init__(self):
        if self.nbar < 0.0:
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


def check_counts(clicks, trials) -> None:
    """The CountRecord ranges, for one record or a stack of clicks."""
    if np.any(np.less(trials, 1)):
        raise ValueError("trials must be >= 1")
    if np.any(np.less(clicks, 0) | np.greater(clicks, trials)):
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
    exponent = -nbar * survival[:, None] * proj_prob
    # math.exp, not np.exp: the two differ in the last bit of some results
    decay = np.array([math.exp(x) for x in exponent.ravel().tolist()]).reshape(exponent.shape)
    return 1.0 - (1.0 - bg) * decay


def click_probability(nbar: float, survival: float, proj_prob: float, bg: float) -> float:
    return float(click_probabilities(nbar, np.array([survival]), np.array([[proj_prob]]), bg)[0, 0])


# analyzer amplitudes, conjugated: row k gives <analyzer k| in the (|R>, |L>) basis
_ANALYZER_BRAS = np.array([[a.c0, a.c1] for a in _ANALYZERS.values()]).conj()


def projection_weights(amps: np.ndarray) -> np.ndarray:
    """Probabilities |<analyzer|psi>|^2 (N, 6) of the six analyzer settings
    for polarization amplitudes (N, 2) in the (|R>, |L>) basis."""
    # complex products written out in real arithmetic and magnitudes taken
    # with np.hypot: numpy's complex array multiply and np.abs can differ in
    # the last bit from the scalar complex arithmetic of a single state
    ar, ai = _ANALYZER_BRAS.real, _ANALYZER_BRAS.imag
    br, bi = amps.real[:, None, :], amps.imag[:, None, :]
    re = ar * br - ai * bi
    im = ar * bi + ai * br
    magnitude = np.hypot(re[..., 0] + re[..., 1], im[..., 0] + im[..., 1])
    # squared by pow, as Python's ** does; numpy's square rounds differently
    return np.array([m ** 2 for m in magnitude.ravel().tolist()]).reshape(magnitude.shape)


def projection_probabilities(psi: HybridState) -> dict[str, float]:
    """Probabilities of the six analyzer settings H, V, D, A, R, L."""
    if psi.basis_tag is not BasisTag.POLARIZATION:
        raise ValueError("projection_probabilities expects a polarization state")
    return dict(zip(PROJECTOR_ORDER, projection_weights(psi.vector()[None])[0].tolist()))


def sample_counts(probabilities: np.ndarray, trials: int, seeds) -> np.ndarray:
    """Binomial click counts (N, k) for click probabilities (N, k).

    Row i is drawn from its own generator, default_rng(seeds[i]), one draw
    per column in column order, so each row is bit-reproducible on its own.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = np.clip(probabilities, 0.0, 1.0)  # guard float round-off
    counts = np.empty(p.shape, dtype=np.int64)
    for i, (seed, row) in enumerate(zip(seeds, p.tolist())):
        # the generator default_rng(seed) builds, without its dispatch; scalar
        # draws skip the array validation that makes one six-element call
        # three times slower, and give the same stream
        rng = np.random.Generator(np.random.PCG64(seed))
        counts[i] = [rng.binomial(trials, x) for x in row]
    return counts


def simulate_counts(probabilities: Mapping[str, float], trials: int, seed: int,
                    bg: float = 0.0) -> list[CountRecord]:
    """Binomial click counts per projector from a seeded generator.

    Projectors are drawn in the canonical H, V, D, A, R, L order so that a
    given (probabilities, trials, seed) triple is bit-reproducible.
    """
    names = [name for name in PROJECTOR_ORDER if name in probabilities]
    clicks = sample_counts(np.array([[probabilities[k] for k in names]], dtype=float),
                           trials, [seed])
    return [CountRecord(name, c, trials, bg * trials) for name, c in zip(names, clicks[0].tolist())]


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
