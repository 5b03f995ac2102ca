"""Classical-memory (intercept-resend) fidelity benchmarks.

A classical memory measures the incoming pulse and re-prepares it.  For an
N-photon pulse the best achievable fidelity is (N+1)/(N+2); for a weak
coherent pulse this is averaged over the non-vacuum Poisson distribution.
A cheating memory with apparent efficiency eta < 1 does better still by
answering only on the photon-rich pulses, so the efficiency-adjusted bound
maximizes the acceptance-weighted fidelity over photon-number thresholds,
with fractional acceptance at the boundary so any output probability is
matched exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .hilbert import RangeError

SHOR_PRESKILL_THRESHOLD = 0.89

_TAIL_MASS_CUTOFF = 1e-14   # relative to the non-vacuum mass
NBAR_MAX = 700.0            # exp(-nbar) underflows past this


@dataclass(frozen=True)
class BenchmarkInput:
    nbar: float
    eta: float

    def __post_init__(self):
        if not self.nbar > 0.0:   # written so that NaN fails too
            raise RangeError("nbar must be > 0")
        if not 0.0 < self.eta <= 1.0:
            raise RangeError("eta must lie in (0, 1]")


def classical_bound_nphoton(n: int) -> float:
    """Best intercept-resend fidelity on an N-photon state: (N+1)/(N+2)."""
    if not n >= 1:
        raise RangeError(f"photon number {n} is not >= 1")
    return (n + 1) / (n + 2)


def _nonvacuum_terms(nbar: float) -> tuple[float, list[float]]:
    """Non-vacuum mass 1 - P(0) and the terms P(1), P(2), ... until the
    remaining tail is below the relative cutoff."""
    if nbar > NBAR_MAX:
        raise RangeError(f"nbar {nbar} too large for the double-precision series")
    nonvac = -math.expm1(-nbar)   # accurate 1 - exp(-nbar) for tiny nbar
    terms = [math.exp(-nbar) * nbar]
    cum = terms[0]
    n = 1
    while nonvac - cum > _TAIL_MASS_CUTOFF * nonvac and n < 10_000:
        n += 1
        terms.append(terms[-1] * nbar / n)
        cum += terms[-1]
    return nonvac, terms


def classical_bound_poisson(nbar: float) -> float:
    """Poisson-averaged classical bound for a weak coherent pulse,
    conditioned on non-vacuum input."""
    if not nbar > 0.0:
        raise RangeError("nbar must be > 0")
    nonvac, terms = _nonvacuum_terms(nbar)
    if nonvac < sys.float_info.min:   # subnormal: the single-photon limit
        return 2.0 / 3.0
    total = sum((n + 2) / (n + 3) * p for n, p in enumerate(terms))
    return total / nonvac


def classical_bound_with_efficiency(b: BenchmarkInput) -> float:
    """Threshold-strategy bound: answer only on photon-rich pulses.

    The attacker matches the honest output probability eta * (1 - P(0)) by
    accepting all pulses above a photon-number threshold and a fraction of
    the boundary pulses, which fills the acceptance budget from the top of
    the Poisson distribution and is therefore the maximum over thresholds.
    Equals the Poisson bound at eta = 1.
    """
    nonvac, terms = _nonvacuum_terms(b.nbar)
    if nonvac < sys.float_info.min:
        return 2.0 / 3.0
    target = b.eta * nonvac
    if target < sys.float_info.min:
        # eta * (1 - P(0)) is subnormal, too coarse for the ratios: the limit
        # of a vanishing budget, spent on the highest photon number alone
        return (len(terms) + 1) / (len(terms) + 2)
    available = sum(terms)
    if target > available * (1.0 + 1e-12):
        # post-selection cannot supply the requested output probability;
        # the best the attacker can do is answer on everything
        return classical_bound_poisson(b.nbar)
    accepted = 0.0
    fidelity_mass = 0.0
    for i in range(len(terms) - 1, -1, -1):
        take = min(terms[i], target - accepted)
        if take <= 0.0:
            break
        fidelity_mass += (i + 2) / (i + 3) * take   # photon number N = i + 1
        accepted += take
    return fidelity_mass / target


def shor_preskill_passes(f: np.ndarray) -> np.ndarray:
    """Per fidelity of an array: strictly above the BB84 security-proof
    threshold F_T = 0.89."""
    outside = ~((f >= 0.0) & (f <= 1.0))
    if outside.any():
        raise RangeError(f"fidelity {f[outside][0]} outside [0, 1]")
    return f > SHOR_PRESKILL_THRESHOLD
