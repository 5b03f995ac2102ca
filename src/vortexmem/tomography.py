"""Single-qubit state reconstruction from six-projector click counts.

Stokes components are read off basis-pair count ratios (immune to pairwise
efficiency drift), the density matrix is the linear inversion
rho = (I + s . tau)/2, and physicality is enforced by radial projection of
the Bloch vector onto the unit ball, which for this symmetric projector set
is the closest physical state in Frobenius norm.  Background subtraction
acts on counts, before any Stokes arithmetic.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .hilbert import HybridState, RangeError, _fidelities, densities_from_bloch
from .photodetection import PROJECTOR_ORDER, PROJECTOR_PAIRS, CountRecord

class InsufficientCounts(ValueError):
    """A projector basis pair has zero total counts."""


@dataclass(frozen=True)
class StokesEstimate:
    s1: float
    s2: float
    s3: float


@dataclass(frozen=True, eq=False)   # == on array fields has no single truth value
class TomographyResult:
    """A reconstructed state.  Only tomograph builds one, from reconstruct,
    whose matrices are physical by construction, so fidelity_vs does not
    check rho again."""

    rho: np.ndarray   # (2, 2) physical density matrix, read-only
    stokes: StokesEstimate

    def fidelity_vs(self, target: HybridState) -> float:
        """Conditional fidelity <target|rho|target>, clamped to [0, 1]."""
        return float(_fidelities(self.rho[None], target.vector()[None])[0])


def subtract_background(counts: np.ndarray, bg_expected) -> np.ndarray:
    """Remove the expected background clicks, clamping at zero.  Integer
    (sampled) counts are rounded back to whole clicks; float
    (expectation-valued) counts stay exact."""
    corrected = counts - bg_expected
    corrected = np.where(corrected > 0.0, corrected, 0.0)
    return np.rint(corrected) if counts.dtype.kind in "iu" else corrected


def stokes_of(counts: np.ndarray) -> np.ndarray:
    """Stokes vectors (N, 3) from counts (N, 6) in PROJECTOR_ORDER: the three
    basis-pair count asymmetries."""
    plus, minus = counts[:, 0::2], counts[:, 1::2]
    total = plus + minus
    empty = total == 0
    if empty.any():
        a, b = PROJECTOR_PAIRS[int(np.argwhere(empty)[0, 1])]
        raise InsufficientCounts(f"pair ({a}, {b}) has zero counts")
    return (plus - minus) / total


def project_to_ball(stokes: np.ndarray) -> np.ndarray:
    """Radial projection of Stokes vectors (N, 3) onto the unit Bloch ball."""
    length = np.sqrt(np.add.reduce(stokes * stokes, axis=-1, keepdims=True))
    return np.divide(stokes, length, out=stokes.copy(), where=length > 1.0)


def reconstruct(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear-inversion tomography of a stack of count records.

    ``counts`` is (N, 6) in PROJECTOR_ORDER.  Returns the Stokes vectors
    (N, 3) before projection and the physical density matrices (N, 2, 2):
    projected into the ball, they pass hilbert.check_densities, so their
    fidelities need no second check (hilbert._fidelities).
    """
    stokes = stokes_of(counts)
    return stokes, densities_from_bloch(project_to_ball(stokes))


def _count_arrays(records: Iterable[CountRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Clicks and expected background (1, 6) of six records, in PROJECTOR_ORDER."""
    table = _by_projector(records)
    counts = np.array([[table[k].clicks for k in PROJECTOR_ORDER]])
    bg = np.array([[table[k].bg_clicks_expected for k in PROJECTOR_ORDER]], dtype=float)
    return counts, bg


def _by_projector(records: Iterable[CountRecord]) -> dict[str, CountRecord]:
    table = {}
    for r in records:
        if r.projector_id in table:
            raise ValueError(f"duplicate projector {r.projector_id!r}")
        table[r.projector_id] = r
    missing = [a for pair in PROJECTOR_PAIRS for a in pair if a not in table]
    if missing:
        raise ValueError(f"missing projectors: {missing}")
    return table


def tomograph(records: Iterable[CountRecord], subtract_bg: bool = False) -> TomographyResult:
    """Reconstruct a physical density matrix from six count records."""
    counts, bg = _count_arrays(records)
    if subtract_bg:
        counts = subtract_background(counts, bg)
    stokes, rho = reconstruct(counts)
    rho = rho[0]
    rho.setflags(write=False)
    return TomographyResult(rho, StokesEstimate(*stokes[0].tolist()))


@functools.lru_cache(maxsize=1)
def _resample(trials: tuple, clicks: tuple, n_resamples: int, seed: int) -> np.ndarray:
    """Binomial redraws (n_resamples, records) of every record's clicks, read-only.

    One draw fills (resample, record) in row-major order, the order of a loop
    over resamples with the records in their given order inside.  The one
    cached draw serves the next call on the same values, such as the
    background-corrected bootstrap after the raw one.
    """
    draws = np.random.default_rng(seed).binomial(
        trials, [c / t for c, t in zip(clicks, trials)], size=(n_resamples, len(trials)))
    draws.setflags(write=False)
    return draws


def bootstrap_fidelity(records: Iterable[CountRecord], target: HybridState,
                       n_resamples: int = 200, seed: int = 0,
                       subtract_bg: bool = False) -> tuple[float, float]:
    """Shot-noise fidelity interval by parametric bootstrap over the counts.

    Each of ``n_resamples`` (an integer >= 1) resamples redraws every
    projector's clicks from Binomial(trials, clicks/trials) and re-runs the
    reconstruction.  The draw is a pure function of the records' trials and
    clicks, ``n_resamples`` and the integer ``seed`` >= 0, so consecutive calls on
    one record set and seed share it: the raw and background-corrected
    bootstraps are paired resamples.  Returns (mean, standard deviation) of
    the resampled fidelities.
    """
    if not (isinstance(n_resamples, numbers.Integral) and n_resamples >= 1):
        raise RangeError(f"n_resamples {n_resamples!r} is not an integer >= 1")
    if isinstance(seed, bool):   # operator.index would take it as 0 or 1
        raise TypeError(f"seed {seed!r} is not an integer")
    if operator.index(seed) < 0:
        raise RangeError(f"seed {seed} is negative")
    records = list(records)
    table = _by_projector(records)
    draws = _resample(tuple(r.trials for r in records), tuple(r.clicks for r in records),
                      n_resamples, operator.index(seed))
    column = {r.projector_id: i for i, r in enumerate(records)}
    counts = draws[:, [column[k] for k in PROJECTOR_ORDER]]
    if subtract_bg:
        bg = np.array([table[k].bg_clicks_expected for k in PROJECTOR_ORDER], dtype=float)
        counts = subtract_background(counts, bg)
    _, rho = reconstruct(counts)
    fids = _fidelities(rho, target.vector()[None])
    # the ufunc reductions of ndarray.mean and ndarray.std, without their wrappers
    n = len(fids)
    mean = np.add.reduce(fids) / n
    spread = fids - mean
    return float(mean), math.sqrt(np.add.reduce(spread * spread) / n)
