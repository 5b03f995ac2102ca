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

from .hilbert import RangeError, densities_from_bloch, fidelities
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
    so rho is physical by construction."""

    rho: np.ndarray   # (2, 2) physical density matrix, read-only
    stokes: StokesEstimate

    def fidelity_vs(self, target) -> float:
        """Conditional fidelity <target|rho|target>, clamped to [0, 1], of the
        target state's amplitudes (2,) in the (|R>, |L>) basis."""
        return float(fidelities(self.rho[None], np.asarray(target, dtype=complex)[None])[0])


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
    (N, 3) before projection and the density matrices (N, 2, 2) of the
    Stokes vectors projected onto the unit ball: physical by construction,
    the only way a matrix is made physical in this package.
    """
    stokes = stokes_of(counts)
    return stokes, densities_from_bloch(project_to_ball(stokes))


def _projector_index(records: list[CountRecord]) -> list[int]:
    """The index in ``records`` of each projector of PROJECTOR_ORDER."""
    index = {}
    for i, r in enumerate(records):
        if r.projector_id in index:
            raise ValueError(f"duplicate projector {r.projector_id!r}")
        index[r.projector_id] = i
    missing = [k for k in PROJECTOR_ORDER if k not in index]
    if missing:
        raise ValueError(f"missing projectors: {missing}")
    return [index[k] for k in PROJECTOR_ORDER]


def tomograph(records: Iterable[CountRecord], subtract_bg: bool = False) -> TomographyResult:
    """Reconstruct a physical density matrix from six count records."""
    records = list(records)
    ordered = [records[i] for i in _projector_index(records)]
    counts = np.array([[r.clicks for r in ordered]])
    if subtract_bg:
        bg = np.array([[r.bg_clicks_expected for r in ordered]], dtype=float)
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


def bootstrap_fidelity(records: Iterable[CountRecord], target,
                       n_resamples: int = 200, seed: int = 0,
                       subtract_bg: bool = False) -> tuple[float, float]:
    """Shot-noise fidelity interval by parametric bootstrap over the counts.

    Each of ``n_resamples`` (an integer >= 1) resamples redraws every
    projector's clicks from Binomial(trials, clicks/trials) and re-runs the
    reconstruction.  The draw is a pure function of the records' trials and
    clicks, ``n_resamples`` and the integer ``seed`` >= 0, so consecutive calls on
    one record set and seed share it: the raw and background-corrected
    bootstraps are paired resamples.  Returns (mean, standard deviation) of
    the resampled fidelities against the target state's amplitudes (2,) in
    the (|R>, |L>) basis.

    Raises InsufficientCounts when a basis pair is empty: in the records
    themselves (the error tomograph raises), or in one resample, where a
    redraw emptied a pair that the records fill.  Some of a few hundred
    redraws empty a pair of a few clicks; such records need more clicks
    for a bootstrap, and none is fabricated.
    """
    for name, value in (("n_resamples", n_resamples), ("seed", seed)):
        if isinstance(value, bool):   # an Integral, taken as 0 or 1
            raise TypeError(f"{name} {value!r} is not an integer")
    if not (isinstance(n_resamples, numbers.Integral) and n_resamples >= 1):
        raise RangeError(f"n_resamples {n_resamples!r} is not an integer >= 1")
    if operator.index(seed) < 0:
        raise RangeError(f"seed {seed} is negative")
    records = list(records)
    index = _projector_index(records)
    draws = _resample(tuple(r.trials for r in records), tuple(r.clicks for r in records),
                      n_resamples, operator.index(seed))
    counts = draws[:, index]
    if subtract_bg:
        bg = np.array([records[i].bg_clicks_expected for i in index], dtype=float)
        counts = subtract_background(counts, bg)
    try:
        _, rho = reconstruct(counts)
    except InsufficientCounts as error:
        tomograph(records, subtract_bg)   # raises if the records themselves leave it empty
        raise InsufficientCounts(f"{error} in a resample: the records fill the pair, but a "
                                 f"binomial redraw of their clicks emptied it; the records "
                                 f"need more clicks") from error
    fids = fidelities(rho, np.asarray(target, dtype=complex)[None])
    # the ufunc reductions of ndarray.mean and ndarray.std, without their wrappers
    n = len(fids)
    mean = np.add.reduce(fids) / n
    spread = fids - mean
    return float(mean), math.sqrt(np.add.reduce(spread * spread) / n)
