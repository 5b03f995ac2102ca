"""Single-qubit state reconstruction from six-projector click counts.

Stokes components are read off basis-pair count ratios (immune to pairwise
efficiency drift), the density matrix is the linear inversion
rho = (I + s . tau)/2, and physicality is enforced by radial projection of
the Bloch vector onto the unit ball, which for this symmetric projector set
is the closest physical state in Frobenius norm.  Background subtraction
acts on counts, before any Stokes arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .hilbert import (DensityMatrix, HybridState, conditional_fidelity, densities_from_bloch,
                      fidelities)
from .photodetection import PROJECTOR_ORDER, PROJECTOR_PAIRS, CountRecord

class InsufficientCounts(ValueError):
    """A projector basis pair has zero total counts."""


@dataclass(frozen=True)
class StokesEstimate:
    s1: float
    s2: float
    s3: float


@dataclass(frozen=True)
class TomographyResult:
    rho: DensityMatrix
    stokes: StokesEstimate

    def fidelity_vs(self, target: HybridState) -> float:
        return conditional_fidelity(self.rho, target)


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
    length = np.sqrt((stokes * stokes).sum(-1, keepdims=True))
    return np.divide(stokes, length, out=stokes.copy(), where=length > 1.0)


def reconstruct(counts: np.ndarray, bg_expected, subtract_bg: bool = False
                ) -> tuple[np.ndarray, np.ndarray]:
    """Linear-inversion tomography of a stack of count records.

    ``counts`` is (N, 6) in PROJECTOR_ORDER, ``bg_expected`` the expected
    background clicks, broadcast against it.  Returns the Stokes vectors
    (N, 3) before projection and the physical density matrices (N, 2, 2).
    """
    if subtract_bg:
        counts = subtract_background(counts, bg_expected)
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


def _estimate(stokes: np.ndarray) -> StokesEstimate:
    return StokesEstimate(*stokes[0].tolist())


def stokes_from_counts(records: Iterable[CountRecord]) -> StokesEstimate:
    """Stokes vector from the three basis-pair count asymmetries."""
    counts, _ = _count_arrays(records)
    return _estimate(stokes_of(counts))


def density_from_stokes(s: StokesEstimate) -> DensityMatrix:
    """Linear inversion with radial projection onto the Bloch ball."""
    stokes = np.array([[s.s1, s.s2, s.s3]], dtype=float)
    return DensityMatrix(densities_from_bloch(project_to_ball(stokes))[0])


def tomograph(records: Iterable[CountRecord], subtract_bg: bool = False) -> TomographyResult:
    """Reconstruct a physical density matrix from six count records."""
    counts, bg = _count_arrays(records)
    if subtract_bg:
        counts, bg = subtract_background(counts, bg), 0.0
    stokes, rho = reconstruct(counts, bg)
    return TomographyResult(DensityMatrix(rho[0]), _estimate(stokes))


def bootstrap_fidelity(records: Iterable[CountRecord], target: HybridState,
                       n_resamples: int = 200, seed: int = 0,
                       subtract_bg: bool = False) -> tuple[float, float]:
    """Shot-noise fidelity interval by parametric bootstrap over the counts.

    Each resample redraws every projector's clicks from
    Binomial(trials, clicks/trials) and re-runs the reconstruction.
    Returns (mean, standard deviation) of the resampled fidelities.
    """
    records = list(records)
    table = _by_projector(records)
    rng = np.random.default_rng(seed)
    # one draw fills (resample, record) in row-major order, the order of a
    # loop over resamples with the records in their given order inside
    draws = rng.binomial([r.trials for r in records],
                         [r.clicks / r.trials for r in records],
                         size=(n_resamples, len(records)))
    column = {r.projector_id: i for i, r in enumerate(records)}
    counts = draws[:, [column[k] for k in PROJECTOR_ORDER]]
    bg = np.array([table[k].bg_clicks_expected for k in PROJECTOR_ORDER], dtype=float)
    _, rho = reconstruct(counts, bg, subtract_bg)
    fids = fidelities(rho, target.vector()[None])
    return float(fids.mean()), float(fids.std())
