"""Transverse-plane rendering of the stored modes at the beam waist.

Hybrid states are superpositions of two p = 0 Laguerre-Gaussian carriers
with opposite topological charge and opposite circular polarizations,
E(r, phi) = c0 * LG_{0,-1} * e_L + c1 * LG_{0,+1} * e_R, which produces the
radial / azimuthal / spiraling polarization textures.  As LG_{0,-1} is the
conjugate of LG_{0,+1}, s1 + i s2 = 2 conj(c0) c1 LG_{0,+1}^2, so on every
pixel a unit-power state has the intensity |LG_{0,1}|^2, the polarization
azimuth arg(LG_{0,+1}) + arg(conj(c0) c1) / 2 (mod pi) and the degree of
linear polarization 2|c0||c1| (Milione et al., PRL 107, 053601 (2011)).
Only the waist plane is modelled; all observables of interest live
at conjugate planes, so propagation and Gouy phase add nothing testable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Square sampling window; extent is the half-width in waist units.

    Coordinates are a symmetric linspace over [-extent, extent], so an odd
    pixel count places samples exactly on the coordinate axes (needed to
    resolve the nodal lines of analyzer projections) and 90-degree array
    rotations coincide with exact image rotations.
    """

    nx: int = 256
    ny: int = 256
    extent: float = 3.0

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2 pixels per axis")
        if self.extent <= 0.0:
            raise ValueError("extent must be positive")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.linspace(-self.extent, self.extent, self.nx),
            np.linspace(-self.extent, self.extent, self.ny),
        )

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        x, y = self.axes()
        return np.meshgrid(x, y)

    def pixel_area(self) -> float:
        x, y = self.axes()
        return float((x[1] - x[0]) * (y[1] - y[0]))


# bounded, since each entry holds a full complex grid
@functools.lru_cache(maxsize=8)
def lg_amplitude(l: int, grid: Grid) -> np.ndarray:
    """Laguerre-Gaussian LG_{0,l} amplitude at the waist plane, unit power.

    Amplitude ~ r^|l| * exp(-r^2) * exp(i*l*phi), r in waist units; the ring
    of maximum intensity sits at r = sqrt(|l|/2).  Built as (x +- iy)^|l|
    times the outer product of the axes' Gaussians (math.exp): numpy's
    transcendental ufuncs round differently per SIMD level.  The returned
    array is shared between calls and read-only.
    """
    x, y = grid.axes()
    xx, yy = grid.mesh()
    gauss = np.outer([math.exp(-v * v) for v in y], [math.exp(-v * v) for v in x])
    field = (xx + 1j * yy if l >= 0 else xx - 1j * yy) ** abs(l) * gauss
    power = (field.real ** 2 + field.imag ** 2).sum() * grid.pixel_area()
    field /= math.sqrt(power)
    field.setflags(write=False)
    return field


def azimuth(turn: float, grid: Grid) -> np.ndarray:
    """Per-pixel polarization azimuth in [0, pi) of a hybrid state whose
    amplitudes have the relative phase turn = arg(conj(c0) c1).  A circular
    pole state has none; turn = 0 gives it the carrier's phase."""
    carrier = lg_amplitude(+1, grid)
    return np.mod(np.arctan2(carrier.imag, carrier.real) + turn / 2.0, math.pi)
