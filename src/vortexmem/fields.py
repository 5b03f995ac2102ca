"""Transverse-plane rendering of the stored modes at the beam waist.

Hybrid states are superpositions of two p = 0 Laguerre-Gaussian carriers
with opposite topological charge and opposite circular polarizations,
E(r, phi) = c0 * LG_{0,-1} * e_L + c1 * LG_{0,+1} * e_R, which produces the
radial / azimuthal / spiraling polarization textures.  Projecting such a
map on a linear analyzer collapses the doughnut into two Hermite-Gaussian
lobes.  The intensity of a unit-power state is |LG_{0,1}|^2 whatever
(c0, c1), and its degree of linear polarization is 2|c0||c1| on every pixel.
Only the waist plane is modelled; all observables of interest live
at conjugate planes, so propagation and Gouy phase add nothing testable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# circular unit vectors in (H, V) Jones components
E_R = np.array([1.0, -1.0j]) / math.sqrt(2.0)
E_L = np.array([1.0, +1.0j]) / math.sqrt(2.0)


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


@dataclass(frozen=True)
class VectorFieldMap:
    """Per-pixel Jones vector: the H and V component arrays."""

    e_h: np.ndarray
    e_v: np.ndarray


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


def vector_field_map(c, grid: Grid) -> VectorFieldMap:
    """Transverse Jones-vector map of the hybrid-sphere state with
    amplitudes c = (c0, c1) on (|L,-1>, |R,+1>)."""
    lg_m, lg_p = lg_amplitude(-1, grid), lg_amplitude(+1, grid)
    e_h = c[0] * lg_m * E_L[0] + c[1] * lg_p * E_R[0]
    e_v = c[0] * lg_m * E_L[1] + c[1] * lg_p * E_R[1]
    return VectorFieldMap(e_h, e_v)


def azimuth(m: VectorFieldMap) -> np.ndarray:
    """Per-pixel polarization-ellipse orientation in [0, pi), from real
    products and sums, so s1 = s2 = 0 and the orientation is 0 on the
    circular poles zero and one."""
    hr, hi, vr, vi = m.e_h.real, m.e_h.imag, m.e_v.real, m.e_v.imag
    s1 = hr * hr + hi * hi
    s1 -= vr * vr + vi * vi   # in place, as each fresh 512 kB array costs page faults
    angle = np.arctan2(2.0 * (hr * vr + hi * vi), s1, out=s1)
    angle *= 0.5
    return np.mod(angle, math.pi, out=angle)
