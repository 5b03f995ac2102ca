"""Transverse-plane rendering of the stored modes at the beam waist.

Hybrid states are superpositions of two p = 0 Laguerre-Gaussian carriers
with opposite topological charge and opposite circular polarizations,
E(r, phi) = c0 * LG_{0,-1} * e_L + c1 * LG_{0,+1} * e_R, which produces the
radial / azimuthal / spiraling polarization textures.  Projecting such a
map on a linear analyzer collapses the doughnut into two Hermite-Gaussian
lobes.  Only the waist plane is modelled; all observables of interest live
at conjugate planes, so propagation and Gouy phase add nothing testable.

Every hybrid state is built from the same two carriers, so each carrier is
computed once per (charge, grid) and shared as a read-only array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import BasisTag, HybridState, RangeError

MAX_CHARGE = 50  # largest OAM order the ensemble aperture supports

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

    def intensity(self) -> np.ndarray:
        return np.abs(self.e_h) ** 2 + np.abs(self.e_v) ** 2


def lg_amplitude(l: int, grid: Grid) -> np.ndarray:
    """Laguerre-Gaussian LG_{0,l} amplitude at the waist plane, unit power.

    Amplitude ~ (r*sqrt2/w0)^|l| * exp(-r^2/w0^2) * exp(i*l*phi), r in waist
    units (w0 = 1); the ring of maximum intensity sits at r = w0*sqrt(|l|/2),
    so the mode size grows like the square root of the charge.  The returned
    array is shared between calls and read-only.
    """
    if abs(l) > MAX_CHARGE:
        raise RangeError(f"|l| = {abs(l)} exceeds supported {MAX_CHARGE}")
    return _lg_carrier(l, grid)


# bounded, since each entry holds a full complex grid
@functools.lru_cache(maxsize=8)
def _lg_carrier(l: int, grid: Grid) -> np.ndarray:
    xx, yy = grid.mesh()
    r = np.hypot(xx, yy)
    phi = np.arctan2(yy, xx)
    amp = (r * math.sqrt(2.0)) ** abs(l) * np.exp(-r ** 2)
    field = amp * np.exp(1j * l * phi)
    power = (np.abs(field) ** 2).sum() * grid.pixel_area()
    field = field / math.sqrt(power)
    field.setflags(write=False)
    return field


def vector_field_map(psi: HybridState, grid: Grid) -> VectorFieldMap:
    """Transverse Jones-vector map of a hybrid-sphere state."""
    if psi.basis_tag is not BasisTag.HYBRID_POINCARE:
        raise ValueError("vector_field_map expects a hybrid-basis state")
    lg_m = lg_amplitude(-1, grid)
    lg_p = lg_amplitude(+1, grid)
    e_h = psi.c0 * lg_m * E_L[0] + psi.c1 * lg_p * E_R[0]
    e_v = psi.c0 * lg_m * E_L[1] + psi.c1 * lg_p * E_R[1]
    return VectorFieldMap(e_h, e_v)


def project_polarization(m: VectorFieldMap, analyzer: np.ndarray) -> np.ndarray:
    """Intensity behind a polarization analyzer, per pixel.

    ``analyzer`` is a normalized Jones vector in (H, V) components.
    """
    a = np.asarray(analyzer, dtype=complex)
    norm = np.linalg.norm(a)
    if not math.isclose(norm, 1.0, abs_tol=1e-9):
        raise ValueError("analyzer Jones vector must be normalized")
    amp = np.conj(a[0]) * m.e_h + np.conj(a[1]) * m.e_v
    return np.abs(amp) ** 2


def polarization_azimuth(m: VectorFieldMap) -> np.ndarray:
    """Local polarization-ellipse orientation in [0, pi) per pixel."""
    s1 = np.abs(m.e_h) ** 2 - np.abs(m.e_v) ** 2
    s2 = 2.0 * np.real(m.e_h * np.conj(m.e_v))
    return np.mod(0.5 * np.arctan2(s2, s1), math.pi)


def peak_radius(intensity: np.ndarray, grid: Grid) -> float:
    """Radius of the brightest pixel."""
    xx, yy = grid.mesh()
    idx = np.unravel_index(int(np.argmax(intensity)), intensity.shape)
    return float(np.hypot(xx[idx], yy[idx]))
