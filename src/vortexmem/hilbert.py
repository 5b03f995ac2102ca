"""State algebra for the two-dimensional hybrid polarization-OAM space.

The logical basis is fixed project-wide as (|0>, |1>) = (|L,-1>, |R,+1>):
left-circular light carrying one negative quantum of orbital angular
momentum, and right-circular light carrying one positive quantum.  The same
two amplitudes double as a plain polarization qubit in the (|R>, |L>)
basis.  Circular basis convention, fixed everywhere:
|R> = (|H> - i|V>)/sqrt2, |L> = (|H> + i|V>)/sqrt2.

A state is its pair of amplitudes (c0, c1); a named state's name fixes its
basis: hybrid for HYBRID_SPHERE_NAMES, polarization for POLARIZATION_NAMES.
All operations are pure functions.
Density matrices are plain complex arrays, stacked (N, 2, 2).
densities_from_bloch builds them from Bloch vectors no longer than
1 + ATOL_BALL, so they are physical by construction; fidelities relies on
that and checks nothing.
"""

from __future__ import annotations

import math

import numpy as np

ATOL_BALL = 1e-10

_SQRT2 = math.sqrt(2.0)


class RangeError(ValueError):
    """A parameter lies outside its allowed range."""


# Stokes-aligned Pauli triple.  tau2 carries the opposite sign of the
# textbook sigma_y: forced by the fixed circular-basis convention together
# with s2 being read off the D/A analyzer pair.
TAU1 = np.array([[0, 1], [1, 0]], dtype=complex)
TAU2 = np.array([[0, 1j], [-1j, 0]], dtype=complex)
TAU3 = np.array([[1, 0], [0, -1]], dtype=complex)

# (I + s . tau)/2 as one product on the float view (Re, Im) of [[a, b], [c, d]]:
# row k of _TAU_PARTS is tau_k.  Each element has at most one nonzero term,
# +-1 times a component, so the product is exact; adding _I_PARTS turns every
# zero into +0.0, and halving comes last, as in the complex sum, so that a
# subnormal component rounds the same.  The result has the bits of
# (I + s1 tau1 + s2 tau2 + s3 tau3)/2 in complex arithmetic.
_TAU_PARTS = np.stack([TAU1, TAU2, TAU3]).reshape(3, 4).view(float)
_I_PARTS = np.eye(2, dtype=complex).reshape(4).view(float)


def normalized(c0: complex, c1: complex) -> tuple[complex, complex]:
    """The amplitudes (c0, c1) divided by their norm, as Python complex
    numbers; at least one of them must be nonzero."""
    n = math.sqrt(abs(c0) ** 2 + abs(c1) ** 2)
    return complex(c0) / n, complex(c1) / n


def fidelities(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Conditional fidelities <v|rho|v> of a stack of density matrices
    (N, 2, 2) with state vectors (N, 2), or one vector (1, 2) for all of
    them, each clamped to [0, 1].  The matrices are expected physical, such
    as densities_from_bloch builds; nothing here checks them."""
    f = np.add.reduce(v.conj()[:, :, None] * m * v[:, None, :], axis=(1, 2)).real
    f = np.where(f > 0.0, f, 0.0)
    return np.where(f < 1.0, f, 1.0)


def densities_from_bloch(s: np.ndarray) -> np.ndarray:
    """Density matrices (I + s . tau)/2 for a stack of Bloch vectors (N, 3);
    raises RangeError if any is longer than 1 + ATOL_BALL or has a NaN
    component."""
    # np.linalg.norm's arithmetic, without its dispatch; products in float, as
    # there, so that no integer square wraps
    length = np.sqrt(np.add.reduce(np.multiply(s, s, dtype=float), axis=-1))
    if not (length <= 1.0 + ATOL_BALL).all():
        raise RangeError(f"Bloch vector length {length.max()} > 1")
    return ((s @ _TAU_PARTS + _I_PARTS) / 2.0).view(complex).reshape(-1, 2, 2)


# --- named state catalogue -------------------------------------------------
#
# Hybrid-sphere names follow the transverse polarization pattern each state
# produces; polarization names are the usual analyzer letters.  Polarization
# states are built from their H/V Jones components so that relative phases
# stay pinned to the circular-basis convention.

_HYBRID_NAMES = {
    "zero": (1, 0),
    "one": (0, 1),
    "radial": (1, 1),
    "azimuthal": (1, -1),
    "plus_i": (1, 1j),
    "minus_i": (1, -1j),
}

_POL_JONES = {
    "H": (1, 0),
    "V": (0, 1),
    "D": (1, 1),
    "A": (1, -1),
    "R": (1, -1j),
    "L": (1, 1j),
}

STATE_NAMES = tuple(_HYBRID_NAMES) + tuple(_POL_JONES)
HYBRID_SPHERE_NAMES = tuple(_HYBRID_NAMES)
POLARIZATION_NAMES = tuple(_POL_JONES)


def named_state(name: str) -> tuple[complex, complex]:
    """Normalized amplitudes (c0, c1) of a named state: on (|L,-1>, |R,+1>)
    for HYBRID_SPHERE_NAMES, on (|R>, |L>) for POLARIZATION_NAMES."""
    if name in _HYBRID_NAMES:
        return normalized(*_HYBRID_NAMES[name])
    if name in _POL_JONES:
        h, v = _POL_JONES[name]
        return normalized((h + 1j * v) / _SQRT2, (h - 1j * v) / _SQRT2)
    raise KeyError(f"unknown state name {name!r}; expected one of {STATE_NAMES}")
