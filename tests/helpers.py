"""Shared hypothesis strategies and small oracles for the test suite."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from vortexmem import fields, pipeline
from vortexmem.hilbert import normalized
from vortexmem.text import _parsed, _results_text

_amp = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


def amplitude_pairs():
    return st.tuples(_amp, _amp).filter(
        lambda c: abs(c[0]) ** 2 + abs(c[1]) ** 2 > 1e-6
    )


def states():
    """Normalized amplitude pairs (c0, c1)."""
    return amplitude_pairs().map(lambda c: normalized(*c))


def bloch_vectors(max_len: float = 1.0):
    return (
        st.tuples(
            st.floats(-1, 1, allow_nan=False),
            st.floats(-1, 1, allow_nan=False),
            st.floats(-1, 1, allow_nan=False),
        )
        .filter(lambda s: math.sqrt(s[0] ** 2 + s[1] ** 2 + s[2] ** 2) <= max_len)
    )


def haar_states(rng: np.random.Generator, n: int) -> list[tuple[complex, complex]]:
    """``n`` Haar-random normalized amplitude pairs (c0, c1)."""
    out = []
    for _ in range(n):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        out.append(normalized(c[0], c[1]))
    return out


def fidelity(a, b) -> float:
    """|<a|b>|^2 of two amplitude pairs."""
    return abs(np.vdot(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))) ** 2


def project_polarization(m, analyzer) -> np.ndarray:
    """Intensity per pixel of a fields.VectorFieldMap behind a polarization
    analyzer, a normalized Jones vector in (H, V) components."""
    a = np.asarray(analyzer, dtype=complex)
    e = np.conj(a[0]) * m.e_h + np.conj(a[1]) * m.e_v
    return e.real ** 2 + e.imag ** 2


def stokes(m) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-pixel Stokes parameters (s0, s1, s2, s3) of a fields.VectorFieldMap,
    from real products of its H and V components: s0 is the intensity
    |e_h|^2 + |e_v|^2, and s3 = 2 Im(e_h conj(e_v))."""
    hr, hi, vr, vi = m.e_h.real, m.e_h.imag, m.e_v.real, m.e_v.imag
    h2, v2 = hr * hr + hi * hi, vr * vr + vi * vi
    return h2 + v2, h2 - v2, 2.0 * (hr * vr + hi * vi), 2.0 * (hi * vr - hr * vi)


def carrier_intensity(grid) -> np.ndarray:
    """|LG_{+1}|^2 on a fields.Grid: the intensity of every state field_maps renders."""
    carrier = fields.lg_amplitude(+1, grid)
    return carrier.real * carrier.real + carrier.imag * carrier.imag


def peak_radius(intensity: np.ndarray, grid) -> float:
    """Radius of the brightest pixel of an intensity on a fields.Grid."""
    xx, yy = grid.mesh()
    idx = np.unravel_index(int(np.argmax(intensity)), intensity.shape)
    return float(np.hypot(xx[idx], yy[idx]))


def jsonl_rows(table) -> list[dict]:
    """The results.jsonl lines of a pipeline.ResultTable, parsed: one dict per job."""
    return _parsed(_results_text(table)[1])


def run_one_job(state_name, cfg, t_us, theta, seed) -> dict:
    """The one row of the run of ``cfg`` cut to one state, storage time and
    angle at ``seed``: its results.jsonl line, parsed."""
    one = replace(cfg, input_states=(state_name,), storage_times=(t_us,),
                  rotation_angles=(theta,), seed=seed)
    return jsonl_rows(pipeline.run(one).table)[0]


def assert_same_text(got: dict, want: dict) -> None:
    """Equal file sets and bytes; a mismatch names the first differing line
    (a full diff of a 7 200-line file would take pytest minutes)."""
    assert sorted(got) == sorted(want)
    for name in want:
        if got[name] != want[name]:
            pairs = zip(got[name].splitlines(), want[name].splitlines())
            line = next(((g, w) for g, w in pairs if g != w), "line count differs")
            pytest.fail(f"{name}: first difference {line}")
