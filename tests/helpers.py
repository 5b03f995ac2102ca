"""Shared hypothesis strategies and small oracles for the test suite."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from vortexmem import pipeline
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
