"""The column writers of results.jsonl, results.csv, bounds.csv and the stdout
table against the per-row writers (json.dumps, csv.DictWriter, print), byte
for byte; and the package's rows, which are its results.jsonl lines parsed."""

import dataclasses
import itertools
import json
import math
import shutil
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import assert_same_text, run_one_job
from vortexmem import cli, config, pipeline, text

JOB_SCENARIOS = ("store_tomography", "fidelity_vs_time", "fidelity_vs_rotation")

CASES = {
    **{f"{s}-sampled": {"scenario": s} for s in JOB_SCENARIOS},
    **{f"{s}-exact": {"scenario": s, "trials_per_projection": 0} for s in JOB_SCENARIOS},
    "int_storage_time": {"scenario": "store_tomography", "storage_times": [1]},
    "mixed_storage_times": {"scenario": "fidelity_vs_time", "storage_times": [0, 1.5, 2, 10**20]},
    "no_background": {"scenario": "store_tomography", "memory": {"bg_click": 0.0}},
    "nothing_retrieved": {"scenario": "store_tomography", "storage_times": [200.0]},
    "leaky_rails": {"scenario": "fidelity_vs_time",
                    "memory": {"rail_imbalance": 0.05, "rail_phase_error": 0.05}},
    "negative_angles": {"scenario": "fidelity_vs_rotation", "rotation_angles": [-0.0, -0.5, 2.0]},
    "sweep_600_angles": {"scenario": "fidelity_vs_rotation", "seed": 2024,
                         "rotation_angles": [math.radians(i / 10) for i in range(600)]},
    "bounds_table": {"scenario": "bounds_table"},
    "bounds_int_values": {"scenario": "bounds_table", "source": {"nbar": 2},
                          "memory": {"eta0": 1}},
}


def _run_main(main, config, out):
    code = main(["--config", str(config), "--out", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    shutil.rmtree(out)
    return code, files


@pytest.mark.parametrize("payload", CASES.values(), ids=CASES.keys())
def test_main_matches_per_row_writers(tmp_path, monkeypatch, capsys, payload):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(payload))
    want_code, want = _run_main(oracles.main, "config.json", tmp_path / "out")
    want["stdout"] = capsys.readouterr().out.encode()
    got_code, got = _run_main(cli.main, "config.json", tmp_path / "out")
    got["stdout"] = capsys.readouterr().out.encode()
    assert got_code == want_code == 0
    assert_same_text(got, want)


ROW_CASES = {
    **{s: {"scenario": s, "seed": 12345} for s in JOB_SCENARIOS},
    "exact_int_times_nothing_retrieved": {"scenario": "fidelity_vs_time", "trials_per_projection": 0,
                                          "storage_times": [0, 1.0, 200, 7]},
    "no_background_signed_zero": {"scenario": "fidelity_vs_rotation", "memory": {"bg_click": 0.0},
                                  "rotation_angles": [-0.0, 0.5]},
}


@pytest.mark.parametrize("payload", ROW_CASES.values(), ids=ROW_CASES.keys())
def test_rows_are_the_parsed_results_jsonl_lines(tmp_path, capsys, payload):
    """table.rows() equals json.loads of each line cli.main writes, and the
    rows of the table as the per-row reference builds them: json text tells
    -0.0 from 0.0, int from float and None from a value."""
    (tmp_path / "config.json").write_text(json.dumps(payload))
    assert cli.main(["--config", str(tmp_path / "config.json"), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "results.jsonl").read_text().splitlines()
    cfg = cli.load_config(tmp_path / "config.json", None, None)
    report = pipeline.run(cfg)
    rows = report.table.rows()
    assert rows == [json.loads(line) for line in lines]
    want = [json.dumps(row, sort_keys=True) for row in oracles.table_rows(report.table)]
    assert [json.dumps(row, sort_keys=True) for row in rows] == lines == want
    # one stream per run: the first job is the one-job run at the run seed
    state, t_us, theta = next(itertools.product(*oracles.axes(cfg)))
    point = run_one_job(state, cfg, t_us, theta, cfg.seed)
    assert json.dumps(point, sort_keys=True) == lines[0]


def test_emit_formats_the_results_once(tmp_path, monkeypatch):
    """density_matrices.json is built from the results.jsonl lines emit has
    just formatted, not from a second formatting of the table."""
    report = pipeline.run(config.default_config("store_tomography"))
    calls = []
    results_text = text._results_text

    def counted(table):
        calls.append(table)
        return results_text(table)

    monkeypatch.setattr(text, "_results_text", counted)
    names = [p.name for p in text.emit(report, tmp_path)]
    assert names == ["results.csv", "results.jsonl", "density_matrices.json"]
    assert calls == [report.table]


def test_a_results_column_is_one_schema_entry(tmp_path, monkeypatch):
    """One more float entry in text._RESULT_COLUMNS, under a key that sorts
    first, adds that key to every results.jsonl line and leaves results.csv
    as it was; and every ResultTable field is a source or a mask of an
    entry, so no field can go unwritten unnoticed."""
    named = {name for field, _, mask in text._RESULT_COLUMNS.values() for name in (field, mask)}
    assert {f.name for f in dataclasses.fields(pipeline.ResultTable)} <= named
    cfg = replace(config.default_config("fidelity_vs_time"), storage_times=(0, 1.5, 200.0))
    report = pipeline.run(cfg)
    want = text.emit(report, tmp_path / "before")[0].read_bytes()
    monkeypatch.setitem(text._RESULT_COLUMNS, "aaa", ("survival", "float", None))
    csv_path, jsonl_path = text.emit(report, tmp_path / "after")
    assert csv_path.read_bytes() == want
    rows = oracles.table_rows(report.table)
    assert any(row["fidelity_corrected"] is None for row in rows)
    assert jsonl_path.read_text().splitlines() == [
        json.dumps({**row, "aaa": row["survival"]}, sort_keys=True) for row in rows]


def test_edge_values_match_per_row_writers(tmp_path):
    """-0.0, NaN and infinities in every float column the writers format;
    an SNR or survival of 0.0, -0.0 or NaN is that value, not null."""
    cfg = replace(config.default_config("store_tomography"), storage_times=(1.0,))
    report = pipeline.run(cfg)
    table = report.table
    odd = np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300])
    n = len(table.states)
    stokes = table.stokes.copy()
    stokes[:, 1] = -0.0
    stokes[:, 2] = odd[:n]
    rho_raw = table.rho_raw.copy()
    rho_raw.real[:, 0, 1] = odd[:n]
    rho_raw.imag[:, 0, 1] = odd[::-1][:n]
    report.table = replace(
        table, stokes=stokes, rho_raw=rho_raw, angle_deg=odd[:n], f_raw=odd[::-1][:n].copy(),
        snr=np.array([0.0, -0.0, math.nan, math.inf, 0.0, -0.0])[:n],
        survival=np.array([math.nan, 0.0, -0.0, 1.0, -0.0, 0.0])[:n],
        bound_efficiency=np.full_like(table.snr, math.nan))
    got = {p.name: p.read_bytes() for p in text.emit(report, tmp_path / "cli")}
    want = {p.name: p.read_bytes() for p in oracles.emit(report, tmp_path / "oracle")}
    got["stdout"] = text._summary(report.table).encode()
    want["stdout"] = oracles.summary(oracles.table_rows(report.table)).encode()
    assert_same_text(got, want)
    assert b"Infinity" in got["results.jsonl"] and b"nan" in got["results.csv"]



_SIGN_BIT = 2**63
_NEG_NAN = np.array([0xFFF8_0000_0000_0001], dtype=np.uint64).view(float)[0]


# raw bit patterns, plus the floats hypothesis favours (NaN, infinities,
# signed zeros, subnormals) as bit patterns
_FLOAT_BITS = st.one_of(st.integers(-2**63, 2**63 - 1),
                        st.floats().map(lambda f: np.float64(f).view(np.int64).item()))


@given(bits=st.lists(_FLOAT_BITS, min_size=1, max_size=40), flipped=st.integers(0, 40),
       columns=st.integers(1, 3))
@settings(max_examples=300)
def test_float_text_is_repr_of_every_bit_pattern(bits, flipped, columns):
    """Random float64 bit patterns, NaN payloads of either sign included; the
    first few recur with the sign flipped, so many magnitudes occur with
    both signs.  For columns > 1 the array is 2-D and not C-contiguous, and
    the texts keep its shape."""
    values = np.array(bits, dtype=np.int64).view(float)
    values = np.concatenate([values, -values[:flipped]])
    values = np.tile(values, (columns, 1)).T if columns > 1 else values
    texts = text._float_text(values)
    assert texts.shape == values.shape and texts.dtype == object
    assert texts.ravel().tolist() == [repr(v) for v in values.ravel().tolist()]


@pytest.mark.parametrize("values", [
    [_NEG_NAN],
    [_NEG_NAN, math.nan],
    [0.0, -0.0],
    [-0.0],
    [5e-324, -5e-324],
    [math.inf, -math.inf],
    [-math.inf],
    [1.5, -1.5, -2.5, 2.5e-300, -7.0, 7.0, -1e300, 1.5],
    [[1.5, -1.5, -0.0], [_NEG_NAN, 0.0, -math.inf]],
    [-1.5, -1.5, 1.5, -2.5, -2.5, _NEG_NAN, _NEG_NAN],
], ids=["neg_nan", "both_nans", "zeros", "neg_zero_only", "subnormal", "infinities",
        "neg_inf_only", "mixed", "mixed_2d", "repeated_negatives"])
def test_float_text_formats_each_magnitude_once(monkeypatch, values):
    """repr runs once per distinct magnitude (bit pattern with the sign bit
    cleared), whichever signs it occurs with; every text is still the repr,
    and equal texts of one magnitude are one string object."""
    values = np.array(values)
    calls = []

    def counted(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(text, "repr", counted, raising=False)
    texts = text._float_text(values)
    monkeypatch.undo()
    assert texts.shape == values.shape
    assert texts.ravel().tolist() == [repr(v) for v in values.ravel().tolist()]
    bits = values.view(np.uint64).ravel().tolist()
    assert len(calls) == len({b & ~_SIGN_BIT for b in bits})
    signed = {(b & ~_SIGN_BIT, b >= _SIGN_BIT and not math.isnan(v))
              for b, v in zip(bits, values.ravel().tolist())}
    assert len({id(t) for t in texts.ravel().tolist()}) == len(signed)


_PAYLOAD_NANS = np.array([0x7FF8_0000_0000_0000, 0x7FF0_0000_0000_0001, 0xFFF8_0000_0000_0002,
                          0x7FFF_FFFF_FFFF_FFFF], dtype=np.uint64).view(float)
_EDGE_VALUES = np.concatenate([
    [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.0, -1.0, 1.0, 0.0],
    _PAYLOAD_NANS, _PAYLOAD_NANS[::-1]])


@pytest.mark.parametrize("values", [
    np.empty(0),
    np.empty((0, 3)),
    np.array([-0.0]),
    _EDGE_VALUES,
    _EDGE_VALUES[::-1].reshape(4, -1),
    np.tile(_EDGE_VALUES, (3, 1)).T,   # not C-contiguous
], ids=["empty", "empty_2d", "one", "edge_1d", "edge_2d", "edge_transposed"])
def test_distinct_bits_matches_np_unique(values):
    """Signed zeros, NaNs of different payloads and signs, infinities and
    subnormals each keep their own bit pattern, as np.unique tells them."""
    bits, inverse = text._distinct_bits(values)
    want, want_inverse = np.unique(np.ascontiguousarray(values).view(np.int64).ravel(),
                                   return_inverse=True)
    assert bits.dtype == want.dtype and np.array_equal(bits, want)
    assert inverse.shape == values.shape and inverse.dtype == want_inverse.dtype
    assert np.array_equal(inverse.ravel(), want_inverse.ravel())


@given(bits=st.lists(_FLOAT_BITS, max_size=60), columns=st.integers(1, 3))
def test_distinct_bits_matches_np_unique_on_any_patterns(bits, columns):
    values = np.array(bits * columns, dtype=np.int64).view(float).reshape(columns, -1).T
    got, inverse = text._distinct_bits(values)
    want, want_inverse = np.unique(np.ascontiguousarray(values).view(np.int64).ravel(),
                                   return_inverse=True)
    assert np.array_equal(got, want)
    assert np.array_equal(inverse.ravel(), want_inverse.ravel())


def test_sign_folded_values_match_per_row_writers(tmp_path):
    """A negative NaN and values present with both signs in every float
    column the writers format."""
    report = pipeline.run(replace(config.default_config("store_tomography"), storage_times=(1.0,)))
    table = report.table
    n = len(table.states)
    signed = np.array([_NEG_NAN, math.nan, -1.5, 1.5, -0.0, 0.0])[:n]
    stokes = table.stokes.copy()
    stokes[:, 0] = signed
    stokes[:, 1] = -stokes[:, 2]
    rho_raw = table.rho_raw.copy()
    rho_raw.real[:, 1, 0] = -rho_raw.real[:, 0, 1]
    rho_raw.imag[:, 0, 0] = signed[::-1]
    report.table = replace(
        table, stokes=stokes, rho_raw=rho_raw, angle_deg=signed, f_raw=-signed,
        f_corr=np.where(np.arange(n) % 2 == 0, signed, table.f_corr),
        snr=np.full_like(table.snr, _NEG_NAN), bound_efficiency=-table.bound_efficiency)
    got = {p.name: p.read_bytes() for p in text.emit(report, tmp_path / "cli")}
    want = {p.name: p.read_bytes() for p in oracles.emit(report, tmp_path / "oracle")}
    got["stdout"] = text._summary(report.table).encode()
    want["stdout"] = oracles.summary(oracles.table_rows(report.table)).encode()
    assert_same_text(got, want)
    assert b"NaN" in got["results.jsonl"] and b"-1.5" in got["results.csv"]
