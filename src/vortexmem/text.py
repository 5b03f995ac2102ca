"""File formats: field-map pixmaps, result text and offline count records.

results.jsonl is the text json.dumps(row, sort_keys=True) gives and
results.csv the text of csv.writer: keys sorted, ", " and ": " separators,
floats as repr (json's NaN and Infinity, csv's nan and inf), None as null or
an empty cell.  State and scenario names come from fixed tables and hold no
character that JSON escapes or CSV quotes.

Every text is built column by column.  The floats of a file go into one
block; repr runs once per distinct magnitude in it, and a negative value
whose magnitude also occurs is "-" and that text (the sign folding of
_float_text).  Each column then becomes a list of cell texts, and _fill
interleaves a line template's literal pieces with those lists, so no
line is formatted on its own.  emit writes the results files chunk by
chunk as _fill returns them.  The stdout table is filled the same way,
its state, angle and time cells formatted once per distinct value.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from . import photodetection
from .config import ConfigError

CSV_COLUMNS = (
    "scenario",
    "state",
    "angle_deg",
    "time_us",
    "fidelity_raw",
    "fidelity_corrected",
    "bound_poisson",
    "bound_efficiency",
    "pass_shor_preskill",
)
COUNT_RECORD_COLUMNS = ("projector", "clicks", "trials", "bg_expected")


# --- field maps --------------------------------------------------------------

def _scaled(intensity: np.ndarray) -> np.ndarray:
    """Intensity divided by its peak: each pixel in [0, 1].

    A pixmap cannot show a negative or non-finite intensity, so those raise
    ValueError; this also bounds the samples of a scaled image to [0, maxval].
    """
    if not np.isfinite(intensity).all() or (intensity < 0.0).any():
        raise ValueError("pixmap intensity must be finite and non-negative")
    peak = float(intensity.max())
    return np.zeros_like(intensity) if peak == 0.0 else intensity / peak


def _pixmap_text(magic: str, width: int, height: int, maxval: int,
                 samples: np.ndarray) -> str:
    """ASCII netpbm file from integer samples in [0, maxval], one text row
    per array row; each level that occurs is formatted once."""
    levels = np.flatnonzero(np.bincount(samples.ravel(), minlength=maxval + 1))
    table = np.empty(maxval + 1, dtype=object)
    table[levels] = [str(v) for v in levels.tolist()]
    rows = "".join(" ".join(row) + "\n" for row in table[samples].tolist())
    return f"{magic}\n{width} {height}\n{maxval}\n" + rows


def render_pgm(intensity: np.ndarray) -> str:
    """ASCII PGM (P2) at maxval 65535, intensity scaled to the full gray range."""
    pixels = np.rint(_scaled(intensity) * 65535).astype(int)
    return _pixmap_text("P2", pixels.shape[1], pixels.shape[0], 65535, pixels)


# (r, g, b) of each hue sector as indices into the corners (v, q, p, t)
_HSV_SECTORS = np.array([[0, 3, 2], [1, 0, 2], [2, 0, 3], [2, 1, 0], [3, 2, 0], [0, 2, 1]],
                        dtype=np.int8)


def _hsv_to_rgb(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """RGB (..., 3) of hue h in [0, 1) and value v at full saturation."""
    h6 = h * 6.0
    sector = np.floor(h6)
    f = h6 - sector
    corners = np.zeros(v.shape + (4,))   # p = v * (1 - s) = 0
    corners[..., 0] = v
    corners[..., 1] = v * (1.0 - f)
    corners[..., 3] = v * f
    return np.take_along_axis(corners, _HSV_SECTORS[sector.astype(int) % 6], axis=-1)


def render_ppm(hue: np.ndarray, intensity: np.ndarray) -> str:
    """ASCII PPM (P3) at maxval 255: hue encodes polarization azimuth, value the intensity."""
    if not np.isfinite(hue).all():
        raise ValueError("pixmap hue must be finite")
    rgb = _hsv_to_rgb(np.mod(hue, 1.0), _scaled(intensity))
    pixels = np.rint(rgb * 255).astype(int)
    ny, nx = hue.shape
    return _pixmap_text("P3", nx, ny, 255, pixels.reshape(ny, 3 * nx))


_MAGNITUDE_BITS = np.int64(2**63 - 1)   # every bit of a float64 but its sign


def _distinct_bits(values) -> tuple[np.ndarray, np.ndarray]:
    """The distinct bit patterns of a float array as sorted int64, and the
    index of every element's pattern (in the array's shape).  Patterns tell
    -0.0 from 0.0."""
    values = np.ascontiguousarray(values, dtype=float)
    bits, inverse = np.unique(values.view(np.int64).ravel(), return_inverse=True)
    return bits, inverse.reshape(values.shape)


def _float_text(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values of a float array, the repr of each, and the index
    of every element's value (in the array's shape).

    Values are told apart by their bit pattern, so -0.0 and 0.0 keep their
    own text, and repr runs once per distinct magnitude: a negative value
    whose magnitude also occurs takes "-" and that magnitude's text, or the
    text alone for a NaN, which repr prints without a sign.  For a float,
    repr is also str, the text csv writes.
    """
    bits, inverse = _distinct_bits(values)
    distinct = bits.view(float)
    # sign bit set: the first `neg` patterns, as int64 sorts them
    neg = int(np.searchsorted(bits, 0))
    text = np.empty(len(bits), dtype=object)
    text[neg:] = list(map(repr, distinct[neg:].tolist()))
    if neg:
        magnitude = bits[:neg] & _MAGNITUDE_BITS
        at = np.minimum(np.searchsorted(bits, magnitude), len(bits) - 1)
        shared = bits[at] == magnitude
        signed = shared & ~np.isnan(distinct[:neg])
        folded = text[at]
        folded[signed] = ["-" + t for t in folded[signed].tolist()]
        folded[~shared] = list(map(repr, distinct[:neg][~shared].tolist()))
        text[:neg] = folded
    return distinct, text, inverse


def render_grid_csv(values: np.ndarray) -> str:
    """CSV of a 2-D float grid, each cell the shortest round-trip repr.

    A float repr holds no delimiter or quote, so the rows need no CSV quoting.
    """
    _, text, inverse = _float_text(values)
    return "".join(",".join(row) + "\n" for row in text[inverse].tolist())


# --- offline count records ---------------------------------------------------

def read_count_records(path: str | Path) -> list[photodetection.CountRecord]:
    """Load offline count records for tomography from a CSV file.

    Expected header: projector, clicks, trials, bg_expected.  Lets the
    reconstruction run on real experimental data via
    ``tomography.tomograph(read_count_records(path))``.  A row that is
    short or long, holds a field past csv.field_size_limit() or a
    non-integer count, or fails the CountRecord ranges, raises ConfigError
    naming the file and line; a file without those columns, or not UTF-8
    text, raises ConfigError naming the file.  A leading byte-order mark
    (as spreadsheet programs write) is skipped.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        records = []
        try:
            missing = set(COUNT_RECORD_COLUMNS) - set(reader.fieldnames or ())
            if missing:
                raise ConfigError(f"{path}: count-record file lacks columns {sorted(missing)}")
            for line in reader:
                if None in line:   # DictReader keeps the cells past the header under None
                    raise ConfigError(f"{path}, line {reader.line_num}: more cells than the header")
                try:
                    records.append(photodetection.CountRecord(
                        projector_id=line["projector"].strip(),
                        clicks=int(line["clicks"]),
                        trials=int(line["trials"]),
                        bg_clicks_expected=float(line["bg_expected"]),
                    ))
                except (AttributeError, TypeError, ValueError) as exc:
                    # a short row leaves None in the missing columns
                    raise ConfigError(f"{path}, line {reader.line_num}: {exc}") from exc
        except csv.Error as exc:
            # DictReader.line_num moves only once a whole row is read
            raise ConfigError(f"{path}, line {reader.reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return records


# --- result text -------------------------------------------------------------

_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_BOOL = np.array(["false", "true"], dtype=object)
_CSV_BOOL = np.array(["False", "True"], dtype=object)
_YES_NO = np.array(["no", "yes"], dtype=object)

# line templates: _fill puts the cells of the k-th column at the k-th %s
_JSON_RHO = '{"imag": [[%s, %s], [%s, %s]], "real": [[%s, %s], [%s, %s]]}'
_JSON_ROW = (
    '{"angle_deg": %s, "bound_efficiency": %s, "bound_poisson": %s, '
    '"fidelity_corrected": %s, "fidelity_raw": %s, "job_seed": %s, '
    '"pass_shor_preskill": %s, "rho_corrected": %s, "rho_raw": ' + _JSON_RHO + ', '
    '"scenario": %s, "snr": %s, "state": %s, "stokes_raw": [%s, %s, %s], '
    '"survival": %s, "time_us": %s}\n'
)
_SUMMARY_ROW = "%s  angle=%s deg  t=%s us  F_raw=%s  F_corr=%s  bound=%s  secure=%s\n"


_FILL_CHUNK = 1024   # lines per text chunk


def _fill(template: str, columns: list) -> list[str]:
    """Lines of a template, one per row, the k-th %s of each line taking the
    row's cell of columns[k]: a list of str, one per row, or a str that is
    the same on every line.

    The lines come as text chunks of up to _FILL_CHUNK lines, which emit
    writes one after another: a results file never exists as one string.
    Each chunk interleaves the literal pieces with the column cells in one
    list of its final length, by slice assignment, and joins it once.
    """
    pieces = template.split("%s")
    if len(pieces) != len(columns) + 1:
        raise ValueError(f"template has {len(pieces) - 1} fields, got {len(columns)} columns")
    # a constant column joins the literal text around it
    texts, lists = [pieces[0]], []
    for column, piece in zip(columns, pieces[1:]):
        if isinstance(column, str):
            texts[-1] += column + piece
        else:
            lists.append(column)
            texts.append(piece)
    n = len(lists[0])
    if any(len(column) != n for column in lists):
        raise ValueError("columns differ in length")
    width = len(texts) + len(lists)
    chunks = []
    for start in range(0, n, _FILL_CHUNK):
        rows = min(_FILL_CHUNK, n - start)
        cells = [""] * (rows * width)
        for k, text in enumerate(texts):
            cells[2 * k::width] = [text] * rows
        for k, column in enumerate(lists):
            cells[2 * k + 1::width] = column[start:start + rows]
        chunks.append("".join(cells))
    return chunks


def _formatted(fmt: str, values) -> list[str]:
    """fmt % v of every element of a 1-D float array, each distinct value
    formatted once."""
    bits, inverse = _distinct_bits(values)
    return np.array([fmt % v for v in bits.view(float).tolist()], dtype=object)[inverse].tolist()


def _float_cells(block: np.ndarray) -> list[list[str]]:
    """The repr (CSV) text of a 2-D float block, as one list per column."""
    _, text, inverse = _float_text(block)
    return text[inverse.T].tolist()


def _json_cells(block: np.ndarray, cells: list[list[str]]) -> list[list[str]]:
    """The JSON text of the block whose CSV text is ``cells``: the two differ
    only at NaN and infinities, so a column without one shares its list."""
    json_cells = list(cells)
    for k in np.flatnonzero(~np.isfinite(block).all(axis=0)).tolist():
        json_cells[k] = [_JSON_NON_FINITE.get(t, t) for t in cells[k]]
    return json_cells


def _keep_ints(cells: list[str], values: list) -> None:
    """Give each integer value its integer text, as json and csv write it."""
    for j, value in enumerate(values):
        if type(value) is int:
            cells[j] = str(value)


def _csv_lines(header, columns: list) -> list[str]:
    return [",".join(header) + "\n", *_fill(",".join(["%s"] * len(header)) + "\n", columns)]


def _results_text(table) -> tuple[list[str], list[str]]:
    """The text chunks of results.csv and of results.jsonl of a
    pipeline.ResultTable.

    Every float column goes into one block formatted by _float_text; the
    lines are filled column by column from its cell texts.
    """
    n = len(table.states)
    level = table.level
    block = np.column_stack([
        table.angle_deg,                                          # 0
        table.bound_efficiency[level],                            # 1
        table.bound_poisson[level],                               # 2
        table.f_corr,                                             # 3
        table.f_raw,                                              # 4
        table.rho_corr.imag.reshape(n, 4),                        # 5-8
        table.rho_corr.real.reshape(n, 4),                        # 9-12
        table.rho_raw.imag.reshape(n, 4),                         # 13-16
        table.rho_raw.real.reshape(n, 4),                         # 17-20
        np.zeros(n) if table.snr is None else table.snr[level],   # 21
        table.stokes,                                             # 22-24
        table.survival,                                           # 25
        np.array([0.0 if type(t) is int else t for t in table.times]),  # 26
    ])
    csv_cols = _float_cells(block)
    _keep_ints(csv_cols[26], table.times)
    json_cols = _json_cells(block, csv_cols)
    # one text per row (no float text holds a line break), so that rows
    # without a corrected estimate can take null instead; their f_corr cell
    # differs between the files, so the files must not share its list
    rho_corr = "".join(_fill(_JSON_RHO + "\n", json_cols[5:13])).splitlines()
    csv_cols[3] = csv_cols[3].copy()
    for j in np.flatnonzero(~table.corrected).tolist():
        csv_cols[3][j], json_cols[3][j], rho_corr[j] = "", "null", "null"
    if table.snr is None:
        json_cols[21] = ["null"] * n
    secure = table.secure.astype(int)
    names = {state: json.dumps(state) for state in set(table.states)}

    csv_chunks = _csv_lines(CSV_COLUMNS, [
        table.scenario, table.states, csv_cols[0], csv_cols[26], csv_cols[4],
        csv_cols[3], csv_cols[2], csv_cols[1], _CSV_BOOL[secure].tolist()])
    c = json_cols
    jsonl_chunks = _fill(_JSON_ROW, [
        c[0], c[1], c[2], c[3], c[4], str(table.seed), _JSON_BOOL[secure].tolist(),
        rho_corr, *c[13:21], json.dumps(table.scenario), c[21],
        [names[s] for s in table.states], *c[22:27]])
    return csv_chunks, jsonl_chunks


def _parsed(jsonl_chunks: list[str]) -> list[dict]:
    """The lines of results.jsonl text, parsed: one dict per job, with the
    file's flat keys and values."""
    return [json.loads(line) for chunk in jsonl_chunks for line in chunk.splitlines()]


def _bounds_text(rows: list[dict]) -> str:
    """The text of bounds.csv: a header of the rows' keys, one line per row."""
    header = list(rows[0])
    values = [[row[key] for row in rows] for key in header]
    block = np.array([[0.0 if type(v) is int else v for v in col] for col in values]).T
    cells = _float_cells(block)
    for col, vals in zip(cells, values):
        _keep_ints(col, vals)
    return "".join(_csv_lines(header, cells))


def _summary(table) -> str:
    """The stdout table of a pipeline.ResultTable: one line per job."""
    names = {state: "%10s" % state for state in set(table.states)}
    f_corr = ["%.4f" % f if ok else "  none"
              for f, ok in zip(table.f_corr.tolist(), table.corrected.tolist())]
    bound = np.array(["%.4f" % b for b in table.bound_efficiency.tolist()], dtype=object)
    return "".join(_fill(_SUMMARY_ROW, [
        [names[s] for s in table.states],
        _formatted("%6.1f", table.angle_deg),
        _formatted("%5.2f", np.array(table.times, dtype=float)),
        list(map("%.4f".__mod__, table.f_raw.tolist())),
        f_corr,
        bound[table.level].tolist(),
        _YES_NO[table.secure.astype(int)].tolist()]))


def emit(report, out_dir: str | Path) -> list[Path]:
    """Write a pipeline.Report: the results files of its table, then its
    texts; returns the written paths (deterministic content).
    density_matrices.json (store_tomography) is built from the results.jsonl
    lines written just before it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def _write(name: str, chunks: list[str]):
        path = out / name
        with path.open("w") as handle:
            handle.writelines(chunks)
        written.append(path)

    table = report.table
    if table is not None:
        csv_chunks, jsonl_chunks = _results_text(table)
        _write("results.csv", csv_chunks)
        _write("results.jsonl", jsonl_chunks)
        if table.scenario == "store_tomography":
            keys = ("rho_raw", "rho_corrected", "fidelity_raw", "fidelity_corrected")
            density = {row["state"]: {k: row[k] for k in keys} for row in _parsed(jsonl_chunks)}
            _write("density_matrices.json", [json.dumps(density, sort_keys=True, indent=2) + "\n"])
    for name, text in report.texts:
        _write(name, [text])
    return written
