"""File formats: field-map pixmaps, result text and offline count records.

_RESULT_COLUMNS is the one place the row format of results.jsonl and
results.csv is defined.  They are the text json.dumps(row, sort_keys=True)
gives and that of csv.writer: keys sorted, ", " and ": " separators,
floats as repr (json's NaN and Infinity, csv's nan and inf), None as null or
an empty cell.  State and scenario names come from fixed tables and hold no
character that JSON escapes or CSV quotes.

Every text is built column by column.  The floats of a file go into one
block, and _float_text gives the repr of each element with one repr per
distinct magnitude in the block.  Each column then becomes a list of cell
texts, and _fill interleaves a line template's literal pieces with those
lists, so no line is formatted on its own.  A column whose elements all
have one text (one bit pattern; in a list, one value of one type) puts one
element in the block and is that one text, which _fill merges into the
template's literal pieces.  emit writes the results files chunk by chunk as
_fill returns them.  The stdout table is filled the same way, its state and
number cells formatted once per distinct value and the numbers
right-justified to the widest of the run; a number column of one value is
one text there too.  The field-map CSVs of a run share one _float_text, and
a PGM's text depends on its 16-bit samples alone, which the pipeline keys
it on.
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


def _pgm_samples(intensity: np.ndarray) -> np.ndarray:
    """The 16-bit samples of an intensity's PGM: rint(scaled intensity * 65535)."""
    return np.rint(_scaled(intensity) * 65535).astype(int)


def render_pgm(intensity: np.ndarray) -> str:
    """ASCII PGM (P2) at maxval 65535, intensity scaled to the full gray range."""
    pixels = _pgm_samples(intensity)
    return _pixmap_text("P2", pixels.shape[1], pixels.shape[0], 65535, pixels)


# (r, g, b) of each hue sector as indices into the corners (v, q, p, t); 6 (h = 1) is 0
_HSV_SECTORS = np.array([[0, 3, 2], [1, 0, 2], [2, 0, 3], [2, 1, 0], [3, 2, 0], [0, 2, 1],
                         [0, 3, 2]], dtype=np.intp)


def _hsv_to_rgb(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """RGB (..., 3) of hue h in [0, 1] and value v at full saturation."""
    f = h * 6.0
    index = _HSV_SECTORS.take(np.floor(f).astype(np.intp), axis=0)
    f -= np.floor(f)
    corners = np.zeros(v.shape + (4,))   # p = v * (1 - s) = 0
    corners[..., 0] = v
    corners[..., 1] = v * (1.0 - f)
    corners[..., 3] = v * f
    index += np.arange(0, corners.size, 4).reshape(v.shape + (1,))   # into the flat corners
    return corners.take(index)


def render_ppm(hue: np.ndarray, intensity: np.ndarray) -> str:
    """ASCII PPM (P3) at maxval 255: hue encodes polarization azimuth, value the intensity."""
    if not np.isfinite(hue).all():
        raise ValueError("pixmap hue must be finite")
    # hue mod 1: the exact difference rounded once, +0.0 at integers and -0.0
    rgb = _hsv_to_rgb(hue - np.floor(hue), _scaled(intensity))
    pixels = np.rint(rgb * 255).astype(int)
    ny, nx = hue.shape
    return _pixmap_text("P3", nx, ny, 255, pixels.reshape(ny, 3 * nx))


def _distinct_bits(values) -> tuple[np.ndarray, np.ndarray]:
    """The distinct bit patterns of a float array as sorted int64, and the
    index of every element's pattern (in the array's shape; numpy 1.x
    returns it flat).  Patterns tell -0.0 from 0.0."""
    values = np.ascontiguousarray(values, dtype=float)
    bits, inverse = np.unique(values.view(np.int64).ravel(), return_inverse=True)
    return bits, inverse.reshape(values.shape)


def _float_text(values: np.ndarray) -> np.ndarray:
    """The repr of every element of a float array, in an object array of its
    shape.  repr runs once per distinct magnitude (bit pattern of |v|): on
    -|v| if every element of it has its sign bit set, else on |v|, which a
    signed element prefixes with "-"; a NaN, printed without a sign, counts
    as unsigned.  For a float, repr is also str, the text csv writes."""
    bits, slot = _distinct_bits(np.abs(values))
    magnitude = bits.view(float)
    # magnitude k's text in slot 2k, its negative's in 2k + 1, each made only if used: a
    # string per element, or one made only to be prefixed, cost rotation_sweep 2 MB of RSS
    slot *= 2
    slot += np.signbit(values) & ~np.isnan(values)
    used = np.zeros(2 * len(bits), dtype=bool)
    used[slot] = True
    positive, negative = used[0::2], used[1::2]
    text = np.empty(2 * len(bits), dtype=object)
    text[0::2][positive] = list(map(repr, magnitude[positive].tolist()))
    only = negative & ~positive
    text[1::2][only] = list(map(repr, (-magnitude[only]).tolist()))
    both = negative & positive
    text[1::2][both] = ["-" + t for t in text[0::2][both].tolist()]
    return text[slot]


def render_grid_csvs(grids: list[np.ndarray]) -> list[str]:
    """The CSV of each 2-D float grid, each cell the shortest round-trip repr.

    The distinct values of each grid go through one _float_text, so a
    magnitude in several grids is formatted once.  A float repr holds no
    delimiter or quote, so the rows need no CSV quoting."""
    bits, inverses = zip(*map(_distinct_bits, grids))
    text = _float_text(np.concatenate(bits).view(float))
    starts = np.cumsum([0, *map(len, bits)]).tolist()
    return ["".join(",".join(row) + "\n" for row in text[start + inverse].tolist())
            for start, inverse in zip(starts, inverses)]


# --- offline count records ---------------------------------------------------

def read_count_records(path: str | Path) -> list[photodetection.CountRecord]:
    """Load offline count records for tomography from a CSV file.

    Expected header: projector, clicks, trials, bg_expected.  Lets the
    reconstruction run on real experimental data via
    ``tomography.tomograph(read_count_records(path))``.  A row that is
    short or long, holds a field past csv.field_size_limit() or a
    non-integer count, or fails the CountRecord ranges, raises ConfigError
    naming the file and line; a file without those columns, with one of
    them named twice, or not UTF-8 text, raises ConfigError naming the
    file.  A leading byte-order mark (as spreadsheet programs write) is
    skipped, and so are blank rows.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        records = []
        try:
            header = next(reader, [])
            missing = set(COUNT_RECORD_COLUMNS) - set(header)
            if missing:
                raise ConfigError(f"{path}: count-record file lacks columns {sorted(missing)}")
            for name in COUNT_RECORD_COLUMNS:
                if header.count(name) > 1:
                    raise ConfigError(f"{path}: count-record file names column {name!r} twice")
            projector, clicks, trials, bg_expected = map(header.index, COUNT_RECORD_COLUMNS)
            width = len(header)
            for row in reader:
                if not row:
                    continue
                if len(row) > width:
                    raise ConfigError(f"{path}, line {reader.line_num}: more cells than the header")
                row += [None] * (width - len(row))   # a short row fails on None below
                try:
                    records.append(photodetection.CountRecord(
                        projector_id=row[projector].strip(),
                        clicks=int(row[clicks]),
                        trials=int(row[trials]),
                        bg_clicks_expected=float(row[bg_expected]),
                    ))
                except (AttributeError, TypeError, ValueError) as exc:
                    raise ConfigError(f"{path}, line {reader.line_num}: {exc}") from exc
        except csv.Error as exc:
            raise ConfigError(f"{path}, line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return records


# --- result text -------------------------------------------------------------

_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_VERDICTS = np.array(["no", "yes", "none"], dtype=object)   # false, true, no estimate

# The results row format: each results.jsonl key (results.csv: CSV_COLUMNS)
# maps to the ResultTable field it shows, its kind and the mask field whose
# false rows are null, as is every row of a None field.  Kinds: float,
# int_or_float (ints keep their text), bool, name, vector and (2x2) matrix.
_RESULT_COLUMNS = {
    "angle_deg": ("angle_deg", "float", None),
    "bound_efficiency": ("bound_efficiency", "float", None),
    "bound_poisson": ("bound_poisson", "float", None),
    "fidelity_corrected": ("f_corr", "float", "corrected"),
    "fidelity_raw": ("f_raw", "float", "reconstructed"),
    "job_seed": ("seed", "int_or_float", None),
    "pass_shor_preskill": ("secure", "bool", "reconstructed"),
    "rho_corrected": ("rho_corr", "matrix", "corrected"),
    "rho_raw": ("rho_raw", "matrix", "reconstructed"),
    "scenario": ("scenario", "name", None),
    "snr": ("snr", "float", None),
    "state": ("states", "name", None),
    "stokes_raw": ("stokes", "vector", "reconstructed"),
    "survival": ("survival", "float", None),
    "time_us": ("times", "int_or_float", None),
}
# JSON text of the number kinds, the k-th %s taking the k-th _block_columns
_NUMBER_JSON = {"float": "%s", "int_or_float": "%s", "vector": "[%s, %s, %s]",
                "matrix": '{"imag": [[%s, %s], [%s, %s]], "real": [[%s, %s], [%s, %s]]}'}
_SUMMARY_ROW = "%s  angle=%s deg  t=%s us  F_raw=%s  F_corr=%s  bound=%s  secure=%s\n"


_FILL_CHUNK = 1024   # lines per text chunk


def _fill(template: str, columns: list, rows: int) -> list[str]:
    """Lines of a template, one per row, the k-th %s of each line taking the
    row's cell of columns[k]: a list of str, one per row, or a str that is
    the same on every line.  The row count is given, so columns that are all
    str still make their lines.

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
    if any(len(column) != rows for column in lists):
        raise ValueError(f"columns differ in length from the {rows} rows")
    width = len(texts) + len(lists)
    chunks = []
    for start in range(0, rows, _FILL_CHUNK):
        n = min(_FILL_CHUNK, rows - start)
        cells = [""] * (n * width)
        for k, text in enumerate(texts):
            cells[2 * k::width] = [text] * n
        for k, column in enumerate(lists):
            cells[2 * k + 1::width] = column[start:start + n]
        chunks.append("".join(cells))
    return chunks


def _row_texts(column, rows: int) -> list[str]:
    """A _fill column as a new list of its rows' texts."""
    return [column] * rows if isinstance(column, str) else list(column)


def _one_valued(column, floats: np.ndarray) -> bool:
    """Whether every element of a number column has one text: one bit
    pattern, and in a list one type, and for ints one value."""
    bits = floats.view(np.int64)
    if not len(bits) or bits.min() != bits.max():
        return False
    if not isinstance(column, list):
        return True
    first = column[0]
    return (len(set(map(type, column))) == 1
            and (type(first) is not int or column.count(first) == len(column)))


def _formatted(fmt: str, values) -> list[str] | str:
    """fmt % v of every element of a 1-D float array, right-justified to the
    widest of them, each distinct value formatted once; one str if every
    element has one bit pattern."""
    bits, inverse = _distinct_bits(values)
    texts = [fmt % v for v in bits.view(float).tolist()]
    if len(texts) == 1:
        return texts[0]
    width = max(map(len, texts), default=0)
    return np.array([t.rjust(width) for t in texts], dtype=object)[inverse].tolist()


def _number_texts(columns: list) -> tuple[list, list]:
    """The CSV and the JSON texts of number columns: 1-D float arrays, or
    lists whose ints keep their integer text.  A column whose elements all
    have one text is that str, any other a list of row texts.  The floats
    go through one _float_text, a one-text column's first element only.
    The two texts differ only at NaN and the infinities, so a column
    without one has one list."""
    floats = [np.array([0.0 if type(v) is int else v for v in column], dtype=float)
              if isinstance(column, list) else column for column in columns]
    one = [_one_valued(column, f) for column, f in zip(columns, floats)]
    block = [f[:1] if single else f for f, single in zip(floats, one)]
    stops = np.cumsum([len(f) for f in block], dtype=np.intp)[:-1]
    parts = np.split(_float_text(np.concatenate(block)), stops)
    csv_texts, json_texts = [], []
    for column, f, single, part in zip(columns, floats, one, parts):
        texts = part.tolist()
        if isinstance(column, list):
            texts = [str(v) if type(v) is int else t for v, t in zip(column, texts)]
        in_json = texts if np.isfinite(f).all() else [_JSON_NON_FINITE.get(t, t) for t in texts]
        csv_texts.append(texts[0] if single else texts)
        json_texts.append(in_json[0] if single else in_json)
    return csv_texts, json_texts


def _block_columns(kind: str, value) -> list:
    """The 1-D columns of a number kind's value, one per %s of its JSON text."""
    if kind == "matrix":   # imaginary then real parts, row-major
        value = np.concatenate([value.imag, value.real], axis=1)
    return [value] if kind == "int_or_float" else list(np.reshape(value, (len(value), -1)).T)


def _csv_lines(header, columns: list, rows: int) -> list[str]:
    return [",".join(header) + "\n",
            *_fill(",".join(["%s"] * len(header)) + "\n", columns, rows)]


def _results_text(table) -> tuple[list[str], list[str]]:
    """The text chunks of results.csv and of results.jsonl of a
    pipeline.ResultTable, as _RESULT_COLUMNS defines them.  A key's cells are
    lists of row texts, or one text for a field that is a scalar or None:
    json.dumps of the scalar, and its str in CSV."""
    entries, rows = sorted(_RESULT_COLUMNS.items()), len(table.states)
    values = {key: getattr(table, field) for key, (field, _, _) in entries}
    per_row = {key for key, v in values.items() if isinstance(v, (list, np.ndarray))}
    csv_texts, json_texts = _number_texts([
        column for key, (_, kind, _) in entries if kind in _NUMBER_JSON and key in per_row
        for column in _block_columns(kind, values[key])])
    at, templates, json_cells, csv_cells = 0, [], [], {}
    for key, (_, kind, mask) in entries:
        value, template = values[key], _NUMBER_JSON.get(kind, "%s") if key in per_row else "%s"
        if key not in per_row:   # one text for every row
            csv, cells = ("", ["null"]) if value is None else (str(value), [json.dumps(value)])
        elif kind in _NUMBER_JSON:
            cells = json_texts[at:at + template.count("%s")]
            csv, at = csv_texts[at], at + len(cells)
        else:   # bool or name: each distinct value formatted once
            value = value.tolist() if kind == "bool" else value
            texts = {v: (str(v), json.dumps(v)) for v in set(value)}
            csv, cells = [texts[v][0] for v in value], [[texts[v][1] for v in value]]
        if mask is not None and key in per_row and not getattr(table, mask).all():
            if len(cells) > 1:   # one text per row (no cell holds a line break)
                cells, template = ["".join(_fill(template + "\n", cells, rows)).splitlines()], "%s"
            csv, cells = _row_texts(csv, rows), [_row_texts(cells[0], rows)]
            for j in np.flatnonzero(~getattr(table, mask)).tolist():
                csv[j], cells[0][j] = "", "null"
        templates.append(f'"{key}": {template}')
        json_cells += cells
        csv_cells[key] = csv
    jsonl_chunks = _fill("{" + ", ".join(templates) + "}\n", json_cells, rows)
    return _csv_lines(CSV_COLUMNS, [csv_cells[key] for key in CSV_COLUMNS], rows), jsonl_chunks


def _parsed(jsonl_chunks: list[str]) -> list[dict]:
    """The lines of results.jsonl text, parsed: one dict per job, with the
    file's flat keys and values."""
    return [json.loads(line) for chunk in jsonl_chunks for line in chunk.splitlines()]


def _bounds_text(rows: list[dict]) -> str:
    """The text of bounds.csv: a header of the rows' keys, one line per row."""
    header = list(rows[0])
    csv_texts, _ = _number_texts([[row[key] for row in rows] for key in header])
    return "".join(_csv_lines(header, csv_texts, len(rows)))


def _summary(table) -> str:
    """The stdout table of a pipeline.ResultTable: one line per job, with the
    number cells right-justified to the widest of the run."""
    names = {state: "%10s" % state for state in set(table.states)}
    return "".join(_fill(_SUMMARY_ROW, [
        [names[s] for s in table.states],
        _formatted("%6.1f", table.angle_deg),
        _formatted("%5.2f", np.array(table.times, dtype=float)),
        *(["%.4f" % f if ok else "  none" for f, ok in zip(f.tolist(), mask.tolist())]
          for f, mask in ((table.f_raw, table.reconstructed), (table.f_corr, table.corrected))),
        _formatted("%.4f", table.bound_efficiency),
        _VERDICTS[np.where(table.reconstructed, table.secure, 2)].tolist()], len(table.states)))


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
