"""Any count-record file loads or is refused: read_count_records returns
CountRecords or raises ConfigError, never another exception, and it returns
the records, or raises the message, of the csv.DictReader loop it replaced
(oracles.read_count_records).

Files are raw bytes: a header or not, then rows whose cells are projector
letters, integers, floats, nan/inf, a 5 000-digit integer, NUL, 0xff, quotes,
CR or arbitrary short byte strings, or blank, with \\n, \\r\\n or \\r line
endings.  A header holds the four columns in any order, sometimes with an
extra column or one of the four named twice, which the reader refuses and
the oracle loads.
"""

import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from vortexmem import photodetection, text
from vortexmem.config import ConfigError

_COLUMNS = text.COUNT_RECORD_COLUMNS
_CELLS = st.one_of(
    st.sampled_from(photodetection.PROJECTOR_ORDER + ("X", " H", "h", "")).map(str.encode),
    st.integers(min_value=-10**6, max_value=10**20).map(lambda v: str(v).encode()),
    st.floats().map(lambda v: repr(v).encode()),
    st.sampled_from([b"nan", b"inf", b"-inf", b"NaN", b"1e999", b"9" * 5000,
                     b"\x00", b"\xff", b'"', b'"5"', b"\r", b"5\r"]),
    st.binary(max_size=6),
)
# the cells of a row that loads, by column, so that the accepting path runs too
_VALID_CELLS = st.tuples(
    st.sampled_from(photodetection.PROJECTOR_ORDER),
    st.integers(min_value=1, max_value=10**6),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
).map(lambda r: {"projector": r[0].encode(), "clicks": b"%d" % int(r[1] * r[2]),
                 "trials": b"%d" % r[1], "bg_expected": b"%r" % (r[1] * r[3]), "note": b"x"})
@st.composite
def _header(draw):
    """Column names: the four in order, or shuffled with up to two more
    names, each an extra column or one of the four again."""
    if draw(st.booleans()):
        return list(_COLUMNS)
    extra = draw(st.lists(st.sampled_from(_COLUMNS + ("note",)), max_size=2))
    return draw(st.permutations(list(_COLUMNS) + extra))


@st.composite
def record_files(draw):
    """(file bytes, its header's column names or None)."""
    header = draw(_header()) if draw(st.booleans()) else None
    names = header or list(_COLUMNS)
    valid = _VALID_CELLS.map(lambda cells: b",".join(cells[name] for name in names))
    cells = st.lists(_CELLS, max_size=6).map(b",".join)
    rows = draw(st.lists(st.one_of(valid, st.just(b""), cells), max_size=8))
    if header:
        rows = [",".join(header).encode()] + rows
    ending = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    return ending.join(rows) + draw(st.sampled_from([ending, b""])), header


def _outcome(reader, path):
    try:
        return reader(path)
    except ConfigError as exc:
        return str(exc)


_SETTINGS = settings(max_examples=200, deadline=timedelta(seconds=2),
                     suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(drawn=record_files())
def test_reader_loads_or_raises_config_error(drawn):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.csv"
        path.write_bytes(drawn[0])
        try:
            records = text.read_count_records(path)
        except ConfigError:
            return
    assert all(isinstance(r, photodetection.CountRecord) for r in records)


@_SETTINGS
@given(drawn=record_files())
def test_reader_matches_dict_reader_oracle(drawn):
    data, header = drawn
    repeated = [name for name in _COLUMNS if header and header.count(name) > 1]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.csv"
        path.write_bytes(data)
        got = _outcome(text.read_count_records, path)
        want = _outcome(oracles.read_count_records, path)
    if repeated:
        # refused, unless the file fails to decode or parse before its header is read
        assert got == f"{path}: count-record file names column {repeated[0]!r} twice" or (
            isinstance(got, str) and got == want)
    else:
        assert got == want
