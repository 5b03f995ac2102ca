"""Any count-record file loads or is refused: read_count_records returns
CountRecords or raises ConfigError, never another exception.

Files are raw bytes: the header or not, then rows whose cells are projector
letters, integers, floats, nan/inf, a 5 000-digit integer, NUL, 0xff, quotes,
CR or arbitrary short byte strings, with \\n, \\r\\n or \\r line endings.
"""

import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vortexmem import photodetection, text
from vortexmem.config import ConfigError

_HEADER = ",".join(text.COUNT_RECORD_COLUMNS).encode()
_CELLS = st.one_of(
    st.sampled_from(photodetection.PROJECTOR_ORDER + ("X", " H", "h", "")).map(str.encode),
    st.integers(min_value=-10**6, max_value=10**20).map(lambda v: str(v).encode()),
    st.floats().map(lambda v: repr(v).encode()),
    st.sampled_from([b"nan", b"inf", b"-inf", b"NaN", b"1e999", b"9" * 5000,
                     b"\x00", b"\xff", b'"', b'"5"', b"\r", b"5\r"]),
    st.binary(max_size=6),
)
# rows that load, so that the accepting path runs too
_VALID_ROWS = st.tuples(
    st.sampled_from(photodetection.PROJECTOR_ORDER),
    st.integers(min_value=1, max_value=10**6),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
).map(lambda r: b"%s,%d,%d,%r" % (r[0].encode(), int(r[1] * r[2]), r[1], r[1] * r[3]))
_ROWS = st.one_of(_VALID_ROWS, st.lists(_CELLS, max_size=6).map(b",".join))


@st.composite
def record_files(draw):
    rows = draw(st.lists(_ROWS, max_size=8))
    if draw(st.booleans()):
        rows = [_HEADER] + rows
    ending = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    return ending.join(rows) + draw(st.sampled_from([ending, b""]))


@settings(max_examples=200, deadline=timedelta(seconds=2),
          suppress_health_check=[HealthCheck.too_slow])
@given(data=record_files())
def test_reader_loads_or_raises_config_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.csv"
        path.write_bytes(data)
        try:
            records = text.read_count_records(path)
        except ConfigError:
            return
    assert all(isinstance(r, photodetection.CountRecord) for r in records)
