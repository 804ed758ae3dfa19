"""The x,y CSV reader and writer against the row-by-row code they replaced.

``oracle_read_xy_csv`` and ``oracle_xy_csv_text`` below are the ``csvio``
functions of fractalmark 0.1.0, kept verbatim: the chunked writer must
produce their bytes, and the numpy-parsed reader must return their arrays
bit for bit or refuse with their message.
"""

import csv
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fractalmark import csvio
from fractalmark.csvio import read_xy_csv, write_xy_csv
from fractalmark.errors import InputError


def oracle_xy_csv_text(x: np.ndarray, y: np.ndarray) -> str:
    lines = ["x,y"]
    for xv, yv in zip(x, y):
        lines.append(f"{float(xv)!r},{float(yv)!r}")
    return "\n".join(lines) + "\n"


def oracle_read_xy_csv(source: str | Path | io.TextIOBase) -> tuple[np.ndarray, np.ndarray]:
    """Read ``x,y`` CSV; errors carry the 1-based row number (header is row 1)."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
    else:
        rows = list(csv.reader(source))
    if not rows:
        raise InputError("empty CSV: no header row")
    header = [name.strip() for name in rows[0]]
    if "x" not in header or "y" not in header:
        raise InputError("row 1: CSV must have columns 'x' and 'y'")
    xi, yi = header.index("x"), header.index("y")
    xs: list[float] = []
    ys: list[float] = []
    for row_no, row in enumerate(rows[1:], start=2):
        if not row or all(not f.strip() for f in row):
            continue
        try:
            xs.append(float(row[xi]))
            ys.append(float(row[yi]))
        except (ValueError, IndexError):
            raise InputError(f"row {row_no}: malformed x,y row {row!r}") from None
    if not xs:
        raise InputError("CSV contains a header but no data rows")
    return np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)


def bits(values: np.ndarray) -> list[int]:
    """Compare floats by bit pattern: tells -0.0 from 0.0 and NaN signs apart."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def outcome(read, source):
    try:
        x, y = read(source)
    except InputError as exc:
        return ("refused", str(exc))
    assert x.dtype == y.dtype == np.float64
    assert x.flags.c_contiguous and y.flags.c_contiguous
    return ("read", bits(x), bits(y))


def write_text(directory: str, text: str) -> Path:
    path = Path(directory) / "xy.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    return path


# --- generated CSV text ------------------------------------------------------

finite_or_not = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
good_token = st.one_of(
    finite_or_not.map(repr),
    finite_or_not.map("{:.6e}".format),
    finite_or_not.map("{:g}".format),
    st.sampled_from([
        "-0.0", "0", "+1", "1.", ".5", "1e-320", "5e-324", "1e400", "-1e400",
        "nan", "-nan", "NaN", "inf", "-Infinity", "iNF", " 2.5 ", "\t3\t",
        '"4.25"', '" -1 "', '"7"', "1_0", "١", "2 ",
    ]),
)
bad_token = st.sampled_from([
    "", " ", "abc", "0x10", "1e", "--1", "1,5", '"1,5"', '1"', '"1""2"', "1 2", "\x00", "1#2", "#",
])
token = st.one_of(good_token, good_token, good_token, bad_token)

HEADERS = {
    "x,y": ("x", "y"),
    "y,x": ("y", "x"),
    "x,y,z": ("x", "y", "z"),
    "z,y,x": ("z", "y", "x"),
    ' "x" , y ': ("x", "y"),
}


@st.composite
def csv_texts(draw) -> str:
    header = draw(st.sampled_from(sorted(HEADERS)))
    width = len(HEADERS[header])
    rows = [header]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(
            ["full", "full", "full", "full", "blank", "spaces", "commas", "short", "long"]
        ))
        if kind == "blank":
            rows.append("")
        elif kind == "spaces":
            rows.append(draw(st.sampled_from([" ", "\t", "  \t "])))
        elif kind == "commas":
            rows.append(",".join(" " * draw(st.integers(0, 2)) for _ in range(draw(st.integers(2, 4)))))
        elif kind == "short":
            rows.append(",".join(draw(st.lists(token, min_size=1, max_size=width - 1))))
        else:
            extra = 1 + draw(st.integers(0, 2)) if kind == "long" else 0
            rows.append(",".join(draw(token) for _ in range(width + extra)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(rows) + draw(st.sampled_from([newline, ""]))


@settings(max_examples=400, deadline=None)
@given(text=csv_texts(), from_path=st.booleans())
def test_reader_matches_oracle(text, from_path):
    if from_path:
        with tempfile.TemporaryDirectory() as directory:
            path = write_text(directory, text)
            assert outcome(read_xy_csv, path) == outcome(oracle_read_xy_csv, path)
    else:
        got = outcome(read_xy_csv, io.StringIO(text, newline=""))
        assert got == outcome(oracle_read_xy_csv, io.StringIO(text, newline=""))


# --- writer and round trip ---------------------------------------------------

float64_arrays = st.integers(0, 40).flatmap(
    lambda n: st.tuples(
        arrays(np.float64, n, elements=finite_or_not),
        arrays(np.float64, n, elements=finite_or_not),
    )
)
float32_arrays = st.integers(0, 40).flatmap(
    lambda n: st.tuples(
        arrays(np.float32, n, elements=st.floats(width=32)),
        arrays(np.float32, n, elements=st.floats(width=32)),
    )
)
int_arrays = st.integers(0, 40).flatmap(
    lambda n: st.tuples(
        arrays(np.int64, n, elements=st.integers(-(2**53), 2**53)),
        arrays(np.int64, n, elements=st.integers(-(2**53), 2**53)),
    )
)
chunk_rows = st.sampled_from([1, 3, 7, csvio.CHUNK_ROWS])


@settings(max_examples=200, deadline=None)
@given(xy=st.one_of(float64_arrays, float32_arrays, int_arrays), chunk=chunk_rows)
def test_writer_bytes_match_oracle(xy, chunk):
    x, y = xy
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "xy.csv"
        with mock.patch.object(csvio, "CHUNK_ROWS", chunk):
            write_xy_csv(path, x, y)
        assert path.read_bytes() == oracle_xy_csv_text(x, y).encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(xy=float64_arrays.filter(lambda xy: len(xy[0]) > 0), chunk=chunk_rows)
def test_write_read_round_trip_is_bit_exact(xy, chunk):
    x, y = xy
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "xy.csv"
        with mock.patch.object(csvio, "CHUNK_ROWS", chunk):
            write_xy_csv(path, x, y)
        gx, gy = read_xy_csv(path)
    # "nan" carries no sign or payload: every NaN reads back as np.nan.
    assert bits(gx) == bits(np.where(np.isnan(x), np.nan, x))
    assert bits(gy) == bits(np.where(np.isnan(y), np.nan, y))


def test_writer_refuses_unequal_lengths(tmp_path):
    path = tmp_path / "xy.csv"
    with pytest.raises(InputError, match=r"^x and y must have equal length, got 3 and 1$"):
        write_xy_csv(path, [1, 2, 3], [1])
    assert not path.exists()


def test_writer_accepts_lists_and_empty_input(tmp_path):
    path = tmp_path / "xy.csv"
    write_xy_csv(path, [1, 2.5], [3, -0.0])
    assert path.read_text() == "x,y\n1.0,3.0\n2.5,-0.0\n"
    write_xy_csv(path, np.array([]), np.array([]))
    assert path.read_text() == "x,y\n"


# --- reader contract ---------------------------------------------------------


def read_text(text: str):
    return read_xy_csv(io.StringIO(text, newline=""))


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty CSV: no header row"),
        ("a,y\n1,2\n", "row 1: CSV must have columns 'x' and 'y'"),
        ("x,b\n1,2\n", "row 1: CSV must have columns 'x' and 'y'"),
        ("x,y\n", "CSV contains a header but no data rows"),
        ("x,y\n\n  \n,\n", "CSV contains a header but no data rows"),
        ("x,y\n1,2\n3,abc\n", "row 3: malformed x,y row ['3', 'abc']"),
        ("x,y\n\n \n1\n", "row 4: malformed x,y row ['1']"),
        ("x,y\r\n1,2\r\n,5\r\n", "row 3: malformed x,y row ['', '5']"),
        ("y,x,z\n1,2,3\n4,5\n6\n", "row 4: malformed x,y row ['6']"),
        ("x,y\n1,2\n3,4#5\n", "row 3: malformed x,y row ['3', '4#5']"),
        ("x,y\n# note\n1,2\n", "row 2: malformed x,y row ['# note']"),
    ],
)
def test_refusal_messages(text, message):
    with pytest.raises(InputError) as info:
        read_text(text)
    assert str(info.value) == message


def test_refusal_from_a_path_carries_the_row(tmp_path):
    path = write_text(tmp_path, "x,y\n1,2\n2,3\n4,x\n")
    with pytest.raises(InputError, match=r"^row 4: malformed x,y row \['4', 'x'\]$"):
        read_xy_csv(path)


def test_text_handle_sources(tmp_path):
    text = 'x,y\r\n"1.5",2\r\n\r\n3,-0.0\r\n'
    want = ([1.5, 3.0], [2.0, -0.0])
    x, y = read_text(text)
    assert (bits(x), bits(y)) == tuple(map(bits, want))
    path = write_text(tmp_path, text)
    with open(path, "r", encoding="utf-8", newline="") as handle:
        x, y = read_xy_csv(handle)
    assert (bits(x), bits(y)) == tuple(map(bits, want))


def test_float_only_tokens_take_the_row_loop():
    """``float`` accepts these and numpy does not: the row loop reads them."""
    x, y = read_text("x,y\n1_0,١\n \n,\n2,3\n")
    np.testing.assert_array_equal(x, [10.0, 2.0])
    np.testing.assert_array_equal(y, [1.0, 3.0])


def test_plain_files_skip_the_row_loop(tmp_path):
    path = tmp_path / "xy.csv"
    write_xy_csv(path, np.linspace(0, 1, 1000), np.cos(np.arange(1000.0)))
    with open(path, "a", encoding="utf-8", newline="") as handle:
        handle.write(" \n\t\r\n")
    with mock.patch.object(csvio, "_read_rows", side_effect=AssertionError("row loop")):
        x, y = read_xy_csv(path)
        read_text('x,y,z\r\n"1",2,"a,b"\r\n\r\n3,4,5\r\n')
        bx, by = read_text("x,y\n \n1,2\n\t\n  \r\n3,4\n\u2028\n")
    assert len(x) == len(y) == 1000
    assert x.base is None and y.base is None
    assert (bx.tolist(), by.tolist()) == ([1.0, 3.0], [2.0, 4.0])
