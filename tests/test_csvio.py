"""The x,y CSV reader and writer against the row-by-row code they replaced.

``oracle_read_xy_csv`` and ``oracle_xy_csv_text`` below are the ``csvio``
functions of fractalmark 0.1.0, kept verbatim: the chunked writer must
produce their bytes, and the numpy-parsed reader must return their arrays
bit for bit or refuse with their message.
"""

import ast
import csv
import io
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fractalmark import csvio
from fractalmark.csvio import read_xy_csv, write_xy_csv
from fractalmark.errors import ComputationError, InputError


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
    "2\x1c", "\x1f1",
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
@given(text=csv_texts(), from_path=st.booleans(), chunk=st.sampled_from([1, 7, csvio.CHUNK_ROWS]))
def test_reader_matches_oracle(text, from_path, chunk):
    if from_path:
        with tempfile.TemporaryDirectory() as directory:
            path = write_text(directory, text)
            with mock.patch.object(csvio, "CHUNK_ROWS", chunk):
                got = outcome(read_xy_csv, path)
            assert got == outcome(oracle_read_xy_csv, path)
    else:
        with mock.patch.object(csvio, "CHUNK_ROWS", chunk):
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
# Any double, from its sign, biased exponent and fraction: every NaN sign and
# payload, subnormals, and the exponents at both ends.
double_bits = st.builds(
    lambda sign, exponent, fraction: sign << 63 | exponent << 52 | fraction,
    st.integers(0, 1),
    st.one_of(
        st.sampled_from([0, 1, 2, 0x3FE, 0x3FF, 0x400, 0x7FD, 0x7FE, 0x7FF]),
        st.integers(0, 0x7FF),
    ),
    st.one_of(
        st.sampled_from([0, 1, 2, 1 << 51, (1 << 52) - 1]),
        st.integers(0, (1 << 52) - 1),
    ),
)
bit_pattern_arrays = st.integers(0, 40).flatmap(
    lambda n: st.tuples(
        arrays(np.uint64, n, elements=double_bits).map(lambda a: a.view(np.float64)),
        arrays(np.uint64, n, elements=double_bits).map(lambda a: a.view(np.float64)),
    )
)
big_endian_arrays = st.one_of(float64_arrays, bit_pattern_arrays).map(
    lambda xy: (xy[0].astype(">f8"), xy[1].astype(">f8"))
)
strided_arrays = st.integers(0, 40).flatmap(
    lambda n: st.tuples(
        arrays(np.float64, 2 * n, elements=finite_or_not).map(lambda a: a[::2]),
        arrays(np.uint64, 3 * n, elements=double_bits).map(
            lambda a: a.view(np.float64)[1::3]
        ),
    )
)
chunk_rows = st.sampled_from([1, 3, 7, csvio.CHUNK_ROWS])
# Where repr switches between positional and exponent form, and the ends of
# the doubles.
REPR_BOUNDARIES = np.array([
    1e16, 9999999999999998.0, 0.0001, 9.999999999999999e-05, 5e-324,
    2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0.0),
    1.7976931348623157e308, 2.0**-1022, 2.0**1023, -0.0, float("-nan"),
])


@settings(max_examples=200, deadline=None)
@given(
    xy=st.one_of(
        float64_arrays, float32_arrays, int_arrays, bit_pattern_arrays, big_endian_arrays,
        strided_arrays,
    ),
    chunk=chunk_rows,
)
@example(xy=(REPR_BOUNDARIES, -REPR_BOUNDARIES), chunk=csvio.CHUNK_ROWS)
@example(xy=(REPR_BOUNDARIES[::-1], REPR_BOUNDARIES), chunk=3)
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


@pytest.mark.parametrize(
    "x, y", [(np.zeros((3, 2)), np.ones((3, 2))), (np.zeros((1, 3)), np.ones((1, 5))), (1.0, 2.0)]
)
def test_writer_refuses_arrays_that_are_not_1d(tmp_path, x, y):
    path = tmp_path / "xy.csv"
    with pytest.raises(InputError, match=r"^x and y must be 1-D, got shapes"):
        write_xy_csv(path, x, y)
    assert not path.exists()


class Pieces(list):
    """A stream of ``(x, y)`` pieces that declares ``rows`` rows."""

    def __init__(self, pieces, rows):
        super().__init__(pieces)
        self.rows = rows

    def __len__(self):
        return self.rows


PIECES = [(np.arange(3.0), -np.arange(3.0)), (np.full((2, 2), 0.1), np.eye(2)), (np.array([]),) * 2]


@pytest.mark.parametrize("chunk", [1, 2, 4, csvio.CHUNK_ROWS])
def test_writer_writes_a_stream_as_its_rows_in_c_order(tmp_path, chunk):
    with mock.patch.object(csvio, "CHUNK_ROWS", chunk):
        write_xy_csv(tmp_path / "xy.csv", Pieces(PIECES, 7))
    x = np.concatenate([x.ravel() for x, _ in PIECES])
    y = np.concatenate([y.ravel() for _, y in PIECES])
    assert (tmp_path / "xy.csv").read_text() == oracle_xy_csv_text(x, y)


@pytest.mark.parametrize(
    "pieces, rows, message",
    [
        (PIECES, 6, "the stream yielded over the 6 rows it declares"),
        (PIECES, 8, "the stream yielded 7 rows, not the 8 it declares"),
        ([(np.zeros(2), np.zeros(3))], 2,
         "a stream piece holds x of shape (2,) and y of shape (3,)"),
    ],
    ids=["too many rows", "too few rows", "unequal piece"],
)
def test_writer_refuses_a_stream_off_its_length_and_removes_the_file(
    tmp_path, pieces, rows, message
):
    path = tmp_path / "xy.csv"
    path.write_text("x,y\n")
    with mock.patch.object(csvio, "CHUNK_ROWS", 2), pytest.raises(ComputationError) as refused:
        write_xy_csv(path, Pieces(pieces, rows))
    assert str(refused.value) == message
    assert not path.exists()


def test_writer_holds_one_chunk_not_the_sample(tmp_path):
    """A 1,000,001-row write allocates at most about 1 MB above its inputs."""
    x = np.linspace(0.0, 1.0, 1_000_001)
    y = np.sin(x * 1e3) * 1e-3
    write_xy_csv(tmp_path / "warm.csv", x[:3], y[:3])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_xy_csv(tmp_path / "xy.csv", x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "xy.csv").stat().st_size > 30 * len(x)
    assert peak - before <= 1 << 20


def test_reader_holds_the_columns_and_one_chunk(tmp_path):
    """A 1,000,001-row read allocates its two columns and at most 4 MiB more."""
    x = np.linspace(0.0, 1.0, 1_000_001)
    write_xy_csv(tmp_path / "xy.csv", x, np.sin(x * 1e3) * 1e-3)
    read_xy_csv(io.StringIO("x,y\n1,2\n"))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        x, y = read_xy_csv(tmp_path / "xy.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(x) == len(y) == 1_000_001
    assert peak - before <= 16 * len(x) + (4 << 20)


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
        pytest.param(
            "x,y\n1,2\n3," + "a" * 200_000 + "\n", "row 3: field larger than field limit (131072)",
            id="long-body-field",
        ),
        pytest.param(
            "x,y," + "z" * 200_000 + "\n1,2\n", "row 1: field larger than field limit (131072)",
            id="long-header-field",
        ),
    ],
)
def test_refusal_messages(text, message):
    with pytest.raises(InputError) as info:
        read_text(text)
    assert str(info.value) == message


def test_row_loop_streams_its_records(tmp_path):
    """A file the numpy tier declines holds no list of its records: at most
    120 bytes a row at the peak, the row loop's floats included."""
    x = np.linspace(0.0, 1.0, 100_000)
    write_xy_csv(tmp_path / "xy.csv", x, x)
    with open(tmp_path / "xy.csv", "a", encoding="utf-8") as handle:
        handle.write("1_0,2\n")
    read_xy_csv(io.StringIO("x,y\n1_0,2\n"))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        x, y = read_xy_csv(tmp_path / "xy.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(x) == len(y) == 100_001 and x[-1] == 10.0
    assert peak - before <= 120 * len(x)


def test_only_csvio_imports_csv():
    """Every reader takes its records from ``csvio.read_records``."""
    package = Path(csvio.__file__).parent
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "csv" in modules:
                importers.add(path.name)
    assert importers == {"csvio.py"}


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
