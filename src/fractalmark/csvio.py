"""Two-column ``x,y`` CSV readers/writers shared by the sample and cloud tools.

Neither direction holds a Python object for every row of a file. The writer
formats fixed chunks of rows with ``float.__repr__``; the reader hands the
body, less its whitespace-only lines, to ``np.loadtxt`` once, and reruns the
row-by-row ``csv`` loop only when numpy refuses it. That loop alone decides
refusals and their row numbers.
"""

from __future__ import annotations

import csv
import io
import warnings
from functools import partial
from itertools import filterfalse
from pathlib import Path

import numpy as np

from .errors import InputError

# A chunk's floats and strings take about 170 B a row of transient heap; the
# write speed is flat from 2^10 to 2^16 rows, so keep the chunk small.
CHUNK_ROWS = 1 << 12
_ROW = "{!r},{!r}\n".format


def write_xy_csv(path: str | Path, x: np.ndarray, y: np.ndarray) -> None:
    """Write an ``x,y`` header and one ``repr(x),repr(y)`` line per point.

    Refuses (writing nothing) an ``x`` or ``y`` that is not 1-D, and an ``x``
    and ``y`` of different lengths.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1:
        raise InputError(f"x and y must be 1-D, got shapes {x.shape} and {y.shape}")
    if len(x) != len(y):
        raise InputError(f"x and y must have equal length, got {len(x)} and {len(y)}")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("x,y\n")
        for start in range(0, len(x), CHUNK_ROWS):
            stop = start + CHUNK_ROWS
            handle.write("".join(map(_ROW, x[start:stop].tolist(), y[start:stop].tolist())))


def read_xy_csv(source: str | Path | io.TextIOBase) -> tuple[np.ndarray, np.ndarray]:
    """Read ``x,y`` CSV; errors carry the 1-based row number (header is row 1).

    Fields are whatever Python's ``float`` accepts; quoted fields are
    unquoted, blank rows are skipped and extra columns are ignored.
    """
    if isinstance(source, (str, Path)):
        reopen = partial(open, source, "r", encoding="utf-8", newline="")
    else:
        reopen = partial(io.StringIO, source.read(), newline="")
    with reopen() as handle:
        columns = _load_columns(handle)
    if columns is not None:
        return columns
    with reopen() as handle:
        return _read_rows(handle)


def _load_columns(handle) -> tuple[np.ndarray, np.ndarray] | None:
    """The two columns parsed by numpy, or None where it refuses the input.

    Whitespace-only lines are dropped on the way in, as the row loop skips
    them. Reading the lines through that filter costs nothing measurable:
    on a 1,000,001-row sample it took 0.65 s against 0.70-0.75 s straight
    from the handle.
    """
    header = [name.strip() for name in next(csv.reader(handle), [])]
    if "x" not in header or "y" not in header:
        return None
    try:
        with warnings.catch_warnings():
            # An empty body is a refusal, not a warning.
            warnings.simplefilter("error", UserWarning)
            data = np.loadtxt(
                filterfalse(str.isspace, handle),
                delimiter=",",
                usecols=(header.index("x"), header.index("y")),
                quotechar='"',
                comments=None,
                ndmin=2,
                dtype=float,
            )
    except (ValueError, UserWarning):
        return None
    return data[:, 0].copy(), data[:, 1].copy()


def _read_rows(handle) -> tuple[np.ndarray, np.ndarray]:
    rows = list(csv.reader(handle))
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
