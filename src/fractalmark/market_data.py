"""Daily price-bar ingestion and intraday return computation.

Input is a plain CSV with a header naming at least ``date``, ``open`` and
``close``; extra columns are tolerated and ignored. Series are columnar:
dates are ``datetime64[D]`` arrays and prices or returns ``float64`` arrays.
Every array is copied and made read-only on construction and every
operation is a pure function, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from datetime import date as Date
from typing import BinaryIO, Callable, Sequence, TextIO

import numpy as np

from .errors import InputError

REQUIRED_COLUMNS = ("date", "open", "close")
PRICE_DTYPE = np.dtype([("date", "datetime64[D]"), ("open", np.float64), ("close", np.float64)])
# proleptic Gregorian ordinal of 1970-01-01, day 0 of datetime64[D]
_EPOCH_ORDINAL = 719163


def _frozen(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


def _same_columns(self, other) -> bool:
    """``__eq__`` of the series types: field by field, arrays by value."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def _check_calendar(dates: np.ndarray, disorder: str) -> None:
    """Refuse NaT and dates that do not strictly increase."""
    if np.isnat(dates).any():
        raise InputError("dates must be calendar dates, got NaT")
    bad = ~(dates[1:] > dates[:-1])
    if bad.any():
        i = int(np.argmax(bad))
        raise InputError(f"{disorder}; {dates[i]} followed by {dates[i + 1]}")


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """A non-empty run of daily bars for one instrument, strictly ordered by date.

    ``bars`` is a structured array of :data:`PRICE_DTYPE` (``date``, ``open``,
    ``close``). Invariants: every date is a calendar date and every price is
    finite and > 0.
    """

    instrument_id: str
    bars: np.ndarray

    def __post_init__(self) -> None:
        # a tuple would be read as one record
        bars = _frozen(self.bars if isinstance(self.bars, np.ndarray) else list(self.bars), PRICE_DTYPE)
        object.__setattr__(self, "bars", bars)
        if bars.ndim != 1 or not len(bars):
            raise InputError("price series must contain at least one bar")
        for name in ("open", "close"):
            bad = ~(np.isfinite(bars[name]) & (bars[name] > 0.0))
            if bad.any():
                value = float(bars[name][np.argmax(bad)])
                raise InputError(f"{name} price must be finite and > 0, got {value!r}")
        _check_calendar(bars["date"], "bars must be strictly increasing by date")

    __eq__ = _same_columns

    @property
    def dates(self) -> np.ndarray:
        return self.bars["date"]


@dataclass(frozen=True, eq=False)
class ReturnSeries:
    """Daily fractional returns for one instrument, strictly ordered by date."""

    instrument_id: str
    dates: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        dates = _frozen(self.dates, "datetime64[D]")
        values = _frozen(self.values, np.float64)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "values", values)
        if dates.ndim != 1 or dates.shape != values.shape:
            raise InputError("dates and values must have equal length")
        if not len(dates):
            raise InputError("return series must be non-empty")
        _check_calendar(dates, "return dates must be strictly increasing")
        bad = ~np.isfinite(values)
        if bad.any():
            raise InputError(f"returns must be finite, got {float(values[np.argmax(bad)])!r}")

    __eq__ = _same_columns

    def __len__(self) -> int:
        return len(self.dates)


def _read_text(raw: bytes | str | BinaryIO | TextIO) -> str:
    if isinstance(raw, bytes):
        return raw.decode("utf-8")
    if isinstance(raw, str):
        return raw
    data = raw.read()
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data


def _split_rows(text: str) -> list[list[str]]:
    import csv
    import io

    return [row for row in csv.reader(io.StringIO(text, newline=""))]


def _columns(
    rows: list[list[str]],
    date_col: int,
    value_cols: dict[str, int],
    *,
    width: int,
    positive: bool,
    shown: Callable[[str], str],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Sorted dates and float columns of the data rows after the header.

    One pass appends each row's number, date ordinal and floats, skipping
    blank rows. It stops at the first row whose fields do not parse; that
    row's lists stay short from the failing field on. The row checks then
    run on whole columns, in the order a row is read: at least ``width``
    fields, date, duplicate date, then each value column's number and, if
    ``positive``, its sign. The earliest failing row, and its earliest
    failing check, words the refusal; ``shown`` renders the quoted field.
    """
    row_nos: list[int] = []
    ordinals: list[int] = []
    columns: list[list[float]] = [[] for _ in value_cols]
    pairs = list(zip(columns, value_cols.values()))
    fromisoformat = Date.fromisoformat
    for row_no, row in enumerate(rows[1:], start=2):
        try:
            # A blank row always fails here, before anything is appended.
            ordinals.append(fromisoformat(row[date_col].strip()).toordinal())
            for column, col in pairs:
                column.append(float(row[col]))
        except (ValueError, IndexError):
            if not "".join(row).strip():
                continue
            row_nos.append(row_no)
            break
        row_nos.append(row_no)

    n = len(row_nos)
    index = np.arange(n)
    widths = np.fromiter(map(len, rows), np.int64, len(rows))[np.array(row_nos, dtype=np.int64) - 1]
    ords = np.array(ordinals, dtype=np.int64)
    order = np.argsort(ords, kind="stable")
    repeat = np.zeros(n, dtype=bool)
    repeat[order[1:]] = ords[order[1:]] == ords[order[:-1]]
    arrays = [np.array(column, dtype=np.float64) for column in columns]

    checks = [
        (widths < width, "width", date_col, ""),
        (index >= len(ords), "date", date_col, ""),
        (repeat, "repeat", date_col, ""),
    ]
    for (name, col), values in zip(value_cols.items(), arrays):
        checks.append((index >= len(values), "number", col, name))
        if positive:
            sign_ok = np.ones(n, dtype=bool)
            sign_ok[: len(values)] = np.isfinite(values) & (values > 0.0)
            checks.append((~sign_ok, "sign", col, name))

    def word(i: int, check: str, col: int, name: str) -> str:
        row = rows[row_nos[i] - 1]
        if check == "width":
            return f"expected {width} fields, got {len(row)}"
        if len(row) <= col:  # a short row is refused where its missing field is read
            return f"expected {max(date_col, *value_cols.values()) + 1} fields, got {len(row)}"
        if check == "date":
            return f"unparseable date {shown(row[col])!r}"
        if check == "repeat":
            first = row_nos[int(np.argmax(ords == ords[i]))]
            return f"duplicate date {Date.fromordinal(int(ords[i]))} (first seen at row {first})"
        if check == "number":
            return f"malformed number {shown(row[col])!r} in column {name!r}"
        return f"non-positive {name} price {shown(row[col])!r}"

    failing = [(int(np.argmax(mask)), k) for k, (mask, *_) in enumerate(checks) if mask.any()]
    if failing:
        i, k = min(failing)
        raise InputError(f"row {row_nos[i]}: {word(i, *checks[k][1:])}")
    if not n:
        raise InputError("CSV contains a header but no data rows")
    dates = (ords[order] - _EPOCH_ORDINAL).astype("datetime64[D]")
    return dates, [values[order] for values in arrays]


def parse_price_csv(raw: bytes | str | BinaryIO | TextIO, instrument_id: str = "series") -> PriceSeries:
    """Parse a daily price CSV into a :class:`PriceSeries`.

    Parameters
    ----------
    raw :
        A byte stream (or bytes/str already read) containing UTF-8 CSV text
        with a header row naming at least ``date``, ``open`` and ``close``.
        Dates are ISO-8601 (YYYY-MM-DD). Extra columns are ignored.
    instrument_id :
        Label attached to the resulting series.

    Returns
    -------
    PriceSeries
        One bar per data row, sorted ascending by date.

    Raises
    ------
    InputError
        On a missing column, malformed number, unparseable date, duplicate
        date or non-positive price. Messages carry the 1-based row number
        (the header is row 1).
    """
    rows = _split_rows(_read_text(raw))
    if not rows:
        raise InputError("empty CSV: no header row")
    header = [name.strip() for name in rows[0]]
    missing = [name for name in REQUIRED_COLUMNS if name not in header]
    if missing:
        raise InputError(f"row 1: missing required column(s): {', '.join(missing)}")
    dates, (opens, closes) = _columns(
        rows,
        header.index("date"),
        {"open": header.index("open"), "close": header.index("close")},
        width=len(header),
        positive=True,
        shown=str.strip,
    )
    bars = np.empty(len(dates), dtype=PRICE_DTYPE)
    bars["date"], bars["open"], bars["close"] = dates, opens, closes
    return PriceSeries(instrument_id, bars)


def extra_columns(raw: bytes | str | BinaryIO | TextIO) -> tuple[str, ...]:
    """Names of header columns beyond the required schema (used for warnings).

    Only the first CSV record is parsed.
    """
    import csv
    import io

    header = next(csv.reader(io.StringIO(_read_text(raw), newline="")), [])
    return tuple(name.strip() for name in header if name.strip() not in REQUIRED_COLUMNS)


def _csv_text(header: str, dates: np.ndarray, *columns: np.ndarray) -> str:
    row = ",".join(["{}"] + ["{!r}"] * len(columns)).format
    lines = map(row, np.datetime_as_string(dates, unit="D"), *(c.tolist() for c in columns))
    return "\n".join([header, *lines]) + "\n"


def serialize_price_csv(series: PriceSeries) -> str:
    """Render a price series back to the CSV schema accepted by the parser."""
    bars = series.bars
    return _csv_text("date,open,close", bars["date"], bars["open"], bars["close"])


def daily_returns(series: PriceSeries) -> ReturnSeries:
    """Intraday return per bar: (close - open) / open, dates preserved."""
    bars = series.bars
    return ReturnSeries(
        series.instrument_id, bars["date"], (bars["close"] - bars["open"]) / bars["open"]
    )


def align_on_calendar(
    series: Sequence[ReturnSeries], dates: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each series' values on the given strictly increasing calendar.

    Returns an N x D float matrix (NaN where a series has no entry for a
    date) and the N x D mask of entries present. Dates of a series that are
    not on the calendar are dropped.
    """
    dates = np.asarray(dates, dtype="datetime64[D]")
    values = np.full((len(series), len(dates)), np.nan)
    present = np.zeros(values.shape, dtype=bool)
    for row, one in enumerate(series if len(dates) else ()):
        pos = np.searchsorted(dates, one.dates)
        hit = dates[np.minimum(pos, len(dates) - 1)] == one.dates
        values[row, pos[hit]] = one.values[hit]
        present[row, pos[hit]] = True
    return values, present


def serialize_returns_csv(series: ReturnSeries) -> str:
    """Render a return series as ``date,return`` CSV (full float precision)."""
    return _csv_text("date,return", series.dates, series.values)


def parse_returns_csv(raw: bytes | str | BinaryIO | TextIO, instrument_id: str = "series") -> ReturnSeries:
    """Parse ``date,return`` CSV produced by :func:`serialize_returns_csv`.

    Refusals carry the 1-based row number, as for :func:`parse_price_csv`; a
    row too short to hold a column is refused by its field count where that
    column is read.
    """
    rows = _split_rows(_read_text(raw))
    if not rows:
        raise InputError("empty CSV: no header row")
    header = [name.strip() for name in rows[0]]
    for name in ("date", "return"):
        if name not in header:
            raise InputError(f"row 1: missing required column {name!r}")
    d_i, v_i = header.index("date"), header.index("return")
    dates, (values,) = _columns(
        rows, d_i, {"return": v_i}, width=0, positive=False, shown=str
    )
    return ReturnSeries(instrument_id, dates, values)
