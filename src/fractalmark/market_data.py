"""Daily price-bar ingestion and intraday return computation.

Input is a plain CSV with a header naming at least ``date``, ``open`` and
``close``; extra columns are tolerated and ignored. Series are columnar:
dates are ``datetime64[D]`` arrays and prices or returns ``float64`` arrays.
Every array is copied and made read-only on construction and every
operation is a pure function, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
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

    Blank rows are skipped. Each other row is checked as it is read, in this
    order: at least ``width`` fields, its date, a date already seen, then
    each value column's number and, if ``positive``, its sign. The first
    failure is refused, naming its row; ``shown`` renders the quoted field.
    A row too short for a column it reads is refused by its field count.
    """
    need = max(date_col, *value_cols.values()) + 1
    seen: dict[int, int] = {}  # date ordinal -> row, in row order
    columns: list[list[float]] = [[] for _ in value_cols]
    checked = list(zip(columns, value_cols.items()))
    fromisoformat = Date.fromisoformat
    for row_no, row in enumerate(rows[1:], start=2):
        if not "".join(row).strip():
            continue
        if len(row) < width:
            raise InputError(f"row {row_no}: expected {width} fields, got {len(row)}")
        try:
            try:
                day = fromisoformat(row[date_col].strip()).toordinal()
            except ValueError:
                raise InputError(
                    f"row {row_no}: unparseable date {shown(row[date_col])!r}"
                ) from None
            first = seen.setdefault(day, row_no)
            if first != row_no:
                raise InputError(
                    f"row {row_no}: duplicate date {Date.fromordinal(day)} "
                    f"(first seen at row {first})"
                )
            for column, (name, col) in checked:
                try:
                    value = float(row[col])
                except ValueError:
                    raise InputError(
                        f"row {row_no}: malformed number {shown(row[col])!r} in column {name!r}"
                    ) from None
                if positive and not 0.0 < value < math.inf:
                    raise InputError(f"row {row_no}: non-positive {name} price {shown(row[col])!r}")
                column.append(value)
        except IndexError:
            raise InputError(f"row {row_no}: expected {need} fields, got {len(row)}") from None
    if not seen:
        raise InputError("CSV contains a header but no data rows")
    ords = np.fromiter(seen, np.int64, len(seen))
    order = np.argsort(ords)
    dates = (ords[order] - _EPOCH_ORDINAL).astype("datetime64[D]")
    return dates, [np.array(column, dtype=np.float64)[order] for column in columns]


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
