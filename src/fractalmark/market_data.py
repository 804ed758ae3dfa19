"""Daily price-bar ingestion and intraday return computation.

Input is a plain CSV with a header naming at least ``date``, ``open`` and
``close``; extra columns are tolerated and ignored. Series are columnar:
dates are ``datetime64[D]`` arrays and prices or returns ``float64`` arrays.
Every array is copied and made read-only on construction and every
operation is a pure function, so values can be shared freely across threads.

Price and return files are read in two tiers. One ``np.loadtxt`` call reads
the body of a plain file, and vectorized checks accept its columns only
where the row-by-row loop over :func:`csvio.read_records` would read the
same bits. Any other file, and every file numpy refuses, goes to that loop,
which alone decides refusals, their order and their row numbers. Field
lengths are not scanned, so numpy may read a body field over
``csv.field_size_limit()``, which the loop refuses, in a column it skips or
as a number it parses as ``float`` would.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, fields
from datetime import date as Date
from typing import BinaryIO, Callable, Iterator, Sequence, TextIO

import numpy as np

from .csvio import SEPARATORS, read_records
from .errors import InputError

REQUIRED_COLUMNS = ("date", "open", "close")
PRICE_DTYPE = np.dtype([("date", "datetime64[D]"), ("open", np.float64), ("close", np.float64)])
# proleptic Gregorian ordinal of 1970-01-01, day 0 of datetime64[D]
_EPOCH_ORDINAL = 719163


def _frozen(values, dtype, refusal: str) -> np.ndarray:
    """A read-only ``dtype`` copy of ``values``; ``InputError(refusal)`` where numpy cannot."""
    try:
        out = np.array(values, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise InputError(refusal) from exc
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
        bars = self.bars
        if np.iterable(bars) and not isinstance(bars, np.ndarray):
            bars = list(bars)  # a tuple would be read as one record
        bars = _frozen(bars, PRICE_DTYPE, "bars must be (date, open, close) records")
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
        dates = _frozen(self.dates, "datetime64[D]", "return dates must be calendar dates")
        values = _frozen(self.values, np.float64, "returns must be numbers")
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


def _records(text: str) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """:func:`csvio.read_records` of ``text``, refusing a text with no record."""
    header, records = read_records(io.StringIO(text, newline=""))
    if header is None:
        raise InputError("empty CSV: no header row")
    return header, records


# A date's bytes less _DATE_OFFSET lie below _DATE_LIMIT exactly where they
# spell YYYY-MM-DD: digits give 0-9, a dash gives 0, and in uint8 any other
# byte wraps round to at least 10.
_DATE_OFFSET = np.frombuffer(b"0000-00-00", np.uint8)
_DATE_LIMIT = np.where(_DATE_OFFSET == ord("-"), 1, 10).astype(np.uint8)
_FIRST_DAY = np.datetime64("0001-01-01", "D")
# Quotes and carriage returns, which ``csv`` reads otherwise than a split on
# commas and newlines; NUL, which an ``S`` field drops at its end; and the
# separators, which numpy reads otherwise than ``float``.
_NOT_PLAIN = '"\r\0' + SEPARATORS


def _load_columns(
    text: str, date_col: int, value_cols: dict[str, int], *, positive: bool
) -> tuple[np.ndarray, list[np.ndarray]] | None:
    """What :func:`_columns` returns, read by one ``np.loadtxt`` call, or
    None where the row loop might read the file otherwise or refuse it.

    Only ASCII text free of :data:`_NOT_PLAIN` is tried, so a line is a row
    and a comma ends a field, as for ``csv``, and numbers read as by
    ``float``. The table has one dtype field per header column, so numpy
    refuses a row with another field count, whitespace-only rows included,
    and skips empty lines as the row loop does. Each date must be exactly
    ``YYYY-MM-DD`` with a year from 1: numpy also reads ``20240705``,
    ``NaT``, ``today``, ``2024-07`` or year 0, each otherwise than
    ``date.fromisoformat``. Duplicate dates and, if ``positive``, values
    that are not finite and > 0 are left to the row loop.
    """
    if not text.isascii() or any(c in text for c in _NOT_PLAIN):
        return None
    head, _, body = text.partition("\n")
    if not body.strip():
        return None  # no data row, and numpy would warn
    kinds = ["S1"] * (head.count(",") + 1)  # a column not read may hold any text
    kinds[date_col] = "S11"  # a byte past the date shows a longer field
    for col in value_cols.values():
        kinds[col] = "f8"
    table_dtype = np.dtype([(f"f{col}", kind) for col, kind in enumerate(kinds)])
    try:
        table = np.loadtxt(
            body.split("\n"), table_dtype, comments=None, delimiter=",", quotechar=None, ndmin=1
        )
        field = np.ascontiguousarray(table[f"f{date_col}"])
        chars = field.view(np.uint8).reshape(-1, 11)
        if chars[:, 10].any() or not (chars[:, :10] - _DATE_OFFSET < _DATE_LIMIT).all():
            return None
        dates = field.astype("datetime64[D]")  # refuses a day past its month's end
    except ValueError:
        return None
    order = np.argsort(dates, kind="stable")
    dates = dates[order]
    if dates[0] < _FIRST_DAY or not (dates[1:] > dates[:-1]).all():
        return None
    columns = [table[f"f{col}"][order] for col in value_cols.values()]
    if positive and not all(((0.0 < c) & (c < math.inf)).all() for c in columns):
        return None
    return dates, columns


def _columns(
    records: Iterator[tuple[int, list[str]]],
    date_col: int,
    value_cols: dict[str, int],
    *,
    width: int,
    positive: bool,
    shown: Callable[[str], str],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Sorted dates and float columns of the data rows after the header.

    Each row is checked as it is read, in this order: at least ``width``
    fields, its date, a date already seen, then each value column's number
    and, if ``positive``, its sign. The first failure is refused, naming its
    row; ``shown`` renders the quoted field. A row too short for a column it
    reads is refused by its field count.
    """
    need = max(date_col, *value_cols.values()) + 1
    seen: dict[int, int] = {}  # date ordinal -> row, in row order
    columns: list[list[float]] = [[] for _ in value_cols]
    checked = list(zip(columns, value_cols.items()))
    fromisoformat = Date.fromisoformat
    for row_no, row in records:
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
    text = _read_text(raw)
    header, records = _records(text)
    missing = [name for name in REQUIRED_COLUMNS if name not in header]
    if missing:
        raise InputError(f"row 1: missing required column(s): {', '.join(missing)}")
    read = header.index("date"), {"open": header.index("open"), "close": header.index("close")}
    dates, (opens, closes) = _load_columns(text, *read, positive=True) or _columns(
        records, *read, width=len(header), positive=True, shown=str.strip
    )
    bars = np.empty(len(dates), dtype=PRICE_DTYPE)
    bars["date"], bars["open"], bars["close"] = dates, opens, closes
    return PriceSeries(instrument_id, bars)


def extra_columns(raw: bytes | str | BinaryIO | TextIO) -> tuple[str, ...]:
    """Names of header columns beyond the required schema (used for warnings).

    Only the first CSV record is parsed.
    """
    header, _ = read_records(io.StringIO(_read_text(raw), newline=""))
    return tuple(name for name in header or () if name not in REQUIRED_COLUMNS)


def _csv_text(header: str, dates: np.ndarray, *columns: np.ndarray) -> str:
    row = ",".join(["{}"] + ["{!r}"] * len(columns)).format
    lines = map(row, np.datetime_as_string(dates, unit="D"), *(c.tolist() for c in columns))
    return "\n".join([header, *lines]) + "\n"


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
    text = _read_text(raw)
    header, records = _records(text)
    for name in ("date", "return"):
        if name not in header:
            raise InputError(f"row 1: missing required column {name!r}")
    read = header.index("date"), {"return": header.index("return")}
    dates, (values,) = _load_columns(text, *read, positive=False) or _columns(
        records, *read, width=0, positive=False, shown=str
    )
    return ReturnSeries(instrument_id, dates, values)
