"""Daily price-bar ingestion and intraday return computation.

Input is a plain CSV with a header naming at least ``date``, ``open`` and
``close``; extra columns are tolerated and ignored. All types here are
immutable after construction and every operation is a pure function, so
values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date as Date
from typing import BinaryIO, Iterable, TextIO

from .errors import ComputationError, InputError

REQUIRED_COLUMNS = ("date", "open", "close")


@dataclass(frozen=True)
class PriceBar:
    """One trading day: calendar date plus opening and closing index levels.

    Invariants: ``open > 0`` and ``close > 0``; ``date`` is a real calendar
    date (enforced by the ``datetime.date`` type).
    """

    date: Date
    open: float
    close: float

    def __post_init__(self) -> None:
        if not isinstance(self.date, Date):
            raise InputError(f"bar date must be a calendar date, got {self.date!r}")
        for name in ("open", "close"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise InputError(f"{name} price must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class PriceSeries:
    """A non-empty run of daily bars for one instrument, strictly ordered by date."""

    instrument_id: str
    bars: tuple[PriceBar, ...]

    def __post_init__(self) -> None:
        if not self.bars:
            raise InputError("price series must contain at least one bar")
        for prev, cur in zip(self.bars, self.bars[1:]):
            if cur.date <= prev.date:
                raise InputError(
                    f"bars must be strictly increasing by date; "
                    f"{prev.date} followed by {cur.date}"
                )

    @property
    def dates(self) -> tuple[Date, ...]:
        return tuple(bar.date for bar in self.bars)


@dataclass(frozen=True)
class ReturnSeries:
    """Daily fractional returns for one instrument, strictly ordered by date."""

    instrument_id: str
    dates: tuple[Date, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.dates) != len(self.values):
            raise InputError("dates and values must have equal length")
        if not self.dates:
            raise InputError("return series must be non-empty")
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur <= prev:
                raise InputError(
                    f"return dates must be strictly increasing; "
                    f"{prev} followed by {cur}"
                )
        for value in self.values:
            if not math.isfinite(value):
                raise InputError(f"returns must be finite, got {value!r}")

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
    col = {name: header.index(name) for name in REQUIRED_COLUMNS}

    bars: list[PriceBar] = []
    seen: dict[Date, int] = {}
    for row_no, row in enumerate(rows[1:], start=2):
        if not row or all(not field.strip() for field in row):
            continue
        if len(row) < len(header):
            raise InputError(f"row {row_no}: expected {len(header)} fields, got {len(row)}")
        raw_date = row[col["date"]].strip()
        try:
            bar_date = Date.fromisoformat(raw_date)
        except ValueError:
            raise InputError(f"row {row_no}: unparseable date {raw_date!r}") from None
        if bar_date in seen:
            raise InputError(
                f"row {row_no}: duplicate date {bar_date} (first seen at row {seen[bar_date]})"
            )
        seen[bar_date] = row_no
        prices = {}
        for name in ("open", "close"):
            field = row[col[name]].strip()
            try:
                prices[name] = float(field)
            except ValueError:
                raise InputError(f"row {row_no}: malformed number {field!r} in column {name!r}") from None
            if not math.isfinite(prices[name]) or prices[name] <= 0.0:
                raise InputError(f"row {row_no}: non-positive {name} price {field!r}")
        bars.append(PriceBar(bar_date, prices["open"], prices["close"]))

    if not bars:
        raise InputError("CSV contains a header but no data rows")
    bars.sort(key=lambda bar: bar.date)
    return PriceSeries(instrument_id, tuple(bars))


def extra_columns(raw: bytes | str | BinaryIO | TextIO) -> tuple[str, ...]:
    """Names of header columns beyond the required schema (used for warnings).

    Only the first CSV record is parsed.
    """
    import csv
    import io

    header = next(csv.reader(io.StringIO(_read_text(raw), newline="")), [])
    return tuple(name.strip() for name in header if name.strip() not in REQUIRED_COLUMNS)


def serialize_price_csv(series: PriceSeries) -> str:
    """Render a price series back to the CSV schema accepted by the parser."""
    lines = ["date,open,close"]
    for bar in series.bars:
        lines.append(f"{bar.date.isoformat()},{bar.open!r},{bar.close!r}")
    return "\n".join(lines) + "\n"


def daily_returns(series: PriceSeries) -> ReturnSeries:
    """Intraday return per bar: (close - open) / open, dates preserved."""
    dates = tuple(bar.date for bar in series.bars)
    values = tuple((bar.close - bar.open) / bar.open for bar in series.bars)
    return ReturnSeries(series.instrument_id, dates, values)


def align_on_common_dates(a: ReturnSeries, b: ReturnSeries) -> tuple[ReturnSeries, ReturnSeries]:
    """Restrict both series to their common dates, positionally paired.

    Raises
    ------
    ComputationError
        If the two series share no dates.
    """
    common = sorted(set(a.dates) & set(b.dates))
    if not common:
        raise ComputationError(
            f"series {a.instrument_id!r} and {b.instrument_id!r} share no dates"
        )
    map_a = dict(zip(a.dates, a.values))
    map_b = dict(zip(b.dates, b.values))
    out_a = ReturnSeries(a.instrument_id, tuple(common), tuple(map_a[d] for d in common))
    out_b = ReturnSeries(b.instrument_id, tuple(common), tuple(map_b[d] for d in common))
    return out_a, out_b


def serialize_returns_csv(series: ReturnSeries) -> str:
    """Render a return series as ``date,return`` CSV (full float precision)."""
    lines = ["date,return"]
    for d, v in zip(series.dates, series.values):
        lines.append(f"{d.isoformat()},{v!r}")
    return "\n".join(lines) + "\n"


def parse_returns_csv(raw: bytes | str | BinaryIO | TextIO, instrument_id: str = "series") -> ReturnSeries:
    """Parse ``date,return`` CSV produced by :func:`serialize_returns_csv`."""
    rows = _split_rows(_read_text(raw))
    if not rows:
        raise InputError("empty CSV: no header row")
    header = [name.strip() for name in rows[0]]
    for name in ("date", "return"):
        if name not in header:
            raise InputError(f"row 1: missing required column {name!r}")
    d_i, v_i = header.index("date"), header.index("return")

    entries: list[tuple[Date, float]] = []
    seen: dict[Date, int] = {}
    for row_no, row in enumerate(rows[1:], start=2):
        if not row or all(not field.strip() for field in row):
            continue
        try:
            entry_date = Date.fromisoformat(row[d_i].strip())
        except ValueError:
            raise InputError(f"row {row_no}: unparseable date {row[d_i]!r}") from None
        if entry_date in seen:
            raise InputError(
                f"row {row_no}: duplicate date {entry_date} (first seen at row {seen[entry_date]})"
            )
        seen[entry_date] = row_no
        try:
            value = float(row[v_i].strip())
        except ValueError:
            raise InputError(f"row {row_no}: malformed number {row[v_i]!r} in column 'return'") from None
        entries.append((entry_date, value))

    if not entries:
        raise InputError("CSV contains a header but no data rows")
    entries.sort(key=lambda item: item[0])
    return ReturnSeries(instrument_id, tuple(e[0] for e in entries), tuple(e[1] for e in entries))


def window_values(series: ReturnSeries, dates: Iterable[Date]) -> list[float]:
    """Values of ``series`` at the given dates, which must all be present."""
    lookup = dict(zip(series.dates, series.values))
    out = []
    for d in dates:
        if d not in lookup:
            raise ComputationError(f"series {series.instrument_id!r} has no entry for {d}")
        out.append(lookup[d])
    return out
