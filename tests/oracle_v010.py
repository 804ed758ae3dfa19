"""The ingest and event-study code of fractalmark 0.1.0, kept verbatim.

It is the reference the columnar code is tested against: one frozen object
per price bar, tuple-backed return series, dict-based alignment and the
per-asset market-model loop of ``compute_abnormal_panel``. ``build_panel``
did not change and is imported from the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date as Date
from typing import BinaryIO, Iterable, Sequence, TextIO

import numpy as np

from fractalmark.errors import ComputationError, InputError
from fractalmark.event_study import (
    DEFAULT_ESTIMATION_WINDOW_DAYS,
    DEFAULT_POST_DAYS,
    DEFAULT_PRE_DAYS,
    AbnormalReturnPanel,
    build_panel,
)

REQUIRED_COLUMNS = ("date", "open", "close")


@dataclass(frozen=True)
class CapmParams:
    """Fitted market-model parameters: slope (beta), intercept, daily risk-free rate."""

    beta: float
    intercept: float
    risk_free_daily: float

    def __post_init__(self) -> None:
        for name in ("beta", "intercept", "risk_free_daily"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite")


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


def window_values(series: ReturnSeries, dates: Iterable[Date]) -> list[float]:
    """Values of ``series`` at the given dates, which must all be present."""
    lookup = dict(zip(series.dates, series.values))
    out = []
    for d in dates:
        if d not in lookup:
            raise ComputationError(f"series {series.instrument_id!r} has no entry for {d}")
        out.append(lookup[d])
    return out


@dataclass(frozen=True)
class EventWindow:
    """Trading dates covering relative days -pre..+post around an event.

    Relative day 0 is the first trading day on or after ``event_date``.
    """

    event_date: Date
    pre_days: int
    post_days: int
    relative_days: tuple[int, ...]
    dates: tuple[Date, ...]

    def __post_init__(self) -> None:
        expected = self.pre_days + self.post_days + 1
        if len(self.relative_days) != expected or len(self.dates) != expected:
            raise InputError(
                f"window must cover {expected} days, got {len(self.dates)} dates"
            )
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur <= prev:
                raise InputError("window dates must be strictly increasing")
        if self.dates[self.pre_days] < self.event_date:
            raise InputError("relative day 0 must be on or after the event date")

    def __len__(self) -> int:
        return len(self.dates)


def estimate_capm(
    asset: ReturnSeries, market: ReturnSeries, risk_free_daily: float = 0.0
) -> CapmParams:
    """OLS of asset excess returns on market excess returns.

    Series are aligned on their common dates first; at least 3 paired
    observations are required. The slope is beta, the intercept is alpha.

    Raises
    ------
    ComputationError
        If fewer than 3 paired observations exist or the market excess
        returns have zero variance (degenerate regression).
    """
    if asset.dates != market.dates:
        asset, market = align_on_common_dates(asset, market)
    if len(asset) < 3:
        raise ComputationError(
            f"beta estimation needs >= 3 paired observations, got {len(asset)}"
        )
    y = np.asarray(asset.values, dtype=float) - risk_free_daily
    x = np.asarray(market.values, dtype=float) - risk_free_daily
    if np.ptp(x) == 0.0:
        raise ComputationError("market excess returns are constant: degenerate regression")
    x_mean = x.mean()
    y_mean = y.mean()
    beta = float(np.sum((x - x_mean) * (y - y_mean)) / np.sum((x - x_mean) ** 2))
    intercept = float(y_mean - beta * x_mean)
    return CapmParams(beta=beta, intercept=intercept, risk_free_daily=risk_free_daily)


def expected_return(params: CapmParams, market_return: float) -> float:
    """Market-model expected return: r_f + beta * (r_m - r_f)."""
    return params.risk_free_daily + params.beta * (market_return - params.risk_free_daily)


def abnormal_return(actual: float, expected: float) -> float:
    """Actual minus expected return."""
    return actual - expected


def extract_event_window(
    series: ReturnSeries,
    event_date: Date,
    pre_days: int = DEFAULT_PRE_DAYS,
    post_days: int = DEFAULT_POST_DAYS,
) -> EventWindow:
    """Select pre + 1 + post trading dates around ``event_date``.

    Relative day 0 maps to the first trading date >= ``event_date`` (an
    event on a non-trading day rolls forward to the next session).

    Raises
    ------
    ComputationError
        If the series has too few trading days on either side, naming the
        required versus available counts.
    """
    if pre_days < 0 or post_days < 0:
        raise InputError("pre_days and post_days must be non-negative")
    dates = series.dates
    day0 = next((i for i, d in enumerate(dates) if d >= event_date), None)
    if day0 is None:
        raise ComputationError(
            f"no trading day on or after {event_date} in series {series.instrument_id!r}"
        )
    if day0 < pre_days:
        raise ComputationError(
            f"insufficient history before {event_date}: need {pre_days} trading days, "
            f"have {day0}"
        )
    available_post = len(dates) - 1 - day0
    if available_post < post_days:
        raise ComputationError(
            f"insufficient history after {event_date}: need {post_days} trading days, "
            f"have {available_post}"
        )
    window_dates = dates[day0 - pre_days : day0 + post_days + 1]
    relative = tuple(range(-pre_days, post_days + 1))
    return EventWindow(event_date, pre_days, post_days, relative, tuple(window_dates))


def estimation_sample(
    aligned_dates: Sequence[Date],
    window_start: Date,
    estimation_window_days: int = DEFAULT_ESTIMATION_WINDOW_DAYS,
) -> list[Date]:
    """Trading dates used for beta estimation: the last ``estimation_window_days``
    dates strictly before the event window opens (fewer if history is short)."""
    before = [d for d in aligned_dates if d < window_start]
    return before[-estimation_window_days:]


def compute_abnormal_panel(
    assets: list[ReturnSeries],
    market: ReturnSeries,
    event_date: Date,
    pre_days: int = 15,
    post_days: int = 15,
    risk_free_daily: float = 0.0,
    beta_override: float | None = None,
    estimation_window_days: int = 120,
) -> tuple[AbnormalReturnPanel, tuple[int, ...], list[str]]:
    """Full market-model chain for N securities against one market series.

    Returns the panel, the relative-day axis, and any notes (for example a
    shorter-than-requested beta-estimation sample).
    """
    notes: list[str] = []
    rows = []
    labels = []
    relative_days: tuple[int, ...] | None = None
    for asset in assets:
        a, m = align_on_common_dates(asset, market)
        window = extract_event_window(a, event_date, pre_days, post_days)
        if relative_days is None:
            relative_days = window.relative_days
        if beta_override is not None:
            params = CapmParams(beta_override, 0.0, risk_free_daily)
        else:
            est_dates = estimation_sample(a.dates, window.dates[0], estimation_window_days)
            if len(est_dates) < 3:
                raise ComputationError(
                    f"asset {asset.instrument_id!r}: only {len(est_dates)} trading days "
                    f"available for beta estimation; supply beta explicitly"
                )
            if len(est_dates) < estimation_window_days:
                notes.append(
                    f"asset {asset.instrument_id!r}: beta estimated on {len(est_dates)} "
                    f"days (requested {estimation_window_days})"
                )
            est_asset = ReturnSeries(
                a.instrument_id, tuple(est_dates), tuple(window_values(a, est_dates))
            )
            est_market = ReturnSeries(
                m.instrument_id, tuple(est_dates), tuple(window_values(m, est_dates))
            )
            params = estimate_capm(est_asset, est_market, risk_free_daily)
        actuals = window_values(a, window.dates)
        market_rets = window_values(m, window.dates)
        rows.append(
            [
                abnormal_return(actual, expected_return(params, rm))
                for actual, rm in zip(actuals, market_rets)
            ]
        )
        labels.append(asset.instrument_id)
    panel = build_panel(np.asarray(rows), labels)
    assert relative_days is not None
    return panel, relative_days, notes

