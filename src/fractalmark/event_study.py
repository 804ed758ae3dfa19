"""Market-model event study: expected returns, abnormal returns, AAR/CAAR.

The chain is: estimate beta by OLS of asset excess returns on market excess
returns, take expected return ``r_f + beta * (r_m - r_f)``, subtract from the
actual return to get the abnormal return, average across securities per
event-window day (AAR) and accumulate over the window (CAAR). A 31-day
window centred on the event can be subsampled onto an 11-point unit grid,
which is the input format for fractal interpolation downstream.

For a panel the chain runs on whole matrices: every security is gathered
onto the market's trading calendar, and all betas are fitted in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date as Date
from typing import Sequence

import numpy as np

from .errors import ComputationError, InputError
from .market_data import ReturnSeries, _frozen, align_on_calendar

DEFAULT_PRE_DAYS = 15
DEFAULT_POST_DAYS = 15
DEFAULT_ESTIMATION_WINDOW_DAYS = 120
# the window length that ``subsample_to_grid`` maps onto the 11-point grid
GRID_WINDOW_DAYS = 31


@dataclass(frozen=True, eq=False)
class AbnormalReturnPanel:
    """Per-security abnormal returns with cross-sectional AAR and running CAAR.

    ``ar`` is an N x T matrix (N securities, T window days), held as a
    read-only copy. ``aar[t]`` is computed as the mean of column t and
    ``caar`` as its running sum.
    """

    securities: tuple[str, ...]
    ar: np.ndarray
    aar: np.ndarray = field(init=False)
    caar: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        ragged = "abnormal-return matrix must be rectangular (ragged input?)"
        try:
            dims = np.ndim(self.ar)
        except ValueError as exc:  # rows of unequal length have no shape
            raise InputError(ragged) from exc
        if dims != 2:
            raise InputError(ragged)
        ar = _frozen(self.ar, np.float64, "abnormal returns must be numbers")
        object.__setattr__(self, "ar", ar)
        if ar.size == 0:
            raise InputError("abnormal-return matrix must be non-empty")
        if not np.all(np.isfinite(ar)):
            raise InputError("abnormal returns must be finite")
        if len(self.securities) != ar.shape[0]:
            raise InputError("one security label required per ar row")
        aar = ar.mean(axis=0)
        object.__setattr__(self, "aar", aar)
        object.__setattr__(self, "caar", np.cumsum(aar))

    @property
    def n_securities(self) -> int:
        return self.ar.shape[0]

    @property
    def n_days(self) -> int:
        return self.ar.shape[1]


@dataclass(frozen=True, eq=False)
class InterpolationData:
    """Strictly increasing abscissae on [0, 1] with ordinates: fractal-interpolation input.

    Requires x[0] = 0, x[-1] = 1 and at least 3 points. Collinearity is not
    rejected here; the interpolation module checks it where it matters.
    Both arrays are held as read-only copies.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        for name in ("x", "y"):
            values = _frozen(getattr(self, name), np.float64, "interpolation data must be numbers")
            object.__setattr__(self, name, values)
        if self.x.ndim != 1 or self.x.shape != self.y.shape:
            raise InputError("x and y must be 1-D arrays of equal length")
        if len(self.x) < 3:
            raise InputError("interpolation data needs at least 3 points")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise InputError("interpolation data must be finite")
        if np.any(np.diff(self.x) <= 0.0):
            raise InputError("abscissae must be strictly increasing")
        if abs(self.x[0]) > 1e-12 or abs(self.x[-1] - 1.0) > 1e-12:
            raise InputError("abscissae must be normalized to [0, 1]")

    def __len__(self) -> int:
        return len(self.x)

    @property
    def intervals(self) -> int:
        return len(self.x) - 1


def fit_market_model(
    asset: np.ndarray, market: np.ndarray, risk_free_daily: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise OLS of asset excess returns on market excess returns.

    ``asset`` and ``market`` are N x E matrices of paired daily returns, one
    security per row and E >= 1 observations each. Returns the N slopes
    (beta) and the N intercepts (alpha).

    Raises
    ------
    ComputationError
        If a row's market excess returns are constant (degenerate regression).
    """
    y = np.asarray(asset, dtype=float) - risk_free_daily
    x = np.asarray(market, dtype=float) - risk_free_daily
    if np.any(np.ptp(x, axis=1) == 0.0):
        raise ComputationError("market excess returns are constant: degenerate regression")
    x_mean = x.mean(axis=1, keepdims=True)
    y_mean = y.mean(axis=1, keepdims=True)
    x -= x_mean  # x and y are this function's own arrays: centre them in place
    y -= y_mean
    beta = np.sum(x * y, axis=1) / np.sum(x * x, axis=1)
    intercept = y_mean[:, 0] - beta * x_mean[:, 0]
    return beta, intercept


def abnormal_returns(
    actual: np.ndarray, market: np.ndarray, beta: np.ndarray, risk_free_daily: float = 0.0
) -> np.ndarray:
    """Actual minus market-model expected returns: r - (r_f + beta * (r_m - r_f)).

    ``actual`` is N x T, ``market`` holds the T market returns and ``beta``
    the N slopes.
    """
    beta = np.asarray(beta, dtype=float)[:, None]
    return np.asarray(actual, dtype=float) - (
        risk_free_daily + beta * (np.asarray(market, dtype=float) - risk_free_daily)
    )


def build_panel(
    ar_matrix: Sequence[Sequence[float]] | np.ndarray,
    securities: Sequence[str] | None = None,
) -> AbnormalReturnPanel:
    """Aggregate an N x T abnormal-return matrix into AAR and CAAR.

    Raises
    ------
    InputError
        If the matrix is ragged, empty or non-finite.
    """
    if securities is None:
        rows = len(ar_matrix) if np.iterable(ar_matrix) else 0
        securities = tuple(f"security_{i + 1}" for i in range(rows))
    return AbnormalReturnPanel(tuple(securities), ar_matrix)


def subsample_to_grid(window_values: Sequence[float]) -> InterpolationData:
    """Pick every third relative day of a 31-day window onto x = 0.0 .. 1.0.

    The selected relative days are {-15, -12, ..., +12, +15}; the 11 chosen
    values are mapped to the uniform unit grid.
    """
    values = np.asarray(window_values, dtype=float)
    if values.shape != (GRID_WINDOW_DAYS,):
        raise InputError(
            f"expected exactly {GRID_WINDOW_DAYS} window values, got {values.shape}"
        )
    return InterpolationData(np.arange(11) / 10.0, values[::3])


def panel_grids(panel: AbnormalReturnPanel) -> tuple[dict[str, InterpolationData], list[str]]:
    """The 11-point grids of a panel's AAR and CAAR, keyed ``aar`` and ``caar``, and no
    note; for any other window length than ``GRID_WINDOW_DAYS``, no grid and a note why."""
    if panel.n_days != GRID_WINDOW_DAYS:
        return {}, [f"window has {panel.n_days} days; 11-point grids need exactly {GRID_WINDOW_DAYS}"]
    return {"aar": subsample_to_grid(panel.aar), "caar": subsample_to_grid(panel.caar)}, []


def compute_abnormal_panel(
    assets: Sequence[ReturnSeries],
    market: ReturnSeries,
    event_date: Date,
    pre_days: int = DEFAULT_PRE_DAYS,
    post_days: int = DEFAULT_POST_DAYS,
    risk_free_daily: float = 0.0,
    beta_override: float | None = None,
    estimation_window_days: int = DEFAULT_ESTIMATION_WINDOW_DAYS,
) -> tuple[AbnormalReturnPanel, tuple[int, ...], list[str]]:
    """Full market-model chain for N securities against one market series.

    Everything runs on the market's trading calendar. The event window is
    the market's dates from relative day -``pre_days`` to +``post_days``,
    where relative day 0 is the first market date on or after
    ``event_date`` (an event on a non-trading day rolls forward to the next
    session). An asset without a return on any window date is refused. Each
    beta is estimated on the last ``estimation_window_days`` dates before the
    window that the asset shares with the market.

    Returns the panel, the relative-day axis, and any notes (for example a
    shorter-than-requested beta-estimation sample).

    Raises
    ------
    InputError
        If ``pre_days`` or ``post_days`` is negative, or ``risk_free_daily``
        or the beta is not finite.
    ComputationError
        If the market's history does not cover the window, an asset misses a
        window date (naming the asset and the dates), or an asset shares
        fewer than 3 dates with the market before the window.
    """
    if pre_days < 0 or post_days < 0:
        raise InputError("pre_days and post_days must be non-negative")
    if not math.isfinite(risk_free_daily):
        raise InputError("risk_free_daily must be finite")
    dates = market.dates
    day0 = int(np.searchsorted(dates, np.datetime64(event_date, "D")))
    if day0 == len(dates):
        raise ComputationError(
            f"no trading day on or after {event_date} in series {market.instrument_id!r}"
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
    start, stop = day0 - pre_days, day0 + post_days + 1
    values, present = align_on_calendar(assets, dates)
    covered = present[:, start:stop]
    if not covered.all():
        i = int(np.argmin(covered.all(axis=1)))
        missing = ", ".join(str(d) for d in dates[start:stop][~covered[i]])
        raise ComputationError(
            f"asset {assets[i].instrument_id!r} has no return on {missing}, inside the "
            f"event window on the trading calendar of {market.instrument_id!r}"
        )

    notes: list[str] = []
    if beta_override is not None:
        beta = np.full(len(assets), float(beta_override))
    else:
        if estimation_window_days < 1:
            raise InputError(
                f"estimation_window_days must be >= 1, got {estimation_window_days}"
            )
        before = present[:, :start]
        # the last estimation_window_days of them, counted back from the window
        taken = before & (np.cumsum(before[:, ::-1], axis=1)[:, ::-1] <= estimation_window_days)
        counts = taken.sum(axis=1)
        if np.any(counts < 3):
            i = int(np.argmax(counts < 3))
            raise ComputationError(
                f"asset {assets[i].instrument_id!r}: only {counts[i]} trading days "
                f"available for beta estimation; supply beta explicitly"
            )
        notes = [
            f"asset {asset.instrument_id!r}: beta estimated on {n} days "
            f"(requested {estimation_window_days})"
            for asset, n in zip(assets, counts.tolist())
            if n < estimation_window_days
        ]
        beta = np.empty(len(assets))
        # one fit per sample length: a single call when every asset has full history
        for n in np.unique(counts):
            rows = np.flatnonzero(counts == n)
            cols = np.nonzero(taken[rows])[1].reshape(len(rows), n)
            beta[rows], _ = fit_market_model(
                values[rows[:, None], cols], market.values[cols], risk_free_daily
            )
    if not np.all(np.isfinite(beta)):
        raise InputError("beta must be finite")
    ar = abnormal_returns(values[:, start:stop], market.values[start:stop], beta, risk_free_daily)
    panel = build_panel(ar, [asset.instrument_id for asset in assets])
    return panel, tuple(range(-pre_days, post_days + 1)), notes


def panel_csv(panel: AbnormalReturnPanel, relative_days: Sequence[int]) -> str:
    """Render a panel as ``relative_day,x,aar,caar`` CSV with x on [0, 1]."""
    t = panel.n_days
    if len(relative_days) != t:
        raise InputError("one relative day required per panel column")
    lines = ["relative_day,x,aar,caar"]
    for i, day in enumerate(relative_days):
        x = i / (t - 1) if t > 1 else 0.0
        lines.append(f"{day},{x!r},{float(panel.aar[i])!r},{float(panel.caar[i])!r}")
    return "\n".join(lines) + "\n"
