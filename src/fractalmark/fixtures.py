"""Loaders for the reference data shipped with the package.

The 2024 NIFTY50 case-study tables, the published piecewise-linear
coefficients derived from them, and the reference box dimensions live as
CSV files under ``fractalmark/data`` so the baseline reproduction runs
fully offline.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .csvio import read_records
from .errors import InputError
from .event_study import InterpolationData

# Per-interval scaling vector used for the mixed-scaling panels.
MIXED_ALPHA = (0.1, 0.4, 0.5, 0.6, 0.4, 0.3, 0.4, 0.5, 0.3, 0.1)

REFERENCE_YEAR = 2024
OTHER_YEARS = (2023, 2022, 2020)


def _rows(name: str) -> list[dict[str, str]]:
    path = resources.files("fractalmark").joinpath("data", name)
    with path.open("r", encoding="utf-8", newline="") as handle:
        header, records = read_records(handle)
        return [dict(zip(header, row)) for _, row in records]


def nifty50_2024_panel() -> dict[str, np.ndarray]:
    """The 31-day 2024 window: relative_day, published x, aar, caar."""
    rows = _rows("nifty50_2024_panel.csv")
    return {
        "relative_day": np.array([int(r["relative_day"]) for r in rows]),
        "x": np.array([float(r["x"]) for r in rows]),
        "aar": np.array([float(r["aar"]) for r in rows]),
        "caar": np.array([float(r["caar"]) for r in rows]),
    }


def nifty50_2024_grid(series: str) -> InterpolationData:
    """The published 11-point grid for ``series`` in {"aar", "caar"}."""
    if series not in ("aar", "caar"):
        raise InputError(f"series must be 'aar' or 'caar', got {series!r}")
    rows = _rows(f"nifty50_2024_grid_{series}.csv")
    x = np.array([float(r["x"]) for r in rows])
    y = np.array([float(r["y"]) for r in rows])
    return InterpolationData(x, y)


def reference_germ_coefficients(series: str) -> tuple[np.ndarray, np.ndarray]:
    """Published (slopes, intercepts) of the piecewise-linear interpolant."""
    rows = [r for r in _rows("reference_germ_coeffs.csv") if r["series"] == series]
    if not rows:
        raise InputError(f"no reference coefficients for series {series!r}")
    rows.sort(key=lambda r: int(r["segment"]))
    slopes = np.array([float(r["slope"]) for r in rows])
    intercepts = np.array([float(r["intercept"]) for r in rows])
    return slopes, intercepts


def reference_dimensions() -> dict[tuple[int, str, float], float]:
    """Reference box dimensions keyed by (year, series, alpha)."""
    out = {}
    for r in _rows("reference_dimensions.csv"):
        out[(int(r["year"]), r["series"], float(r["alpha"]))] = float(r["dimension"])
    return out
