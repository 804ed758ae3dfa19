"""Inputs, command lines and output checks of the benchmark workloads.

Each workload writes its inputs under ``<work>/in``, names the
``fractalmark`` command lines that form the timed pass (outputs go to
``<work>/out``), and checks the outputs afterwards against references the
benchmark computes itself. ``check`` returns a list of failures (empty when
the outputs are right), the counts observable from inputs and outputs, and
informational fields.
"""

from __future__ import annotations

import hashlib
import json
from datetime import date as Date, timedelta
from pathlib import Path

import numpy as np

from fractalmark import (
    GraphSample, build_fif_model, estimate_dimension, fixtures, generate_attractor_points,
    normalize_to_unit_square, verify_interpolation,
)

# --- report-2024 -------------------------------------------------------------

SERIES = ("aar", "caar")
SCALING_TAGS = ("a0", "a03", "a05", "mixed")
DIMENSION_TAGS = ("a03", "a05")


def _expected_year_files(year: str) -> list[str]:
    files = [f"{year}/panel.csv"] + [f"{year}/grid_{s}.csv" for s in SERIES]
    for s in SERIES:
        for tag in SCALING_TAGS:
            files += [f"{year}/fif_{s}_{tag}_sample.csv", f"{year}/fif_{s}_{tag}.svg"]
        for tag in DIMENSION_TAGS:
            files += [f"{year}/dimension_{s}_{tag}.json", f"{year}/loglog_{s}_{tag}.csv"]
    return files


def bundle_digest(out: Path) -> str:
    """sha256 over the sorted relative paths and bytes of every bundle file."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _xy_rows(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for line in handle if line.strip()) - 1


def _output_counts(out: Path) -> dict[str, int]:
    """Counts the outputs show: x,y rows written and finest-level box counts."""
    rows = 0
    for path in out.rglob("*.csv"):
        with open(path, "rb") as handle:
            if handle.readline().strip() == b"x,y":
                rows += _xy_rows(path)
    cells = 0
    for path in out.rglob("dim*.json"):
        cells += json.loads(path.read_text(encoding="utf-8"))["levels"][-1]["count"]
    return {"csvio.rows_written": rows, "boxdim.cells_kmax": cells}


def _check_dimensions(summary: dict, year: str, failures: list[str]) -> None:
    dims = summary["years"][year]["dimensions"]
    for s in SERIES:
        values = {alpha: dims[s][alpha]["dimension"] for alpha in ("0.3", "0.5")}
        for alpha, value in values.items():
            if not 1.0 <= value <= 2.0:
                failures.append(f"{year} {s} alpha={alpha}: dimension {value} outside [1, 2]")
        if not values["0.5"] > values["0.3"]:
            failures.append(f"{year} {s}: dim(0.5) {values['0.5']} <= dim(0.3) {values['0.3']}")


class Report2024:
    """``report`` with default settings on the embedded 2024 data."""

    name = "report-2024"

    def setup(self, seed: int, work: Path) -> dict:
        self.out = work / "out"
        return {"source": "embedded 2024 NIFTY50 tables", "seed_used": False}

    def argvs(self) -> list[list[str]]:
        return [["report", "--outdir", str(self.out)]]

    def check(self) -> tuple[list[str], dict, dict]:
        failures = [
            f"missing {name}"
            for name in _expected_year_files("2024")
            + ["dimension_deltas.csv", "dimension_comparison.svg", "summary.json"]
            if not (self.out / name).is_file()
        ]
        if failures:
            return failures, {}, {}
        summary = json.loads((self.out / "summary.json").read_text(encoding="utf-8"))
        _check_dimensions(summary, "2024", failures)
        return failures, _output_counts(self.out), {"bundle_sha256": bundle_digest(self.out)}


# --- panel -------------------------------------------------------------------

PANEL_ASSETS = 500
PANEL_DAYS = 400
PANEL_START = Date(2022, 6, 1)
EVENT_INDEX = 300  # trading day of the event: leaves 300 days before, 99 after
PRE_DAYS = POST_DAYS = 15
ESTIMATION_DAYS = 120


def _trading_days(start: Date, count: int) -> list[Date]:
    days, day = [], start
    while len(days) < count:
        if day.weekday() < 5:
            days.append(day)
        day += timedelta(days=1)
    return days


def _bars(rng: np.random.Generator, returns: np.ndarray, level: float):
    """Open and close prices as 2-decimal text; each day opens near the last close."""
    gaps = rng.normal(0.0, 0.002, size=len(returns))
    opens, closes = [], []
    for gap, ret in zip(gaps, returns):
        open_text = f"{level * (1.0 + gap):.2f}"
        close_text = f"{float(open_text) * (1.0 + ret):.2f}"
        opens.append(open_text)
        closes.append(close_text)
        level = float(close_text)
    return opens, closes


def _write_prices(path: Path, dates: list[str], opens: list[str], closes: list[str]) -> None:
    lines = ["date,open,close"] + [f"{d},{o},{c}" for d, o, c in zip(dates, opens, closes)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _intraday_returns(opens: list[str], closes: list[str]) -> np.ndarray:
    o = np.array([float(v) for v in opens])
    c = np.array([float(v) for v in closes])
    return (c - o) / o


def market_model_reference(asset_returns: np.ndarray, market_returns: np.ndarray):
    """AAR and CAAR of the market model with r_f = 0, all on one calendar.

    Beta is the OLS slope over the ``ESTIMATION_DAYS`` trading days before
    the window opens; AR = r_asset - beta * r_market inside the window.
    """
    window = slice(EVENT_INDEX - PRE_DAYS, EVENT_INDEX + POST_DAYS + 1)
    est = slice(EVENT_INDEX - PRE_DAYS - ESTIMATION_DAYS, EVENT_INDEX - PRE_DAYS)
    x = market_returns[est] - market_returns[est].mean()
    y = asset_returns[:, est] - asset_returns[:, est].mean(axis=1, keepdims=True)
    beta = (y * x).sum(axis=1) / (x * x).sum()
    ar = asset_returns[:, window] - beta[:, None] * market_returns[window]
    aar = ar.mean(axis=0)
    return aar, np.cumsum(aar)


class Panel:
    """Seeded synthetic index panel through ``report --year-config 2023=...``.

    Every asset trades on the same calendar as the market, as constituents
    of one index do.
    """

    name = "panel"

    def setup(self, seed: int, work: Path) -> dict:
        rng = np.random.default_rng(seed)
        inputs = work / "in"
        inputs.mkdir(parents=True)
        self.out = work / "out"
        days = _trading_days(PANEL_START, PANEL_DAYS)
        dates = [d.isoformat() for d in days]

        market = rng.normal(0.0003, 0.009, size=PANEL_DAYS)
        opens, closes = _bars(rng, market, 18000.0)
        _write_prices(inputs / "market.csv", dates, opens, closes)
        self.market_returns = _intraday_returns(opens, closes)

        betas = rng.uniform(0.5, 1.5, size=PANEL_ASSETS)
        alphas = rng.normal(0.0, 0.0002, size=PANEL_ASSETS)
        levels = rng.uniform(50.0, 3000.0, size=PANEL_ASSETS)
        asset_returns, names = [], []
        for i in range(PANEL_ASSETS):
            ret = alphas[i] + betas[i] * market + rng.normal(0.0, 0.015, size=PANEL_DAYS)
            opens, closes = _bars(rng, ret, levels[i])
            names.append(f"asset{i:03d}.csv")
            _write_prices(inputs / names[-1], dates, opens, closes)
            asset_returns.append(_intraday_returns(opens, closes))
        self.asset_returns = np.array(asset_returns)

        self.config = inputs / "2023.cfg"
        self.config.write_text(
            f"prices={','.join(names)}\nmarket=market.csv\n"
            f"event_date={dates[EVENT_INDEX]}\n",
            encoding="utf-8",
        )
        self.rows = (PANEL_ASSETS + 1) * PANEL_DAYS
        return {
            "seed": seed,
            "assets": PANEL_ASSETS,
            "market_files": 1,
            "trading_days": PANEL_DAYS,
            "price_rows": self.rows,
            "input_bytes": sum(p.stat().st_size for p in inputs.iterdir()),
            "event_date": dates[EVENT_INDEX],
        }

    def argvs(self) -> list[list[str]]:
        return [
            ["report", "--outdir", str(self.out), "--year-config", f"2023={self.config}",
             "--depth", "4"]
        ]

    def check(self) -> tuple[list[str], dict, dict]:
        failures: list[str] = []
        panel_path = self.out / "2023" / "panel.csv"
        summary_path = self.out / "summary.json"
        if not panel_path.is_file() or not summary_path.is_file():
            return [f"missing {panel_path} or {summary_path}"], {}, {}
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        if summary["years"]["2023"]["status"] != "ok":
            return [f"2023 status {summary['years']['2023']['status']!r}"], {}, {}
        lines = panel_path.read_text(encoding="utf-8").splitlines()[1:]
        got = np.array([[float(v) for v in line.split(",")[2:4]] for line in lines])
        aar, caar = market_model_reference(self.asset_returns, self.market_returns)
        for column, (label, want) in enumerate((("aar", aar), ("caar", caar))):
            if got.shape[0] != len(want):
                failures.append(f"panel.csv has {got.shape[0]} rows, expected {len(want)}")
                break
            error = float(np.max(np.abs(got[:, column] - want)))
            if error > 1e-12:
                failures.append(f"{label} differs from the market-model reference by {error:.3e}")
        counts = _output_counts(self.out)
        counts["market_data.rows"] = self.rows
        return failures, counts, {}


# --- fif-export --------------------------------------------------------------

EXPORT_ALPHA = 0.5
EXPORT_DEPTH = 5


def _read_xy(path: Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip()
    if header != "x,y":
        raise ValueError(f"{path}: header {header!r}")
    # loadtxt parses each field with correct rounding, like float()
    xy = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return xy[:, 0], xy[:, 1]


class FifExport:
    """``fif`` at depth 5 on the 2024 CAAR grid, then ``boxdim`` on its CSV."""

    name = "fif-export"

    def setup(self, seed: int, work: Path) -> dict:
        inputs = work / "in"
        inputs.mkdir(parents=True)
        self.out = work / "out"
        self.data = fixtures.nifty50_2024_grid("caar")
        self.grid = inputs / "grid_caar.csv"
        lines = ["x,y"] + [f"{float(x)!r},{float(y)!r}" for x, y in zip(self.data.x, self.data.y)]
        self.grid.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.sample = self.out / "caar_a05_sample.csv"
        self.report = self.out / "dim.json"
        return {"source": "embedded 2024 CAAR grid", "seed_used": False,
                "alpha": EXPORT_ALPHA, "depth": EXPORT_DEPTH}

    def argvs(self) -> list[list[str]]:
        return [
            ["fif", "--data", str(self.grid), "--alpha", str(EXPORT_ALPHA),
             "--depth", str(EXPORT_DEPTH), "--out", str(self.out), "--prefix", "caar_a05"],
            ["boxdim", "--sample", str(self.sample), "--out", str(self.report)],
        ]

    def check(self) -> tuple[list[str], dict, dict]:
        if not self.sample.is_file() or not self.report.is_file():
            return [f"missing {self.sample} or {self.report}"], {}, {}
        failures: list[str] = []
        x, y = _read_xy(self.sample)
        want = generate_attractor_points(build_fif_model(self.data, EXPORT_ALPHA), EXPORT_DEPTH)
        if not (np.array_equal(x, want.x) and np.array_equal(y, want.y)):
            failures.append("sample CSV does not read back bit-for-bit as the attractor points")
        residual = verify_interpolation(GraphSample(x, y, EXPORT_DEPTH, 0.0), self.data)
        if not residual < 1e-7:
            failures.append(f"nodal residual {residual:.3e} >= 1e-7")
        reported = json.loads(self.report.read_text(encoding="utf-8"))["dimension"]
        expected = estimate_dimension(normalize_to_unit_square(want.x, want.y)).dimension
        if reported != expected:
            failures.append(f"dimension {reported!r} != in-memory estimate {expected!r}")
        counts = _output_counts(self.out)
        counts["csvio.rows_read"] = len(self.data.x) + len(x)
        return failures, counts, {}


WORKLOADS = {w.name: w for w in (Report2024, Panel, FifExport)}
