"""End-to-end pipeline orchestration and the reproduction report.

``run_report`` rebuilds the 2024 NIFTY50 case study from the embedded
reference data (panel, 11-point grids, fractal interpolants at several
scaling factors, box dimensions at 0.3 and 0.5 with deltas against the
reference values) and runs the same pipeline for any other year whose raw
data the caller supplies via a per-year config file.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from collections import defaultdict
from dataclasses import asdict, dataclass
from datetime import date as Date
from pathlib import Path

from . import boxdim, config, fif, fixtures
from .csvio import write_xy_csv
from .errors import InputError
from .event_study import (
    AbnormalReturnPanel, InterpolationData, build_panel, compute_abnormal_panel, panel_csv,
    panel_grids,
)
from .market_data import ReturnSeries, daily_returns, parse_price_csv
from .svgplot import grouped_bar_svg, line_plot_svg

# (file tag, human label, scaling spec) for the four panels drawn per series
SCALING_PANELS: tuple[tuple[str, str, object], ...] = (
    ("a0", "scaling 0 (classical interpolation)", 0.0),
    ("a03", "scaling 0.3", 0.3),
    ("a05", "scaling 0.5", 0.5),
    ("mixed", "per-interval scaling", fixtures.MIXED_ALPHA),
)
# the two scaling factors whose box dimensions are compared
DIMENSION_ALPHAS = (0.3, 0.5)

# a computed dimension further than this from its reference value is warned about
DELTA_TARGET = 0.15

# per-year config keys: the event-study options, with ``prices`` for the assets
YEAR_CONFIG_KINDS = {
    "prices": config.paths,
    "market": config.path,
    "event_date": Date.fromisoformat,
    "pre_days": int,
    "post_days": int,
    "risk_free_daily": float,
    "beta": float,
    "estimation_window_days": int,
}


@dataclass(frozen=True)
class Settings:
    """The sampling and counting protocol of one report, recorded in
    ``summary.json`` as ``parameters``."""

    dimension_depth: int = 6  # attractor depth for dimension estimation
    sample_depth: int = 3  # attractor depth for exported samples
    grid_size: int = fif.DEFAULT_GRID_SIZE
    tol: float = fif.DEFAULT_TOL
    k_min: int = boxdim.DEFAULT_K_MIN
    k_max: int = boxdim.DEFAULT_K_MAX
    min_points_per_box: int = boxdim.DEFAULT_MIN_POINTS_PER_BOX


def write_series_outputs(
    outdir: Path, series_name: str, data: InterpolationData, settings: Settings
) -> dict:
    """Interpolants, plots and dimension reports for one 11-point series.

    ``settings`` gives the attractor depths, the fixed-point grid and
    tolerance, and the box-counting levels and sparsity guard. Returns the
    dimension results keyed by scaling factor.
    """
    write_xy_csv(outdir / f"grid_{series_name}.csv", data.x, data.y)

    for tag, label, spec in SCALING_PANELS:
        model = fif.build_fif_model(data, spec)
        sample = fif.AttractorBlocks(model, settings.sample_depth)
        write_xy_csv(outdir / f"fif_{series_name}_{tag}_sample.csv", sample)
        plot = fif.evaluate_fif_fixed_point(model, grid_size=settings.grid_size, tol=settings.tol)
        svg = line_plot_svg(
            plot.x,
            plot.y,
            title=f"{series_name.upper()} interpolant, {label}",
            xlabel="normalized event time",
            ylabel=series_name.upper(),
        )
        (outdir / f"fif_{series_name}_{tag}.svg").write_text(svg, encoding="utf-8")

    results: dict[float, dict] = {}
    for alpha in DIMENSION_ALPHAS:
        model = fif.build_fif_model(data, alpha)
        cloud = boxdim.StreamedCloud(fif.AttractorBlocks(model, settings.dimension_depth))
        estimate = boxdim.estimate_dimension(
            cloud, settings.k_min, settings.k_max, settings.min_points_per_box
        )
        tag = f"a{str(alpha).replace('.', '')}"
        payload = boxdim.report_dict(estimate)
        if not 1.0 <= estimate.dimension <= 2.0:
            payload["warnings"].append(
                f"dimension {estimate.dimension:.4f} outside (1, 2) for a curve graph"
            )
        if fif.data_is_collinear(data):
            payload["warnings"].append(
                "interpolation data are collinear: dimension analysis assumes "
                "a non-degenerate graph"
            )
        (outdir / f"dimension_{series_name}_{tag}.json").write_text(
            boxdim.report_json(payload), encoding="utf-8"
        )
        (outdir / f"loglog_{series_name}_{tag}.csv").write_text(
            boxdim.loglog_csv(estimate), encoding="utf-8"
        )
        results[alpha] = payload
    return results


def read_year_config(year: int, config_path: Path) -> tuple[list[Path], Path, dict]:
    """Asset price paths, market price path and event-study keywords of one year.

    The config file is flat key=value with keys: ``prices`` (comma-separated
    asset price CSVs), ``market`` (market price CSV), ``event_date``
    (YYYY-MM-DD) and optionally ``pre_days``, ``post_days``,
    ``risk_free_daily``, ``beta``, ``estimation_window_days``. Relative
    price paths are taken from the config file's directory.
    """
    cfg = config.load_config(config_path, YEAR_CONFIG_KINDS)
    for key in ("prices", "market", "event_date"):
        if not cfg.get(key):
            raise InputError(f"{config_path}: year {year} config missing key {key!r}")
    assets = [Path(p) for p in cfg.pop("prices")]
    market = Path(cfg.pop("market"))
    for price_path in (*assets, market):
        if not price_path.is_file():
            raise InputError(f"price file not found: {price_path}")
    if "beta" in cfg:
        cfg["beta_override"] = cfg.pop("beta")
    return assets, market, cfg


def _write_year(
    outdir: Path,
    panel: AbnormalReturnPanel,
    relative_days: tuple[int, ...],
    grids: dict[str, InterpolationData],
    settings: Settings,
) -> dict:
    """``panel.csv``, then each grid's series outputs; their dimensions by series."""
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "panel.csv").write_text(panel_csv(panel, relative_days), encoding="utf-8")
    return {name: write_series_outputs(outdir, name, data, settings)
            for name, data in grids.items()}


def run_year_from_config(
    asset_paths: list[Path],
    market_path: Path,
    panel_kwargs: dict,
    outdir: Path,
    settings: Settings,
) -> dict:
    """The whole pipeline for a ``read_year_config`` year; its summary entry."""

    def _price_series(path: Path) -> ReturnSeries:
        with open(path, "rb") as handle:
            series = parse_price_csv(handle, instrument_id=path.stem)
        return daily_returns(series)

    assets = [_price_series(p) for p in asset_paths]
    market = _price_series(market_path)
    panel, relative_days, notes = compute_abnormal_panel(assets, market, **panel_kwargs)
    grids, skipped = panel_grids(panel)
    dims = _write_year(outdir, panel, relative_days, grids, settings)
    if skipped:
        return {"status": "partial", "notes": notes + skipped}
    return {"status": "ok", "notes": notes, "dimensions": dims}


def run_report(
    outdir: str | Path,
    settings: Settings = Settings(),
    year_configs: dict[int, Path] | None = None,
) -> dict:
    """Produce the reproduction bundle and return the summary dictionary.

    ``settings`` is the sampling and counting protocol of every year, and
    ``summary.json`` records it as ``parameters``. ``year_configs`` maps each
    year other than the embedded reference year to its ``read_year_config``
    file. The bundle is written to a temporary directory beside ``outdir``
    and moved in only once ``summary.json`` is written, so a refused run
    leaves no bundle file behind. Files already in ``outdir`` that the
    bundle does not write are left alone.
    """
    # every year's grids are the same uniform 11 points, so the library's own
    # checks on the reference model refuse a depth, level, grid or tolerance
    # setting before any work; at alpha 0 the fixed point is the germ, solved
    # in no round
    model = fif.build_fif_model(fixtures.nifty50_2024_grid("aar"), 0.0)
    for depth in (settings.sample_depth, settings.dimension_depth):
        fif.AttractorBlocks(model, depth)
    boxdim.check_levels(settings.k_min, settings.k_max, settings.min_points_per_box)
    fif.evaluate_fif_fixed_point(model, grid_size=settings.grid_size, tol=settings.tol)
    year_configs = year_configs or {}
    ref_year = fixtures.REFERENCE_YEAR
    if ref_year in year_configs:
        raise InputError(
            f"year {ref_year} comes from the embedded reference data and takes no year config"
        )
    years = {year: read_year_config(year, path) for year, path in sorted(year_configs.items())}
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{outdir.name}-", dir=outdir.parent))
    try:
        summary = _write_bundle(staging, years, settings)
        for staged in sorted(p for p in staging.rglob("*") if p.is_file()):
            target = outdir / staged.relative_to(staging)
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(staged, target)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return summary


def _write_bundle(outdir: Path, years: dict[int, tuple], settings: Settings) -> dict:
    """Every bundle file under ``outdir``, ``summary.json`` last; returns the summary."""
    ref_year = fixtures.REFERENCE_YEAR
    reference = fixtures.reference_dimensions()
    summary: dict = {
        "parameters": asdict(settings),
        "years": {str(year): {"status": "data not supplied"} for year in fixtures.OTHER_YEARS},
        "warnings": [],
    }

    # reference year from the embedded tables: the published AAR column is
    # treated as a single-security abnormal-return panel
    table = fixtures.nifty50_2024_panel()
    panel = build_panel(table["aar"].reshape(1, -1), ["NIFTY50"])
    relative_days = tuple(int(d) for d in table["relative_day"])
    grids = {name: fixtures.nifty50_2024_grid(name) for name in ("aar", "caar")}
    dims = _write_year(outdir / str(ref_year), panel, relative_days, grids, settings)
    outcomes = {ref_year: {"status": "ok", "source": "embedded reference data", "dimensions": dims}}
    for year, year_inputs in years.items():
        outcomes[year] = run_year_from_config(*year_inputs, outdir / str(year), settings)
    populated = {}
    for year, info in outcomes.items():
        summary["years"][str(year)] = info
        if info["status"] == "ok":
            populated[year] = info["dimensions"]

    # delta table and comparison chart over every populated year
    lines = ["year,series,alpha,reference_value,computed_value,delta"]
    chart_series: defaultdict[str, list[float]] = defaultdict(list)
    for year, dims in sorted(populated.items()):
        for series_name in ("aar", "caar"):
            for alpha in DIMENSION_ALPHAS:
                computed = dims[series_name][alpha]["dimension"]
                chart_series[f"{series_name.upper()} scaling {alpha}"].append(computed)
                ref = reference.get((year, series_name, alpha))
                if ref is None:
                    continue
                delta = computed - ref
                lines.append(f"{year},{series_name},{alpha!r},{ref!r},{computed!r},{delta!r}")
                if abs(delta) > DELTA_TARGET:
                    tag = f"a{str(alpha).replace('.', '')}"
                    summary["warnings"].append(
                        f"{year} {series_name} alpha={alpha}: computed {computed:.4f} "
                        f"differs from reference {ref} by {delta:+.4f} "
                        f"(target {DELTA_TARGET}); see "
                        f"{year}/dimension_{series_name}_{tag}.json and "
                        f"{year}/loglog_{series_name}_{tag}.csv"
                    )
    (outdir / "dimension_deltas.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    chart = grouped_bar_svg(
        [str(year) for year in sorted(populated)],
        list(chart_series.items()),
        title="Box dimension of AAR and CAAR by year and scaling factor",
        y_max=2.0,
    )
    (outdir / "dimension_comparison.svg").write_text(chart, encoding="utf-8")

    (outdir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return summary
