"""End-to-end pipeline orchestration and the reproduction report.

``run_report`` rebuilds the 2024 NIFTY50 case study from the embedded
reference data (panel, 11-point grids, fractal interpolants at several
scaling factors, box dimensions at 0.3 and 0.5 with deltas against the
reference values) and runs the same pipeline for any other year whose raw
data the caller supplies via a per-year config file.
"""

from __future__ import annotations

import json
from datetime import date as Date
from pathlib import Path

from . import boxdim, fif, fixtures
from .config import load_config
from .csvio import write_xy_csv
from .errors import InputError
from .event_study import (
    InterpolationData, build_panel, compute_abnormal_panel, panel_csv, subsample_to_grid,
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

DEFAULT_REPORT_DEPTH = 6
DEFAULT_SAMPLE_DEPTH = 3


def write_series_outputs(
    outdir: Path,
    series_name: str,
    data: InterpolationData,
    *,
    grid_size: int,
    tol: float,
    sample_depth: int,
    dimension_depth: int,
    k_min: int,
    k_max: int,
    min_points_per_box: int,
) -> dict:
    """Interpolants, plots and dimension reports for one 11-point series.

    Returns the dimension results keyed by scaling factor.
    """
    write_xy_csv(outdir / f"grid_{series_name}.csv", data.x, data.y)

    for tag, label, spec in SCALING_PANELS:
        model = fif.build_fif_model(data, spec)
        sample = fif.generate_attractor_points(model, sample_depth)
        write_xy_csv(outdir / f"fif_{series_name}_{tag}_sample.csv", sample.x, sample.y)
        plot = fif.evaluate_fif_fixed_point(model, grid_size=grid_size, tol=tol)
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
        cloud = boxdim.StreamedCloud(fif.AttractorBlocks(model, dimension_depth))
        estimate = boxdim.estimate_dimension(cloud, k_min, k_max, min_points_per_box)
        tag = f"a{str(alpha).replace('.', '')}"
        payload = boxdim.report_dict(estimate)
        if not 1.0 <= estimate.dimension <= 2.0:
            payload["warnings"].append(
                f"dimension {estimate.dimension:.4f} outside (1, 2) for a curve graph"
            )
        if model.collinear:
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


def run_year_from_config(year: int, config_path: Path, outdir: Path, **series_kwargs) -> dict:
    """Run the full pipeline for one user-supplied year.

    The config file is flat key=value with keys: ``prices`` (comma-separated
    asset price CSVs), ``market`` (market price CSV), ``event_date``
    (YYYY-MM-DD) and optionally ``pre_days``, ``post_days``,
    ``risk_free_daily``, ``beta``, ``estimation_window_days``.
    """
    cfg = load_config(config_path)
    for key in ("prices", "market", "event_date"):
        if key not in cfg:
            raise InputError(f"{config_path}: year {year} config missing key {key!r}")
    base = config_path.parent

    def _price_series(path_text: str) -> ReturnSeries:
        path = (base / path_text).resolve() if not Path(path_text).is_absolute() else Path(path_text)
        if not path.is_file():
            raise InputError(f"price file not found: {path}")
        with open(path, "rb") as handle:
            series = parse_price_csv(handle, instrument_id=path.stem)
        return daily_returns(series)

    assets = [_price_series(p) for p in cfg["prices"].split(",") if p.strip()]
    market = _price_series(cfg["market"])
    panel, relative_days, notes = compute_abnormal_panel(
        assets,
        market,
        event_date=Date.fromisoformat(cfg["event_date"]),
        pre_days=int(cfg.get("pre_days", "15")),
        post_days=int(cfg.get("post_days", "15")),
        risk_free_daily=float(cfg.get("risk_free_daily", "0")),
        beta_override=float(cfg["beta"]) if "beta" in cfg else None,
        estimation_window_days=int(cfg.get("estimation_window_days", "120")),
    )
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "panel.csv").write_text(panel_csv(panel, relative_days), encoding="utf-8")
    if panel.n_days != 31:
        return {
            "status": "partial",
            "notes": notes
            + [f"window has {panel.n_days} days; 11-point grids need exactly 31"],
        }
    dims = {}
    for series_name, values in (("aar", panel.aar), ("caar", panel.caar)):
        data = subsample_to_grid(values)
        dims[series_name] = write_series_outputs(outdir, series_name, data, **series_kwargs)
    return {"status": "ok", "notes": notes, "dimensions": dims}


def run_report(
    outdir: str | Path,
    *,
    dimension_depth: int = DEFAULT_REPORT_DEPTH,
    sample_depth: int = DEFAULT_SAMPLE_DEPTH,
    grid_size: int = fif.DEFAULT_GRID_SIZE,
    tol: float = fif.DEFAULT_TOL,
    k_min: int = boxdim.DEFAULT_K_MIN,
    k_max: int = boxdim.DEFAULT_K_MAX,
    min_points_per_box: int = boxdim.DEFAULT_MIN_POINTS_PER_BOX,
    year_configs: dict[int, Path] | None = None,
    delta_target: float = 0.15,
) -> dict:
    """Produce the reproduction bundle and return the summary dictionary."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    year_configs = year_configs or {}
    series_kwargs = dict(
        grid_size=grid_size,
        tol=tol,
        sample_depth=sample_depth,
        dimension_depth=dimension_depth,
        k_min=k_min,
        k_max=k_max,
        min_points_per_box=min_points_per_box,
    )
    reference = fixtures.reference_dimensions()
    summary: dict = {
        "parameters": {
            "dimension_depth": dimension_depth,
            "sample_depth": sample_depth,
            "grid_size": grid_size,
            "tol": tol,
            "k_min": k_min,
            "k_max": k_max,
            "min_points_per_box": min_points_per_box,
        },
        "years": {},
        "warnings": [],
    }
    delta_rows: list[tuple[int, str, float, float, float]] = []

    # reference year from the embedded tables: the published AAR column is
    # treated as a single-security abnormal-return panel
    ref_year = fixtures.REFERENCE_YEAR
    ref_dir = outdir / str(ref_year)
    ref_dir.mkdir(parents=True, exist_ok=True)
    table = fixtures.nifty50_2024_panel()
    panel = build_panel(table["aar"].reshape(1, -1), ["NIFTY50"])
    (ref_dir / "panel.csv").write_text(
        panel_csv(panel, tuple(int(d) for d in table["relative_day"])), encoding="utf-8"
    )
    year_dims: dict[str, dict] = {}
    for series_name in ("aar", "caar"):
        data = fixtures.nifty50_2024_grid(series_name)
        year_dims[series_name] = write_series_outputs(
            ref_dir, series_name, data, **series_kwargs
        )
    summary["years"][str(ref_year)] = {
        "status": "ok",
        "source": "embedded reference data",
        "dimensions": year_dims,
    }

    for year in fixtures.OTHER_YEARS:
        if year in year_configs:
            year_dir = outdir / str(year)
            result = run_year_from_config(year, year_configs[year], year_dir, **series_kwargs)
            summary["years"][str(year)] = result
        else:
            summary["years"][str(year)] = {"status": "data not supplied"}
    for year, path in year_configs.items():
        if year not in fixtures.OTHER_YEARS and year != ref_year:
            year_dir = outdir / str(year)
            result = run_year_from_config(year, path, year_dir, **series_kwargs)
            summary["years"][str(year)] = result

    # delta table and comparison chart over every populated year
    populated = [
        (int(year), info)
        for year, info in summary["years"].items()
        if info.get("status") == "ok"
    ]
    populated.sort(key=lambda item: item[0])
    for year, info in populated:
        for series_name in ("aar", "caar"):
            for alpha in DIMENSION_ALPHAS:
                computed = info["dimensions"][series_name][alpha]["dimension"]
                ref = reference.get((year, series_name, alpha))
                if ref is None:
                    continue
                delta = computed - ref
                delta_rows.append((year, series_name, alpha, ref, computed))
                if abs(delta) > delta_target:
                    tag = f"a{str(alpha).replace('.', '')}"
                    summary["warnings"].append(
                        f"{year} {series_name} alpha={alpha}: computed {computed:.4f} "
                        f"differs from reference {ref} by {delta:+.4f} "
                        f"(target {delta_target}); see "
                        f"{year}/dimension_{series_name}_{tag}.json and "
                        f"{year}/loglog_{series_name}_{tag}.csv"
                    )

    lines = ["year,series,alpha,reference_value,computed_value,delta"]
    for year, series_name, alpha, ref, computed in delta_rows:
        lines.append(f"{year},{series_name},{alpha!r},{ref!r},{computed!r},{computed - ref!r}")
    (outdir / "dimension_deltas.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    if populated:
        groups = [str(year) for year, _ in populated]
        series = []
        for series_name in ("aar", "caar"):
            for alpha in DIMENSION_ALPHAS:
                series.append(
                    (
                        f"{series_name.upper()} scaling {alpha}",
                        [
                            info["dimensions"][series_name][alpha]["dimension"]
                            for _, info in populated
                        ],
                    )
                )
        chart = grouped_bar_svg(
            groups,
            series,
            title="Box dimension of AAR and CAAR by year and scaling factor",
            y_max=2.0,
        )
        (outdir / "dimension_comparison.svg").write_text(chart, encoding="utf-8")

    (outdir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return summary
