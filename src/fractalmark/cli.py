"""Command-line interface: ingest, event-study, fif, boxdim, report.

Exit status contract: 0 on success, 1 on a computation failure, 2 on a
usage or input error. Every flag can also be supplied through a flat
``key=value`` file via ``--config``; explicit flags win.
"""

from __future__ import annotations

import argparse
import sys
from datetime import date as Date
from pathlib import Path

import numpy as np

from . import __version__, boxdim, fif
from .config import load_config, resolve
from .csvio import read_xy_csv, write_xy_csv
from .errors import ComputationError, InputError
from .event_study import InterpolationData, build_panel, panel_csv, subsample_to_grid
from .market_data import (
    daily_returns,
    extra_columns,
    parse_price_csv,
    parse_returns_csv,
    serialize_returns_csv,
)
from .report import DEFAULT_REPORT_DEPTH, DEFAULT_SAMPLE_DEPTH, compute_abnormal_panel, run_report
from .svgplot import line_plot_svg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractalmark",
        description=(
            "Event-study abnormal returns on daily index data, fractal "
            "interpolation of the resulting series, and box-counting "
            "dimension analysis."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="parse a price CSV and write daily returns")
    p_ingest.add_argument("--input", help="price CSV with date,open,close columns")
    p_ingest.add_argument("--instrument", help="instrument label (default: input file stem)")
    p_ingest.add_argument("--out", help="output directory (default: .)")
    p_ingest.add_argument("--config", help="flat key=value config file")

    p_event = sub.add_parser(
        "event-study", help="abnormal returns, AAR and CAAR around an event date"
    )
    p_event.add_argument(
        "--asset", action="append", help="asset returns CSV (repeat for several securities)"
    )
    p_event.add_argument("--market", help="market returns CSV")
    p_event.add_argument("--event-date", help="event date, YYYY-MM-DD")
    p_event.add_argument("--pre-days", type=int, help="trading days before the event (default 15)")
    p_event.add_argument("--post-days", type=int, help="trading days after the event (default 15)")
    p_event.add_argument("--risk-free-daily", type=float, help="daily risk-free rate (default 0)")
    p_event.add_argument("--beta", type=float, help="skip estimation and use this beta")
    p_event.add_argument(
        "--estimation-window-days", type=int, help="beta estimation window (default 120)"
    )
    p_event.add_argument(
        "--ar-csv",
        help="bypass the market model: CSV of precomputed abnormal returns "
        "(columns: relative_day, then one column per security)",
    )
    p_event.add_argument("--out", help="output directory (default: .)")
    p_event.add_argument("--config", help="flat key=value config file")

    p_fif = sub.add_parser("fif", help="fractal interpolant sample and plot for one data set")
    p_fif.add_argument("--data", help="interpolation data CSV with columns x,y")
    p_fif.add_argument(
        "--alpha", help="vertical scaling: scalar or comma-separated per-interval list"
    )
    p_fif.add_argument("--depth", type=int, help="attractor refinement depth (default 4)")
    p_fif.add_argument("--grid-size", type=int, help="fixed-point grid size (default 6401)")
    p_fif.add_argument("--tol", type=float, help="fixed-point sup-norm tolerance (default 1e-9)")
    p_fif.add_argument("--prefix", help="output file prefix (default: fif)")
    p_fif.add_argument("--out", help="output directory (default: .)")
    p_fif.add_argument("--config", help="flat key=value config file")

    p_box = sub.add_parser("boxdim", help="box-counting dimension of a point-cloud CSV")
    p_box.add_argument("--sample", help="point cloud CSV with columns x,y")
    p_box.add_argument("--k-min", type=int, help="coarsest dyadic level (default 2)")
    p_box.add_argument("--k-max", type=int, help="finest dyadic level (default 8)")
    p_box.add_argument(
        "--min-points-per-box", type=int, help="sparsity guard threshold (default 25)"
    )
    p_box.add_argument(
        "--no-normalize",
        action="store_true",
        default=None,
        help="count on raw coordinates instead of rescaling to the unit square",
    )
    p_box.add_argument("--out", help="write the JSON report here (default: stdout)")
    p_box.add_argument("--loglog", help="optionally write the log-log pairs CSV here")
    p_box.add_argument("--config", help="flat key=value config file")

    p_rep = sub.add_parser("report", help="full reproduction bundle for the case study")
    p_rep.add_argument("--outdir", help="bundle directory (default: report_out)")
    p_rep.add_argument(
        "--depth", type=int, help="attractor depth for dimension estimation (default 6)"
    )
    p_rep.add_argument(
        "--sample-depth", type=int, help="attractor depth for exported samples (default 3)"
    )
    p_rep.add_argument("--grid-size", type=int, help="fixed-point grid size (default 6401)")
    p_rep.add_argument("--tol", type=float, help="fixed-point tolerance (default 1e-9)")
    p_rep.add_argument("--k-min", type=int, help="coarsest counting level (default 2)")
    p_rep.add_argument("--k-max", type=int, help="finest counting level (default 8)")
    p_rep.add_argument("--min-points-per-box", type=int, help="sparsity guard (default 25)")
    p_rep.add_argument(
        "--year-config",
        action="append",
        metavar="YEAR=PATH",
        help="per-year data config (repeatable), e.g. 2023=data/2023.cfg",
    )
    p_rep.add_argument("--config", help="flat key=value config file")
    return parser


def _config_of(args: argparse.Namespace) -> dict[str, str]:
    return load_config(args.config) if getattr(args, "config", None) else {}


def _require_file(path_text: str, what: str) -> Path:
    path = Path(path_text)
    if not path.is_file():
        raise InputError(f"{what} not found: {path}")
    return path


def _outdir(args: argparse.Namespace, cfg: dict[str, str]) -> Path:
    out = Path(resolve(args.out, cfg, "out", ".", str))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_ingest(args: argparse.Namespace) -> int:
    cfg = _config_of(args)
    input_text = resolve(args.input, cfg, "input", None, str)
    if not input_text:
        raise InputError("ingest requires --input (or config key 'input')")
    path = _require_file(input_text, "price CSV")
    instrument = resolve(args.instrument, cfg, "instrument", path.stem, str)
    out = _outdir(args, cfg)
    raw = path.read_bytes()
    ignored = extra_columns(raw)
    if ignored:
        print(f"warning: ignoring extra column(s): {', '.join(ignored)}", file=sys.stderr)
    series = parse_price_csv(raw, instrument_id=instrument)
    returns = daily_returns(series)
    target = out / f"{instrument}_returns.csv"
    target.write_text(serialize_returns_csv(returns), encoding="utf-8")
    print(f"wrote {target} ({len(returns)} rows)")
    return 0


def _load_returns(path_text: str, what: str):
    path = _require_file(path_text, what)
    return parse_returns_csv(path.read_bytes(), instrument_id=path.stem)


def _read_ar_csv(path: Path) -> tuple[np.ndarray, tuple[int, ...], list[str]]:
    import csv as _csv

    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(_csv.reader(handle))
    if not rows:
        raise InputError(f"{path}: empty CSV")
    header = [h.strip() for h in rows[0]]
    if not header or header[0] != "relative_day" or len(header) < 2:
        raise InputError(f"{path}: expected header 'relative_day,<security>[,...]'")
    labels = header[1:]
    days: list[int] = []
    values: list[list[float]] = []
    for row_no, row in enumerate(rows[1:], start=2):
        if not row or all(not f.strip() for f in row):
            continue
        if len(row) != len(header):
            raise InputError(
                f"{path}: row {row_no}: expected {len(header)} fields, got {len(row)}"
            )
        try:
            day = int(row[0])
            values.append([float(f) for f in row[1:]])
        except ValueError:
            raise InputError(f"{path}: row {row_no}: malformed abnormal-return row") from None
        if days and day != days[-1] + 1:
            raise InputError(
                f"{path}: row {row_no}: relative_day {day} does not follow {days[-1]}; "
                "days must increase by 1"
            )
        days.append(day)
    if not values:
        raise InputError(f"{path}: no abnormal-return rows")
    matrix = np.asarray(values, dtype=float).T
    return matrix, tuple(days), labels


def cmd_event_study(args: argparse.Namespace) -> int:
    cfg = _config_of(args)
    out = _outdir(args, cfg)
    ar_csv = resolve(args.ar_csv, cfg, "ar_csv", None, str)
    if ar_csv:
        matrix, days, labels = _read_ar_csv(_require_file(ar_csv, "abnormal-return CSV"))
        panel = build_panel(matrix, labels)
        relative_days = days
        notes: list[str] = []
    else:
        asset_paths = args.asset or (
            cfg["asset"].split(",") if "asset" in cfg else None
        )
        market_path = resolve(args.market, cfg, "market", None, str)
        event_text = resolve(args.event_date, cfg, "event_date", None, str)
        if not asset_paths or not market_path or not event_text:
            raise InputError(
                "event-study requires --asset, --market and --event-date "
                "(or the matching config keys), unless --ar-csv is given"
            )
        try:
            event_date = Date.fromisoformat(event_text)
        except ValueError:
            raise InputError(f"unparseable event date {event_text!r}") from None
        assets = [_load_returns(p, "asset returns CSV") for p in asset_paths]
        market = _load_returns(market_path, "market returns CSV")
        panel, relative_days, notes = compute_abnormal_panel(
            assets,
            market,
            event_date,
            pre_days=resolve(args.pre_days, cfg, "pre_days", 15, int),
            post_days=resolve(args.post_days, cfg, "post_days", 15, int),
            risk_free_daily=resolve(args.risk_free_daily, cfg, "risk_free_daily", 0.0, float),
            beta_override=resolve(args.beta, cfg, "beta", None, float),
            estimation_window_days=resolve(
                args.estimation_window_days, cfg, "estimation_window_days", 120, int
            ),
        )
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    (out / "panel.csv").write_text(panel_csv(panel, relative_days), encoding="utf-8")
    print(f"wrote {out / 'panel.csv'} ({panel.n_days} days, {panel.n_securities} securities)")
    if panel.n_days == 31:
        for name, values in (("aar", panel.aar), ("caar", panel.caar)):
            data = subsample_to_grid(values)
            write_xy_csv(out / f"grid_{name}.csv", data.x, data.y)
            print(f"wrote {out / f'grid_{name}.csv'}")
    else:
        print(
            f"note: window has {panel.n_days} days; 11-point grids need exactly 31, skipped",
            file=sys.stderr,
        )
    return 0


def cmd_fif(args: argparse.Namespace) -> int:
    cfg = _config_of(args)
    data_text = resolve(args.data, cfg, "data", None, str)
    alpha_text = resolve(args.alpha, cfg, "alpha", None, str)
    if not data_text or alpha_text is None:
        raise InputError("fif requires --data and --alpha (or config keys 'data', 'alpha')")
    x, y = read_xy_csv(_require_file(data_text, "interpolation data CSV"))
    data = InterpolationData(x, y)
    alpha = fif.ScalingVector.from_spec(alpha_text, data.intervals)
    depth = resolve(args.depth, cfg, "depth", 4, int)
    grid_size = resolve(args.grid_size, cfg, "grid_size", fif.DEFAULT_GRID_SIZE, int)
    tol = resolve(args.tol, cfg, "tol", fif.DEFAULT_TOL, float)
    prefix = resolve(args.prefix, cfg, "prefix", "fif", str)
    out = _outdir(args, cfg)

    model = fif.build_fif_model(data, alpha)
    sample = fif.generate_attractor_points(model, depth)
    sample_path = out / f"{prefix}_sample.csv"
    write_xy_csv(sample_path, sample.x, sample.y)
    print(f"wrote {sample_path} ({len(sample)} points)")

    plot = fif.evaluate_fif_fixed_point(model, grid_size=grid_size, tol=tol)
    if not plot.converged:
        print(
            f"note: fixed-point iteration hit the cap; error bound "
            f"{plot.max_error_bound:.3e}",
            file=sys.stderr,
        )
    alpha_label = ",".join(f"{a:g}" for a in alpha.alpha)
    if len(set(alpha.alpha)) == 1:
        alpha_label = f"{alpha.alpha[0]:g}"
    svg = line_plot_svg(
        plot.x,
        plot.y,
        title=f"Fractal interpolant, scaling {alpha_label}",
        xlabel="x",
        ylabel="value",
    )
    plot_path = out / f"{prefix}_plot.svg"
    plot_path.write_text(svg, encoding="utf-8")
    print(f"wrote {plot_path}")
    return 0


def cmd_boxdim(args: argparse.Namespace) -> int:
    cfg = _config_of(args)
    sample_text = resolve(args.sample, cfg, "sample", None, str)
    if not sample_text:
        raise InputError("boxdim requires --sample (or config key 'sample')")
    x, y = read_xy_csv(_require_file(sample_text, "point cloud CSV"))
    normalize = not resolve(args.no_normalize, cfg, "no_normalize", False, lambda s: s == "true")
    if normalize:
        cloud = boxdim.normalize_to_unit_square(x, y)
    else:
        if x.min() < 0 or x.max() > 1 or y.min() < 0 or y.max() > 1:
            raise InputError("--no-normalize requires coordinates already within [0, 1]")
        cloud = boxdim.NormalizedCloud(
            x, y, (float(x.min()), float(x.max()), float(y.min()), float(y.max()))
        )
    estimate = boxdim.estimate_dimension(
        cloud,
        k_min=resolve(args.k_min, cfg, "k_min", boxdim.DEFAULT_K_MIN, int),
        k_max=resolve(args.k_max, cfg, "k_max", boxdim.DEFAULT_K_MAX, int),
        min_points_per_box=resolve(
            args.min_points_per_box, cfg, "min_points_per_box",
            boxdim.DEFAULT_MIN_POINTS_PER_BOX, int,
        ),
    )
    text = boxdim.report_json(boxdim.report_dict(estimate, normalized=normalize))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    if args.loglog:
        Path(args.loglog).write_text(boxdim.loglog_csv(estimate), encoding="utf-8")
        print(f"wrote {args.loglog}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    cfg = _config_of(args)
    year_configs: dict[int, Path] = {}
    for item in args.year_config or []:
        if "=" not in item:
            raise InputError(f"--year-config expects YEAR=PATH, got {item!r}")
        year_text, _, path_text = item.partition("=")
        try:
            year = int(year_text)
        except ValueError:
            raise InputError(f"--year-config expects a numeric year, got {year_text!r}") from None
        year_configs[year] = _require_file(path_text, f"year {year} config")
    outdir = Path(resolve(args.outdir, cfg, "outdir", "report_out", str))
    summary = run_report(
        outdir,
        dimension_depth=resolve(args.depth, cfg, "depth", DEFAULT_REPORT_DEPTH, int),
        sample_depth=resolve(args.sample_depth, cfg, "sample_depth", DEFAULT_SAMPLE_DEPTH, int),
        grid_size=resolve(args.grid_size, cfg, "grid_size", fif.DEFAULT_GRID_SIZE, int),
        tol=resolve(args.tol, cfg, "tol", fif.DEFAULT_TOL, float),
        k_min=resolve(args.k_min, cfg, "k_min", boxdim.DEFAULT_K_MIN, int),
        k_max=resolve(args.k_max, cfg, "k_max", boxdim.DEFAULT_K_MAX, int),
        min_points_per_box=resolve(
            args.min_points_per_box, cfg, "min_points_per_box",
            boxdim.DEFAULT_MIN_POINTS_PER_BOX, int,
        ),
        year_configs=year_configs,
    )
    for warning in summary["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    for year, info in sorted(summary["years"].items()):
        print(f"{year}: {info['status']}")
    print(f"report written to {outdir}")
    return 0


_COMMANDS = {
    "ingest": cmd_ingest,
    "event-study": cmd_event_study,
    "fif": cmd_fif,
    "boxdim": cmd_boxdim,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
