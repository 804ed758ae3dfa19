"""Command-line interface: ingest, event-study, fif, boxdim, report.

Exit status contract: 0 on success, 1 on a computation failure, 2 on a
usage or input error. Each subcommand's options are declared once, in
``COMMANDS``; every option can also be supplied through a flat ``key=value``
file via ``--config``, keyed by its name. Explicit flags win.
"""

from __future__ import annotations

import argparse
import sys
from datetime import date as Date
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, boxdim, config, event_study, fif
from .csvio import read_xy_csv, write_xy_csv
from .errors import ComputationError, InputError
from .event_study import (
    InterpolationData, build_panel, compute_abnormal_panel, panel_csv, subsample_to_grid,
)
from .market_data import (
    daily_returns,
    extra_columns,
    parse_price_csv,
    parse_returns_csv,
    serialize_returns_csv,
)
from .report import DEFAULT_REPORT_DEPTH, DEFAULT_SAMPLE_DEPTH, run_report
from .svgplot import line_plot_svg


def _require_file(path_text: str, what: str) -> Path:
    path = Path(path_text)
    if not path.is_file():
        raise InputError(f"{what} not found: {path}")
    return path


def _outdir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_ingest(args: argparse.Namespace) -> int:
    if not args.input:
        raise InputError("ingest requires --input (or config key 'input')")
    path = _require_file(args.input, "price CSV")
    instrument = args.instrument or path.stem
    out = _outdir(args)
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
    out = _outdir(args)
    if args.ar_csv:
        matrix, days, labels = _read_ar_csv(_require_file(args.ar_csv, "abnormal-return CSV"))
        panel = build_panel(matrix, labels)
        relative_days = days
        notes: list[str] = []
    else:
        if not args.asset or not args.market or not args.event_date:
            raise InputError(
                "event-study requires --asset, --market and --event-date "
                "(or the matching config keys), unless --ar-csv is given"
            )
        try:
            event_date = Date.fromisoformat(args.event_date)
        except ValueError:
            raise InputError(f"unparseable event date {args.event_date!r}") from None
        assets = [_load_returns(p, "asset returns CSV") for p in args.asset]
        market = _load_returns(args.market, "market returns CSV")
        panel, relative_days, notes = compute_abnormal_panel(
            assets,
            market,
            event_date,
            pre_days=args.pre_days,
            post_days=args.post_days,
            risk_free_daily=args.risk_free_daily,
            beta_override=args.beta,
            estimation_window_days=args.estimation_window_days,
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
    if not args.data or args.alpha is None:
        raise InputError("fif requires --data and --alpha (or config keys 'data', 'alpha')")
    x, y = read_xy_csv(_require_file(args.data, "interpolation data CSV"))
    data = InterpolationData(x, y)
    alpha = fif.ScalingVector.from_spec(args.alpha, data.intervals)
    out = _outdir(args)

    model = fif.build_fif_model(data, alpha)
    sample = fif.generate_attractor_points(model, args.depth)
    sample_path = out / f"{args.prefix}_sample.csv"
    write_xy_csv(sample_path, sample.x, sample.y)
    print(f"wrote {sample_path} ({len(sample)} points)")

    plot = fif.evaluate_fif_fixed_point(model, grid_size=args.grid_size, tol=args.tol)
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
    plot_path = out / f"{args.prefix}_plot.svg"
    plot_path.write_text(svg, encoding="utf-8")
    print(f"wrote {plot_path}")
    return 0


def cmd_boxdim(args: argparse.Namespace) -> int:
    if not args.sample:
        raise InputError("boxdim requires --sample (or config key 'sample')")
    x, y = read_xy_csv(_require_file(args.sample, "point cloud CSV"))
    normalize = not args.no_normalize
    if normalize:
        cloud = boxdim.normalize_to_unit_square(x, y)
    else:
        cloud = boxdim.StreamedCloud(boxdim.HeldBlocks([(x, y)], bounds=(0.0, 1.0, 0.0, 1.0)))
    estimate = boxdim.estimate_dimension(cloud, args.k_min, args.k_max, args.min_points_per_box)
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
    year_configs: dict[int, Path] = {}
    for item in args.year_config or []:
        if "=" not in item:
            raise InputError(f"--year-config expects YEAR=PATH, got {item!r}")
        year_text, _, path_text = item.partition("=")
        try:
            year = int(year_text)
        except ValueError:
            raise InputError(f"--year-config expects a numeric year, got {year_text!r}") from None
        if year in year_configs:
            raise InputError(f"--year-config gives year {year} twice")
        year_configs[year] = _require_file(path_text, f"year {year} config")
    outdir = Path(args.outdir)
    summary = run_report(
        outdir,
        dimension_depth=args.depth,
        sample_depth=args.sample_depth,
        grid_size=args.grid_size,
        tol=args.tol,
        k_min=args.k_min,
        k_max=args.k_max,
        min_points_per_box=args.min_points_per_box,
        year_configs=year_configs,
    )
    for warning in summary["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    for year, info in sorted(summary["years"].items()):
        print(f"{year}: {info['status']}")
    print(f"report written to {outdir}")
    return 0


# One row per option: (name, kind, default, help). The flag is --name with
# dashes for underscores and the --config key is name; kind is str, int,
# float, config.switch (an on/off flag), config.path (a file or directory),
# or config.paths or config.year_paths (repeatable flags).
_OUT = ("out", config.path, ".", "output directory")
_FIXED_POINT = (
    ("grid_size", int, fif.DEFAULT_GRID_SIZE, "fixed-point grid size"),
    ("tol", float, fif.DEFAULT_TOL, "fixed-point sup-norm tolerance"),
)
_COUNTING = (
    ("k_min", int, boxdim.DEFAULT_K_MIN, "coarsest dyadic level"),
    ("k_max", int, boxdim.DEFAULT_K_MAX, "finest dyadic level"),
    ("min_points_per_box", int, boxdim.DEFAULT_MIN_POINTS_PER_BOX, "sparsity guard threshold"),
)
# command -> (handler, help, option rows)
COMMANDS: dict[str, tuple[Callable, str, tuple[tuple[str, Callable, object, str], ...]]] = {
    "ingest": (cmd_ingest, "parse a price CSV and write daily returns", (
        ("input", config.path, None, "price CSV with date,open,close columns"),
        ("instrument", str, None, "instrument label (default: input file stem)"),
        _OUT,
    )),
    "event-study": (cmd_event_study, "abnormal returns, AAR and CAAR around an event date", (
        ("asset", config.paths, None, "asset returns CSV (repeat for several securities)"),
        ("market", config.path, None, "market returns CSV"),
        ("event_date", str, None, "event date, YYYY-MM-DD"),
        ("pre_days", int, event_study.DEFAULT_PRE_DAYS, "trading days before the event"),
        ("post_days", int, event_study.DEFAULT_POST_DAYS, "trading days after the event"),
        ("risk_free_daily", float, 0.0, "daily risk-free rate"),
        ("beta", float, None, "skip estimation and use this beta"),
        ("estimation_window_days", int, event_study.DEFAULT_ESTIMATION_WINDOW_DAYS,
         "beta estimation window"),
        ("ar_csv", config.path, None,
         "bypass the market model: CSV of precomputed abnormal returns "
         "(columns: relative_day, then one column per security)"),
        _OUT,
    )),
    "fif": (cmd_fif, "fractal interpolant sample and plot for one data set", (
        ("data", config.path, None, "interpolation data CSV with columns x,y"),
        ("alpha", str, None, "vertical scaling: scalar or comma-separated per-interval list"),
        ("depth", int, 4, "attractor refinement depth"),
        *_FIXED_POINT,
        ("prefix", str, "fif", "output file prefix"),
        _OUT,
    )),
    "boxdim": (cmd_boxdim, "box-counting dimension of a point-cloud CSV", (
        ("sample", config.path, None, "point cloud CSV with columns x,y"),
        *_COUNTING,
        ("no_normalize", config.switch, False,
         "count on raw coordinates instead of rescaling to the unit square"),
        ("out", config.path, None, "write the JSON report here (default: stdout)"),
        ("loglog", config.path, None, "optionally write the log-log pairs CSV here"),
    )),
    "report": (cmd_report, "full reproduction bundle for the case study", (
        ("outdir", config.path, "report_out", "bundle directory"),
        ("depth", int, DEFAULT_REPORT_DEPTH, "attractor depth for dimension estimation"),
        ("sample_depth", int, DEFAULT_SAMPLE_DEPTH, "attractor depth for exported samples"),
        *_FIXED_POINT,
        *_COUNTING,
        ("year_config", config.year_paths, None,
         "per-year data config YEAR=PATH (repeatable), e.g. 2023=data/2023.cfg"),
    )),
}


class _Repeat(argparse.Action):
    """A repeatable flag whose values replace the default list instead of extending it."""

    def __call__(self, parser, namespace, value, option_string=None):
        given = getattr(namespace, self.dest)
        setattr(namespace, self.dest, (given if given is not self.default else []) + [value])


def build_parser(file_values: dict[str, dict] | None = None) -> argparse.ArgumentParser:
    """The CLI parser; ``file_values[command]`` replaces that command's table defaults."""
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
    for command, (_, command_help, options) in COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        for name, kind, default, text in options:
            if default is not None and kind is not config.switch:
                text += f" (default {default})"
            if kind is config.switch:
                how = {"action": "store_true"}
            else:
                how = {"action": _Repeat} if kind in config.LIST_KINDS else {"type": kind}
            p.add_argument("--" + name.replace("_", "-"), default=default, help=text, **how)
        p.add_argument("--config", help="flat key=value config file (explicit flags win)")
        p.set_defaults(**(file_values or {}).get(command, {}))
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Explicit flags over the ``--config`` file's values over the table defaults."""
    args = build_parser().parse_args(argv)
    if args.config:
        kinds = {name: kind for name, kind, _, _ in COMMANDS[args.command][2]}
        file_values = {args.command: config.load_config(args.config, kinds)}
        args = build_parser(file_values).parse_args(argv)
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(argv)
        return COMMANDS[args.command][0](args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
