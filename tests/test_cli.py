import datetime as dt
import inspect
import json
from unittest import mock

import numpy as np
import pytest

from fractalmark import cli, config, fif
from fractalmark.boxdim import estimate_dimension
from fractalmark.cli import main
from fractalmark.csvio import read_xy_csv
from fractalmark.errors import InputError
from fractalmark.event_study import InterpolationData, compute_abnormal_panel
from fractalmark.fif import evaluate_fif_fixed_point
from fractalmark.fixtures import nifty50_2024_grid, nifty50_2024_panel
from fractalmark.market_data import parse_returns_csv
from fractalmark.report import Settings, run_report, write_series_outputs


def write_price_csv(path, bars):
    lines = ["date,open,close"]
    for d, o, c in bars:
        lines.append(f"{d},{o},{c}")
    path.write_text("\n".join(lines) + "\n")


def trading_days(n, start=dt.date(2024, 1, 1)):
    out = []
    d = start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return out


def synthetic_prices(path, n=200, seed=3):
    rng = np.random.default_rng(seed)
    days = trading_days(n)
    bars = []
    level = 1000.0
    for d in days:
        opening = level
        closing = opening * (1.0 + rng.normal(0.0, 0.01))
        bars.append((d.isoformat(), f"{opening:.4f}", f"{closing:.4f}"))
        level = closing
    write_price_csv(path, bars)
    return days


def write_year_config(tmp_path, **entries):
    """A 2023 year config over one synthetic price file; ``entries`` replace or add keys."""
    prices = tmp_path / "idx2023.csv"
    days = synthetic_prices(prices, n=170, seed=9)
    entries = {
        "prices": prices.name, "market": prices.name, "event_date": days[150].isoformat(),
        **entries,
    }
    cfg = tmp_path / "2023.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()))
    return cfg


def single_error_line(err):
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


class TestIngest:
    def test_valid_file_round_trip(self, tmp_path, capsys):
        prices = tmp_path / "idx.csv"
        synthetic_prices(prices, n=31)
        code = main(["ingest", "--input", str(prices), "--out", str(tmp_path)])
        assert code == 0
        out_file = tmp_path / "idx_returns.csv"
        assert out_file.is_file()
        returns = parse_returns_csv(out_file.read_bytes())
        assert len(returns) == 31

    def test_missing_file_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        code = main(["ingest", "--input", str(missing), "--out", str(tmp_path)])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_extra_columns_warned(self, tmp_path, capsys):
        prices = tmp_path / "idx.csv"
        prices.write_text(
            "date,open,close,volume\n2024-07-01,100,101,5\n2024-07-02,101,102,6\n"
        )
        code = main(["ingest", "--input", str(prices), "--out", str(tmp_path)])
        assert code == 0
        assert "volume" in capsys.readouterr().err

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        prices = tmp_path / "idx.csv"
        prices.write_text("date,open,close\n2024-07-01,xyz,101\n")
        code = main(["ingest", "--input", str(prices), "--out", str(tmp_path)])
        assert code == 2
        assert "row 2" in capsys.readouterr().err

    def test_config_file_supplies_flags(self, tmp_path):
        prices = tmp_path / "idx.csv"
        synthetic_prices(prices, n=10)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {prices}\nout = {tmp_path}\ninstrument = nifty\n")
        assert main(["ingest", "--config", str(cfg)]) == 0
        assert (tmp_path / "nifty_returns.csv").is_file()


class TestEventStudy:
    def test_reference_ar_bypass(self, tmp_path):
        table = nifty50_2024_panel()
        ar_csv = tmp_path / "ar.csv"
        lines = ["relative_day,NIFTY50"]
        for day, value in zip(table["relative_day"], table["aar"]):
            lines.append(f"{int(day)},{float(value)!r}")
        ar_csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = main(["event-study", "--ar-csv", str(ar_csv), "--out", str(out)])
        assert code == 0
        panel_lines = (out / "panel.csv").read_text().strip().splitlines()
        assert panel_lines[0] == "relative_day,x,aar,caar"
        caar = np.array([float(l.split(",")[3]) for l in panel_lines[1:]])
        assert np.max(np.abs(caar - table["caar"])) <= 5e-5
        # emitted grids match the published 11-point tables
        for name in ("aar", "caar"):
            gx, gy = read_xy_csv(out / f"grid_{name}.csv")
            published = nifty50_2024_grid(name)
            assert np.max(np.abs(gy - published.y)) <= 5e-5
            np.testing.assert_array_equal(gx, published.x)

    @pytest.mark.parametrize("order", ["shuffled", "gap", "repeat"])
    def test_unordered_ar_csv_exit_2(self, tmp_path, capsys, order):
        table = nifty50_2024_panel()
        rows = [
            f"{int(day)},{float(value)!r}"
            for day, value in zip(table["relative_day"], table["aar"])
        ]
        if order == "shuffled":
            rows = [rows[i] for i in np.random.default_rng(5).permutation(len(rows))]
        elif order == "gap":
            del rows[10]
        else:
            rows.insert(10, rows[9])
        days = [int(row.split(",")[0]) for row in rows]
        bad = next(i for i in range(1, len(days)) if days[i] != days[i - 1] + 1)
        ar_csv = tmp_path / "ar.csv"
        ar_csv.write_text("\n".join(["relative_day,NIFTY50"] + rows) + "\n")
        out = tmp_path / "out"
        code = main(["event-study", "--ar-csv", str(ar_csv), "--out", str(out)])
        assert code == 2
        assert f"row {bad + 2}: relative_day {days[bad]} does not follow" in capsys.readouterr().err
        assert not (out / "panel.csv").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty CSV"),
            ("day,NIFTY50\n0,0.1\n", "expected header 'relative_day,<security>[,...]'"),
            ("\nrelative_day,A\n0,0.1\n", "expected header 'relative_day,<security>[,...]'"),
            ("relative_day\n0\n", "expected header 'relative_day,<security>[,...]'"),
            ("relative_day,A\n0,0.1,0.2\n", "row 2: expected 2 fields, got 3"),
            ("relative_day,A\n\n \n0,x\n", "row 4: malformed abnormal-return row"),
            ("relative_day,A\n\n , \n", "no abnormal-return rows"),
            pytest.param(
                "relative_day,A\n0,0.1\n1," + "9" * 200_000 + "\n",
                "row 3: field larger than field limit (131072)",
                id="long-field",
            ),
        ],
    )
    def test_ar_csv_refusals(self, tmp_path, text, message):
        path = tmp_path / "ar.csv"
        path.write_text(text)
        with pytest.raises(InputError) as info:
            cli._read_ar_csv(path)
        assert str(info.value) == f"{path}: {message}"

    def test_asset_equals_market_gives_zero_ar(self, tmp_path):
        prices = tmp_path / "idx.csv"
        days = synthetic_prices(prices, n=170)
        ret = tmp_path / "r"
        assert main(["ingest", "--input", str(prices), "--out", str(ret)]) == 0
        returns_csv = ret / "idx_returns.csv"
        out = tmp_path / "out"
        event = days[150]
        code = main(
            [
                "event-study",
                "--asset", str(returns_csv),
                "--market", str(returns_csv),
                "--event-date", event.isoformat(),
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "panel.csv").read_text().strip().splitlines()[1:]
        aar = np.array([float(l.split(",")[2]) for l in lines])
        assert np.max(np.abs(aar)) < 1e-15

    def test_window_exceeding_data_exit_1(self, tmp_path, capsys):
        prices = tmp_path / "idx.csv"
        days = synthetic_prices(prices, n=20)
        ret = tmp_path / "r"
        main(["ingest", "--input", str(prices), "--out", str(ret)])
        code = main(
            [
                "event-study",
                "--asset", str(ret / "idx_returns.csv"),
                "--market", str(ret / "idx_returns.csv"),
                "--event-date", days[10].isoformat(),
                "--beta", "1.0",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "need 15" in err and "have 10" in err

    def test_asset_missing_a_window_day_exit_1(self, tmp_path, capsys):
        market = tmp_path / "idx.csv"
        days = synthetic_prices(market, n=170)
        lines = market.read_text().splitlines()
        asset = tmp_path / "stock.csv"
        asset.write_text("\n".join(lines[:146] + lines[147:]) + "\n")  # drops days[145]
        ret = tmp_path / "r"
        for path in (market, asset):
            assert main(["ingest", "--input", str(path), "--out", str(ret)]) == 0
        code = main(
            [
                "event-study",
                "--asset", str(ret / "stock_returns.csv"),
                "--market", str(ret / "idx_returns.csv"),
                "--event-date", days[150].isoformat(),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "asset 'stock_returns' has no return on " + days[145].isoformat() in err
        assert not (tmp_path / "out" / "panel.csv").exists()

    @pytest.mark.parametrize(
        "beta, notes",
        [
            (["--beta", "1.0"], []),
            ([], ["note: asset 'idx_returns': beta estimated on 25 days (requested 120)"]),
        ],
        ids=["given beta", "estimated beta"],
    )
    def test_non_default_window_skips_grids(self, tmp_path, capsys, beta, notes):
        prices = tmp_path / "idx.csv"
        days = synthetic_prices(prices, n=60)
        ret = tmp_path / "r"
        main(["ingest", "--input", str(prices), "--out", str(ret)])
        capsys.readouterr()
        out = tmp_path / "out"
        code = main(
            [
                "event-study",
                "--asset", str(ret / "idx_returns.csv"),
                "--market", str(ret / "idx_returns.csv"),
                "--event-date", days[30].isoformat(),
                "--pre-days", "5",
                "--post-days", "5",
                *beta,
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "panel.csv").is_file()
        assert not (out / "grid_aar.csv").exists()
        assert capsys.readouterr().err.splitlines() == notes + [
            "note: window has 11 days; 11-point grids need exactly 31, skipped"
        ]


class TestFif:
    @pytest.fixture()
    def grid_csv(self, tmp_path):
        data = nifty50_2024_grid("aar")
        path = tmp_path / "grid_aar.csv"
        lines = ["x,y"] + [f"{float(x)!r},{float(y)!r}" for x, y in zip(data.x, data.y)]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_zero_scaling_plots_the_germ(self, tmp_path, grid_csv):
        out = tmp_path / "out"
        code = main(
            ["fif", "--data", str(grid_csv), "--alpha", "0", "--depth", "3",
             "--out", str(out), "--prefix", "aar_a0"]
        )
        assert code == 0
        sx, sy = read_xy_csv(out / "aar_a0_sample.csv")
        data = nifty50_2024_grid("aar")
        from fractalmark.fif import PiecewiseLinear

        germ = PiecewiseLinear(data.x, data.y)
        assert np.max(np.abs(sy - germ(sx))) < 1e-12
        svg = (out / "aar_a0_plot.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_scalar_broadcast_interpolates_nodes(self, tmp_path, grid_csv):
        out = tmp_path / "out"
        assert main(
            ["fif", "--data", str(grid_csv), "--alpha", "0.3", "--depth", "3",
             "--out", str(out)]
        ) == 0
        sx, sy = read_xy_csv(out / "fif_sample.csv")
        data = nifty50_2024_grid("aar")
        for xi, yi in zip(data.x, data.y):
            j = int(np.argmin(np.abs(sx - xi)))
            assert abs(sx[j] - xi) < 1e-12
            assert abs(sy[j] - yi) < 1e-10

    def test_mixed_vector_accepted(self, tmp_path, grid_csv):
        out = tmp_path / "out"
        code = main(
            ["fif", "--data", str(grid_csv),
             "--alpha", "0.1,0.4,0.5,0.6,0.4,0.3,0.4,0.5,0.3,0.1",
             "--depth", "2", "--out", str(out)]
        )
        assert code == 0

    def test_out_of_range_alpha_exit_2(self, tmp_path, grid_csv, capsys):
        code = main(
            ["fif", "--data", str(grid_csv), "--alpha", "1.0", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_bad_tol_exit_2_before_any_file(self, tmp_path, grid_csv, capsys, tol):
        out = tmp_path / "out"
        code = main(
            ["fif", "--data", str(grid_csv), "--alpha", "0.3", "--tol", tol, "--out", str(out)]
        )
        assert code == 2
        message = single_error_line(capsys.readouterr().err)
        assert message == f"error: tol must be finite and positive, got {float(tol)!r}"
        assert list(out.iterdir()) == []

    def test_oversized_grid_exit_2_before_any_file(self, tmp_path, grid_csv, capsys):
        out = tmp_path / "out"
        argv = ["fif", "--data", str(grid_csv), "--alpha", "0.3", "--out", str(out)]
        assert main(argv + ["--grid-size", str(10**12)]) == 2
        message = single_error_line(capsys.readouterr().err)
        assert message == (
            "error: grid_size 1000000000000 would give 1000000000001 grid points, "
            "over the budget of 30000000"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "xs",
        [(0.0, 0.25, 1.0), (0.0, 0.2, 0.5, 0.7, 1.0), (0.0, 0.1, 0.2 + 1e-9, 0.3, 1.0)],
        ids=["3-point", "5-point", "off-by-1e-9"],
    )
    def test_non_uniform_data_exit_2_before_any_file(self, tmp_path, capsys, xs):
        path = tmp_path / "grid.csv"
        path.write_text("x,y\n" + "".join(f"{x!r},{x * x!r}\n" for x in xs))
        out = tmp_path / "out"
        assert main(["fif", "--data", str(path), "--alpha", "0.3", "--out", str(out)]) == 2
        message = single_error_line(capsys.readouterr().err)
        assert message.startswith("error: the fixed-point evaluator needs equal intervals")
        assert list(out.iterdir()) == []


class TestBoxdim:
    def test_fif_sample_round_trip(self, tmp_path):
        data = nifty50_2024_grid("aar")
        grid_csv = tmp_path / "grid.csv"
        lines = ["x,y"] + [f"{float(x)!r},{float(y)!r}" for x, y in zip(data.x, data.y)]
        grid_csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(
            ["fif", "--data", str(grid_csv), "--alpha", "0.5", "--depth", "5",
             "--out", str(out)]
        ) == 0
        report = tmp_path / "dim.json"
        loglog = tmp_path / "loglog.csv"
        code = main(
            ["boxdim", "--sample", str(out / "fif_sample.csv"), "--k-max", "7",
             "--out", str(report), "--loglog", str(loglog)]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        for key in ("dimension", "r_squared", "levels", "excluded_levels", "normalized", "levels_used"):
            assert key in payload
        assert payload["normalized"] is True
        assert 1.0 < payload["dimension"] < 2.0
        assert payload["r_squared"] >= 0.9
        assert loglog.read_text().splitlines()[0] == "k,epsilon,log2_count"

    def test_straight_line_near_one(self, tmp_path):
        xs = np.linspace(0.0, 1.0, 100_000)
        path = tmp_path / "line.csv"
        lines = ["x,y"] + [f"{float(x)!r},{float(y)!r}" for x, y in zip(xs, xs)]
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "dim.json"
        assert main(["boxdim", "--sample", str(path), "--k-max", "6", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["dimension"] == pytest.approx(1.0, abs=0.02)

    def test_degenerate_cloud_exit_1(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("x,y\n0.5,0.5\n0.5,0.5\n")
        assert main(["boxdim", "--sample", str(path)]) == 1

    def test_no_normalize_requires_unit_square(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("x,y\n0.0,0.0\n5.0,5.0\n")
        assert main(["boxdim", "--sample", str(path), "--no-normalize"]) == 2

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_no_normalize_refuses_non_finite_rows(self, tmp_path, capsys, bad):
        path = tmp_path / "odd.csv"
        path.write_text(f"x,y\n0.0,0.0\n0.5,{bad}\n1.0,1.0\n")
        assert main(["boxdim", "--sample", str(path), "--no-normalize"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    code = main(
        ["report", "--outdir", str(out), "--depth", "5", "--sample-depth", "2",
         "--k-max", "7"]
    )
    assert code == 0
    return out


class TestReport:
    def test_default_run_year_statuses(self, report_dir):
        summary = json.loads((report_dir / "summary.json").read_text())
        assert summary["years"]["2024"]["status"] == "ok"
        for year in ("2020", "2022", "2023"):
            assert summary["years"][year]["status"] == "data not supplied"

    def test_delta_table_schema(self, report_dir):
        lines = (report_dir / "dimension_deltas.csv").read_text().strip().splitlines()
        assert lines[0] == "year,series,alpha,reference_value,computed_value,delta"
        assert len(lines) == 5  # 2024 x {aar, caar} x {0.3, 0.5}
        for line in lines[1:]:
            year, series, alpha, ref, computed, delta = line.split(",")
            assert year == "2024"
            assert float(computed) - float(ref) == pytest.approx(float(delta), abs=1e-12)

    def test_bar_chart_mirrors_groups(self, report_dir):
        svg = (report_dir / "dimension_comparison.svg").read_text()
        for label in ("AAR scaling 0.3", "AAR scaling 0.5", "CAAR scaling 0.3", "CAAR scaling 0.5"):
            assert label in svg
        assert ">2024<" in svg

    def test_every_dimension_carries_fit_quality(self, report_dir):
        summary = json.loads((report_dir / "summary.json").read_text())
        dims = summary["years"]["2024"]["dimensions"]
        for series in ("aar", "caar"):
            for alpha in ("0.3", "0.5"):
                entry = dims[series][alpha]
                assert "r_squared" in entry and "levels_used" in entry

    def test_outputs_reparseable(self, report_dir):
        year_dir = report_dir / "2024"
        for name in ("aar", "caar"):
            read_xy_csv(year_dir / f"grid_{name}.csv")
            read_xy_csv(year_dir / f"fif_{name}_a03_sample.csv")
        panel_lines = (year_dir / "panel.csv").read_text().strip().splitlines()
        assert panel_lines[0] == "relative_day,x,aar,caar"
        assert len(panel_lines) == 32

    def test_every_setting_flag_reaches_its_parameter(self, tmp_path):
        code = main(
            ["report", "--outdir", str(tmp_path), "--depth", "4", "--sample-depth", "2",
             "--grid-size", "2001", "--tol", "1e-8", "--k-min", "3", "--k-max", "6",
             "--min-points-per-box", "10"]
        )
        assert code == 0
        parameters = json.loads((tmp_path / "summary.json").read_text())["parameters"]
        assert parameters == {
            "dimension_depth": 4, "sample_depth": 2, "grid_size": 2001, "tol": 1e-8,
            "k_min": 3, "k_max": 6, "min_points_per_box": 10,
        }
        defaults = vars(Settings())
        assert all(parameters[name] != defaults[name] for name in defaults)
        sx, _ = read_xy_csv(tmp_path / "2024" / "fif_aar_a03_sample.csv")
        assert len(sx) == 1001

    def test_collinear_series_and_curve_range_are_warned(self, tmp_path):
        data = InterpolationData(np.arange(11) / 10, np.arange(11) / 10)
        # 101 points over levels 4 to 6 leave the finer cells too sparse: slope below 1
        settings = Settings(dimension_depth=1, sample_depth=1, grid_size=110, k_min=4, k_max=7,
                            min_points_per_box=1)
        results = write_series_outputs(tmp_path, "line", data, settings)
        for alpha, tag in ((0.3, "a03"), (0.5, "a05")):
            payload = results[alpha]
            assert payload["warnings"][-2:] == [
                f"dimension {payload['dimension']:.4f} outside (1, 2) for a curve graph",
                "interpolation data are collinear: dimension analysis assumes "
                "a non-degenerate graph",
            ]
            assert json.loads((tmp_path / f"dimension_line_{tag}.json").read_text()) == payload

    def test_year_config_pipeline(self, tmp_path):
        # list items are stripped: a space after the comma names the same file
        cfg = write_year_config(tmp_path, prices="idx2023.csv, idx2023.csv", beta=0.9)
        out = tmp_path / "rep"
        code = main(
            ["report", "--outdir", str(out), "--depth", "4", "--sample-depth", "2",
             "--k-max", "6", "--year-config", f"2023={cfg}"]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["years"]["2023"]["status"] == "ok"
        assert (out / "2023" / "panel.csv").is_file()
        deltas = (out / "dimension_deltas.csv").read_text().splitlines()
        assert [line[:5] for line in deltas[1:]] == ["2023,"] * 4 + ["2024,"] * 4

    def test_short_window_year_writes_only_its_panel(self, tmp_path):
        cfg = write_year_config(tmp_path, pre_days=5, post_days=5)
        out = tmp_path / "rep"
        code = main(
            ["report", "--outdir", str(out), "--depth", "4", "--sample-depth", "2",
             "--k-max", "6", "--year-config", f"2023={cfg}"]
        )
        assert code == 0
        info = json.loads((out / "summary.json").read_text())["years"]["2023"]
        assert info["status"] == "partial"
        assert info["notes"][-1] == "window has 11 days; 11-point grids need exactly 31"
        assert [p.name for p in (out / "2023").iterdir()] == ["panel.csv"]
        assert len((out / "2023" / "panel.csv").read_text().splitlines()) == 12
        deltas = (out / "dimension_deltas.csv").read_text().splitlines()
        assert [line[:5] for line in deltas[1:]] == ["2024,"] * 4
        assert ">2023<" not in (out / "dimension_comparison.svg").read_text()


    def test_year_config_asset_missing_a_window_day_exit_1(self, tmp_path, capsys):
        market = tmp_path / "idx2023.csv"
        days = synthetic_prices(market, n=170, seed=9)
        lines = market.read_text().splitlines()
        (tmp_path / "stock.csv").write_text("\n".join(lines[:156] + lines[157:]) + "\n")
        cfg = tmp_path / "2023.cfg"
        cfg.write_text(
            f"prices = {market.name},stock.csv\nmarket = {market.name}\n"
            f"event_date = {days[150].isoformat()}\n"
        )
        code = main(
            ["report", "--outdir", str(tmp_path / "rep"), "--depth", "4", "--sample-depth", "2",
             "--k-max", "6", "--year-config", f"2023={cfg}"]
        )
        assert code == 1
        assert f"asset 'stock' has no return on {days[155].isoformat()}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fault", ["too few levels", "unparseable prices", "tol nan", "tol inf"]
    )
    def test_refused_run_leaves_no_bundle_file(self, tmp_path, capsys, fault):
        out = tmp_path / "r1"
        out.mkdir()
        (out / "keep.txt").write_text("kept\n")
        argv = ["report", "--outdir", str(out)]
        if fault == "too few levels":
            argv += ["--depth", "2", "--sample-depth", "1", "--k-max", "4"]
            code, message = 1, "error: only 1 usable levels after exclusions; need at least 3"
        elif fault.startswith("tol"):
            tol = fault.split()[1]
            argv += ["--tol", tol]
            code, message = 2, f"error: tol must be finite and positive, got {tol}"
        else:
            cfg = write_year_config(tmp_path)
            (tmp_path / "idx2023.csv").write_text("date,open,close\n2023-01-02,abc,1.0\n")
            argv += ["--depth", "4", "--sample-depth", "2", "--k-max", "6",
                     "--year-config", f"2023={cfg}"]
            code, message = 2, "error: row 2: malformed number 'abc' in column 'open'"
        # every fault surfaces after some 2024 files are written
        assert main(argv) == code
        assert single_error_line(capsys.readouterr().err).startswith(message)
        assert [p.name for p in out.rglob("*")] == ["keep.txt"]
        assert (out / "keep.txt").read_text() == "kept\n"
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]

    @pytest.mark.parametrize(
        "settings, message",
        [
            (Settings(k_min=5, k_max=3), "k_min must be below k_max, got [5, 3]"),
            (Settings(k_max=31), "levels must lie in [0, 30]"),
            (Settings(min_points_per_box=0), "min_points_per_box must be >= 1"),
            (Settings(dimension_depth=9), "depth 9 would generate ~11000000000 points"),
            (Settings(sample_depth=-1), "depth must be non-negative"),
        ],
        ids=["k-range", "k_max", "sparsity guard", "dimension depth", "sample depth"],
    )
    def test_bad_settings_refused_before_any_work(self, tmp_path, settings, message):
        out = tmp_path / "rep"
        with (
            mock.patch("fractalmark.report.write_xy_csv") as write,
            mock.patch.object(fif, "evaluate_fif_fixed_point") as evaluate,
            pytest.raises(InputError) as refused,
        ):
            run_report(out, settings)
        assert str(refused.value).startswith(message)
        assert write.call_count == evaluate.call_count == 0
        # no bundle directory, nor a staging directory beside it
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "settings, message",
        [
            (Settings(tol=float("nan")), "tol must be finite and positive, got nan"),
            (Settings(grid_size=5), "grid_size must be at least 10 * P = 100, got 5"),
        ],
        ids=["tol", "grid size"],
    )
    def test_bad_grid_or_tol_refused_before_any_sample(self, tmp_path, settings, message):
        # the fixed-point evaluator runs here, on the reference model, to check them
        with (
            mock.patch("fractalmark.report.write_xy_csv") as write,
            pytest.raises(InputError) as refused,
        ):
            run_report(tmp_path / "rep", settings)
        assert str(refused.value) == message
        assert write.call_count == 0
        assert list(tmp_path.iterdir()) == []

    def test_oversized_grid_exit_2_without_a_bundle(self, tmp_path, capsys):
        out = tmp_path / "rep"
        assert main(["report", "--outdir", str(out), "--grid-size", str(10**12)]) == 2
        message = single_error_line(capsys.readouterr().err)
        assert message.startswith("error: grid_size 1000000000000 would give")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "year_args, message",
        [
            (["2024={cfg}"], "year 2024 comes from the embedded reference data"),
            (["2023={cfg}", "2023={cfg}"], "--year-config gives year 2023 twice"),
            (["2023"], "--year-config expects YEAR=PATH, got '2023'"),
            (["twenty={cfg}"], "--year-config expects a numeric year, got 'twenty'"),
        ],
    )
    def test_year_config_refusals_exit_2(self, tmp_path, capsys, year_args, message):
        cfg = write_year_config(tmp_path)
        out = tmp_path / "rep"
        argv = ["report", "--outdir", str(out)]
        for item in year_args:
            argv += ["--year-config", item.format(cfg=cfg)]
        assert main(argv) == 2
        assert single_error_line(capsys.readouterr().err).startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "entries, message",
        [
            ({"pre_day": "5"}, "4: unknown config key 'pre_day'"),
            ({"pre_days": "abc"}, "4: config key 'pre_days': cannot parse 'abc'"),
            ({"event_date": "21/08/2023"}, "3: config key 'event_date': cannot parse '21/08/2023'"),
            ({"prices": ","}, " year 2023 config missing key 'prices'"),
        ],
    )
    def test_year_config_file_refusals_exit_2(self, tmp_path, capsys, entries, message):
        cfg = write_year_config(tmp_path, **entries)
        out = tmp_path / "rep"
        assert main(["report", "--outdir", str(out), "--year-config", f"2023={cfg}"]) == 2
        assert single_error_line(capsys.readouterr().err).startswith(f"error: {cfg}:{message}")
        assert not out.exists()


OPTION_ROWS = [
    (command, name, kind)
    for command, (_, _, rows) in cli.COMMANDS.items()
    for name, kind, _, _ in rows
]
# kind -> (file value, same value as flags, flag value that beats the file, its parsed value)
# kind -> (file value, the same as flag values, flag values that win, winning
# value); "{base}" stands for the config file's directory
SAMPLES = {
    int: ("7", ["7"], ["9"], 9),
    float: ("0.25", ["0.25"], ["0.5"], 0.5),
    str: ("p1", ["p1"], ["p2"], "p2"),
    config.path: ("p1", ["{base}/p1"], ["p2"], "p2"),
    config.paths: ("a, b", ["{base}/a", "{base}/b"], ["c"], ["c"]),
    config.year_paths: ("2023=a, 2022=b", ["2023={base}/a", "2022={base}/b"], ["2020=c"], ["2020=c"]),
}


class TestConfigFile:
    @pytest.mark.parametrize(
        "command, name, kind", OPTION_ROWS, ids=[f"{c}-{n}" for c, n, _ in OPTION_ROWS]
    )
    def test_key_equals_flag_and_flag_wins(self, tmp_path, command, name, kind):
        flag = "--" + name.replace("_", "-")
        cfg = tmp_path / "run.cfg"
        if kind is config.switch:
            cfg.write_text(f"{name} = true\n")
            from_flag = cli.parse_args([command, flag])
        else:
            text, same, winner, expected = SAMPLES[kind]
            cfg.write_text(f"{name} = {text}\n")
            same = [v.format(base=tmp_path) for v in same]
            from_flag = cli.parse_args([command] + [arg for v in same for arg in (flag, v)])
        from_file = cli.parse_args([command, "--config", str(cfg)])
        assert from_file.config == str(cfg) and from_flag.config is None
        from_file.config = None
        assert from_file == from_flag
        assert from_file != cli.parse_args([command])
        if kind is config.switch:
            cfg.write_text(f"{name} = false\n")
            winner, expected = [], True
        wins = cli.parse_args([command, "--config", str(cfg), flag, *winner])
        assert getattr(wins, name) == expected

    def test_paths_are_taken_from_the_config_file_directory(self, tmp_path, monkeypatch):
        sub = tmp_path / "sub"
        sub.mkdir()
        synthetic_prices(sub / "m.csv", n=31)
        (sub / "run.cfg").write_text("input = m.csv\n")
        monkeypatch.chdir(tmp_path)
        # a flag stays relative to the working directory
        assert main(["ingest", "--config", "sub/run.cfg", "--out", "o"]) == 0
        assert (tmp_path / "o" / "m_returns.csv").is_file()

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("fif", "dpeth = 2", "unknown config key 'dpeth'"),
            ("fif", "config = other.cfg", "unknown config key 'config'"),
            ("boxdim", "no_normalize = True", "config key 'no_normalize': cannot parse 'True'"),
            ("boxdim", "no_normalize = yes", "config key 'no_normalize': cannot parse 'yes'"),
            ("fif", "depth = two", "config key 'depth': cannot parse 'two'"),
            ("fif", "depth = 2\ndepth = 3", "config key 'depth' given twice"),
        ],
    )
    def test_refusals_exit_2(self, tmp_path, capsys, command, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# run\n{text}\n")
        assert main([command, "--config", str(cfg)]) == 2
        line_no = 1 + len(text.splitlines())
        err = capsys.readouterr().err
        assert single_error_line(err).startswith(f"error: {cfg}:{line_no}: {message}")

    @pytest.mark.parametrize(
        "command, function, options, unexposed",
        [
            # the report's settings are checked field by field in the last row
            ("report", run_report, {"year_config": "year_configs"}, {"settings"}),
            (
                "boxdim",
                estimate_dimension,
                {"k_min": "k_min", "k_max": "k_max", "min_points_per_box": "min_points_per_box"},
                set(),
            ),
            ("fif", evaluate_fif_fixed_point, {"grid_size": "grid_size", "tol": "tol"}, set()),
            (
                "event-study",
                compute_abnormal_panel,
                {"pre_days": "pre_days", "post_days": "post_days",
                 "risk_free_daily": "risk_free_daily", "beta": "beta_override",
                 "estimation_window_days": "estimation_window_days"},
                set(),
            ),
            (
                "report",
                Settings,
                {"depth": "dimension_depth", "sample_depth": "sample_depth",
                 "grid_size": "grid_size", "tol": "tol", "k_min": "k_min", "k_max": "k_max",
                 "min_points_per_box": "min_points_per_box"},
                set(),
            ),
        ],
    )
    def test_cli_defaults_are_the_library_defaults(self, command, function, options, unexposed):
        parsed = vars(cli.parse_args([command]))
        params = inspect.signature(function).parameters
        with_defaults = {n for n, p in params.items() if p.default is not inspect.Parameter.empty}
        assert with_defaults == set(options.values()) | unexposed
        for option, param in options.items():
            assert parsed[option] == params[param].default, option


LONG_FIELD = "9" * 200_000 + "x"


@pytest.mark.parametrize(
    "command, text, row",
    [
        ("boxdim", f"x,y\n0,0\n1,{LONG_FIELD}\n", 3),
        ("boxdim", f"x,y,{LONG_FIELD}\n0,0\n", 1),
        ("fif", f"x,y\n0,0\n0.5,1\n1,{LONG_FIELD}\n", 4),
        ("ingest", f"date,open,close\n2024-07-01,1,2\n2024-07-02,{LONG_FIELD},2\n", 3),
        ("event-study", f"relative_day,A\n0,0.1\n1,{LONG_FIELD}\n", 3),
    ],
    ids=["boxdim-body", "boxdim-header", "fif", "ingest", "event-study"],
)
def test_over_limit_field_exit_2(tmp_path, capsys, command, text, row):
    path = tmp_path / "in.csv"
    path.write_text(text)
    options = {
        "boxdim": ["--sample"], "fif": ["--alpha", "0.3", "--data"], "ingest": ["--input"],
        "event-study": ["--ar-csv"],
    }
    assert main([command, *options[command], str(path), "--out", str(tmp_path / "out")]) == 2
    prefix = f"{path}: " if command == "event-study" else ""
    want = f"error: {prefix}row {row}: field larger than field limit (131072)"
    assert single_error_line(capsys.readouterr().err) == want


class TestUsageErrors:
    def test_unknown_command_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_inputs_exit_2(self, tmp_path, capsys):
        assert main(["fif", "--alpha", "0.3"]) == 2
        assert main(["event-study", "--out", str(tmp_path)]) == 2
        assert main(["boxdim"]) == 2
