import datetime as dt
import json

import numpy as np
import pytest

from fractalmark.cli import main
from fractalmark.csvio import read_xy_csv
from fractalmark.fixtures import nifty50_2024_grid, nifty50_2024_panel
from fractalmark.market_data import parse_returns_csv


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

    def test_non_default_window_skips_grids(self, tmp_path, capsys):
        prices = tmp_path / "idx.csv"
        days = synthetic_prices(prices, n=60)
        ret = tmp_path / "r"
        main(["ingest", "--input", str(prices), "--out", str(ret)])
        out = tmp_path / "out"
        code = main(
            [
                "event-study",
                "--asset", str(ret / "idx_returns.csv"),
                "--market", str(ret / "idx_returns.csv"),
                "--event-date", days[30].isoformat(),
                "--pre-days", "5",
                "--post-days", "5",
                "--beta", "1.0",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "panel.csv").is_file()
        assert not (out / "grid_aar.csv").exists()


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
        from fractalmark.fif import germ_piecewise_linear

        germ = germ_piecewise_linear(data)
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

    def test_year_config_pipeline(self, tmp_path):
        prices = tmp_path / "idx2023.csv"
        days = synthetic_prices(prices, n=170, seed=9)
        cfg = tmp_path / "2023.cfg"
        cfg.write_text(
            f"prices = {prices.name}\nmarket = {prices.name}\n"
            f"event_date = {days[150].isoformat()}\nbeta = 0.9\n"
        )
        out = tmp_path / "rep"
        code = main(
            ["report", "--outdir", str(out), "--depth", "4", "--sample-depth", "2",
             "--k-max", "6", "--year-config", f"2023={cfg}"]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["years"]["2023"]["status"] == "ok"
        assert (out / "2023" / "panel.csv").is_file()
        deltas = (out / "dimension_deltas.csv").read_text()
        assert "2023" in deltas


class TestUsageErrors:
    def test_unknown_command_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_inputs_exit_2(self, tmp_path, capsys):
        assert main(["fif", "--alpha", "0.3"]) == 2
        assert main(["event-study", "--out", str(tmp_path)]) == 2
        assert main(["boxdim"]) == 2
