import datetime as dt

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracle_v010 as oracle
from fractalmark.errors import ComputationError, InputError
from fractalmark.event_study import (
    InterpolationData,
    abnormal_returns,
    build_panel,
    compute_abnormal_panel,
    estimate_capm,
    extract_event_window,
    fit_market_model,
    panel_csv,
    subsample_to_grid,
)
from fractalmark.fixtures import nifty50_2024_grid, nifty50_2024_panel
from fractalmark.market_data import ReturnSeries


def series_from(values, name="s", start=dt.date(2024, 1, 1)):
    dates = tuple(start + dt.timedelta(days=i) for i in range(len(values)))
    return ReturnSeries(name, dates, tuple(float(v) for v in values))


class TestEstimateCapm:
    def test_asset_equals_market(self):
        market = series_from([0.01, -0.02, 0.005, 0.0, 0.015])
        params = estimate_capm(market, market, risk_free_daily=0.0)
        assert params.beta == pytest.approx(1.0, abs=1e-12)
        assert params.intercept == pytest.approx(0.0, abs=1e-12)

    def test_constant_asset_gives_zero_beta(self):
        market = series_from([0.01, -0.02, 0.005, 0.003])
        asset = series_from([0.0, 0.0, 0.0, 0.0], name="flat")
        params = estimate_capm(asset, market)
        assert params.beta == pytest.approx(0.0, abs=1e-12)

    def test_exact_linear_relation(self):
        # closed-form OLS on exactly linear data recovers slope and intercept
        rng = np.random.default_rng(5)
        m = rng.normal(0.0, 0.01, 50)
        a = 2.0 * m + 0.001
        params = estimate_capm(series_from(a, "a"), series_from(m, "m"))
        assert params.beta == pytest.approx(2.0, abs=1e-12)
        assert params.intercept == pytest.approx(0.001, abs=1e-14)

    def test_zero_variance_market_degenerate(self):
        market = series_from([0.01, 0.01, 0.01, 0.01])
        asset = series_from([0.0, 0.1, 0.2, 0.3], name="a")
        with pytest.raises(ComputationError, match="degenerate"):
            estimate_capm(asset, market)

    def test_too_few_observations(self):
        with pytest.raises(ComputationError, match=">= 3"):
            estimate_capm(series_from([0.1, 0.2]), series_from([0.2, 0.1], "m"))

    def test_affine_equivariance(self):
        rng = np.random.default_rng(17)
        m = rng.normal(0.0, 0.01, 120)
        a = 1.3 * m + rng.normal(0.0, 0.002, 120)
        base = estimate_capm(series_from(a, "a"), series_from(m, "m"))
        for shift in (0.004, -0.02, 1.5):
            shifted = estimate_capm(series_from(a + shift, "a"), series_from(m, "m"))
            assert shifted.beta == pytest.approx(base.beta, abs=1e-12)
            assert shifted.intercept - base.intercept == pytest.approx(shift, abs=1e-12 * max(1, abs(shift)))

    def test_aligns_mismatched_dates(self):
        m = series_from([0.01, 0.02, -0.01, 0.005])
        a = ReturnSeries("a", m.dates[1:], (0.02, -0.01, 0.005))
        params = estimate_capm(a, m)
        assert params.beta == pytest.approx(1.0, abs=1e-12)


def expected_return(beta, risk_free_daily, market_return):
    """The market-model expected return, read off the kernel as -AR of a zero return."""
    return -abnormal_returns([[0.0]], [market_return], [beta], risk_free_daily)[0, 0]


class TestExpectedAndAbnormal:
    def test_market_mirroring(self):
        assert expected_return(1.0, 0.0, 0.01) == pytest.approx(0.01)

    def test_zero_beta(self):
        assert expected_return(0.0, 0.0002, 0.37) == pytest.approx(0.0002)

    def test_hand_arithmetic(self):
        assert expected_return(1.2, 0.0002, 0.01) == pytest.approx(0.01196, abs=1e-15)

    @pytest.mark.parametrize(
        "actual,expected,result",
        [(0.01, 0.01, 0.0), (0.02, 0.005, 0.015), (-0.01, 0.004, -0.014)],
    )
    def test_abnormal_return(self, actual, expected, result):
        # beta 1 and r_f 0: the expected return is the market return
        ar = abnormal_returns([[actual]], [expected], [1.0])
        assert ar[0, 0] == pytest.approx(result, abs=1e-15)

    def test_abnormal_return_of_self_is_zero(self):
        rng = np.random.default_rng(23)
        values = rng.normal(0, 0.05, 25)
        assert np.all(abnormal_returns(values[None, :], values, [1.0]) == 0.0)

    def test_rows_and_columns(self):
        actual = np.array([[0.01, 0.02, -0.03], [0.0, 0.005, 0.01]])
        market = np.array([0.004, -0.002, 0.01])
        ar = abnormal_returns(actual, market, [1.2, 0.0], 0.0002)
        for i, beta in enumerate((1.2, 0.0)):
            for t in range(3):
                want = actual[i, t] - (0.0002 + beta * (market[t] - 0.0002))
                assert ar[i, t] == want


class TestBuildPanel:
    def test_single_security(self):
        panel = build_panel([[0.1, -0.1]])
        np.testing.assert_allclose(panel.aar, [0.1, -0.1])
        np.testing.assert_allclose(panel.caar, [0.1, 0.0], atol=1e-16)

    def test_reference_panel_consistency(self):
        table = nifty50_2024_panel()
        panel = build_panel(table["aar"].reshape(1, -1), ["NIFTY50"])
        assert np.max(np.abs(panel.caar - table["caar"])) <= 5e-5
        # spot value: day -14 cumulative
        assert panel.caar[1] == pytest.approx(0.00559 + 0.00078, abs=1e-15)

    def test_antisymmetric_rows_cancel(self):
        rng = np.random.default_rng(2)
        row = rng.normal(0, 0.01, 31)
        panel = build_panel(np.vstack([row, -row]))
        np.testing.assert_allclose(panel.aar, 0.0, atol=1e-18)
        np.testing.assert_allclose(panel.caar, 0.0, atol=1e-17)

    def test_ragged_matrix_rejected(self):
        with pytest.raises(InputError, match="ragged|rectangular"):
            build_panel([[0.1, 0.2], [0.3]])

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([[0.1, 0.2], [0.3]], "must be rectangular (ragged input?)"),
            ([0.1, 0.2], "must be rectangular (ragged input?)"),
            (np.array([0.1, 0.2]), "must be rectangular (ragged input?)"),
            ([[[0.1, 0.2]]], "must be rectangular (ragged input?)"),
            (np.zeros((2, 3, 1)), "must be rectangular (ragged input?)"),
            ([], "must be rectangular (ragged input?)"),
            ([[]], "must be non-empty"),
            (np.empty((0, 3)), "must be non-empty"),
            ([[0.1, float("nan")]], "abnormal returns must be finite"),
            (np.array([[0.1], [np.inf]]), "abnormal returns must be finite"),
        ],
    )
    def test_refusals_keep_their_wording(self, matrix, message):
        with pytest.raises(InputError) as refused:
            build_panel(matrix)
        assert str(refused.value).endswith(message)

    def test_telescoping_exact(self):
        rng = np.random.default_rng(9)
        panel = build_panel(rng.normal(0, 0.01, (4, 40)))
        total = 0.0
        for v in panel.aar:
            total += v
        assert panel.caar[-1] == total
        np.testing.assert_allclose(np.diff(panel.caar), panel.aar[1:], atol=1e-16)
        assert panel.caar[0] == panel.aar[0]


class TestExtractEventWindow:
    def _trading_series(self, n, start=dt.date(2024, 1, 1)):
        # weekdays only, to exercise the non-trading-day rolls
        dates = []
        d = start
        while len(dates) < n:
            if d.weekday() < 5:
                dates.append(d)
            d += dt.timedelta(days=1)
        return ReturnSeries("idx", tuple(dates), tuple(0.001 * i for i in range(n)))

    def test_full_31_day_series(self):
        series = self._trading_series(31)
        window = extract_event_window(series, series.dates[15], 15, 15)
        assert np.array_equal(window.dates, series.dates)
        assert window.relative_days == tuple(range(-15, 16))
        assert window.dates[window.pre_days] == series.dates[15]

    def test_event_on_non_trading_day_rolls_forward(self):
        series = self._trading_series(40)
        start = series.dates[20].item()
        saturday = next(d for d in (start + dt.timedelta(days=i) for i in range(7)) if d.weekday() == 5)
        window = extract_event_window(series, saturday, 5, 5)
        day0 = window.dates[5].item()
        assert day0 >= saturday
        assert day0.weekday() == 0  # next session after a Saturday

    def test_insufficient_history(self):
        series = self._trading_series(20)
        with pytest.raises(ComputationError, match="need 15"):
            extract_event_window(series, series.dates[10], 15, 5)
        with pytest.raises(ComputationError, match="after"):
            extract_event_window(series, series.dates[15], 5, 15)


class TestSubsampleToGrid:
    def test_reference_tables_match_exactly(self):
        table = nifty50_2024_panel()
        for name in ("aar", "caar"):
            grid = subsample_to_grid(table[name])
            published = nifty50_2024_grid(name)
            assert np.array_equal(grid.y, published.y)
            assert np.array_equal(grid.x, published.x)

    def test_constant_input(self):
        grid = subsample_to_grid([1.0] * 31)
        assert np.all(grid.y == 1.0)
        assert len(grid) == 11

    def test_wrong_length_rejected(self):
        with pytest.raises(InputError, match="31"):
            subsample_to_grid([0.0] * 30)

    def test_x_grid_exact(self):
        rng = np.random.default_rng(31)
        grid = subsample_to_grid(rng.normal(0, 1, 31))
        assert np.array_equal(grid.x, np.arange(11) / 10.0)
        assert np.all(np.diff(grid.x) > 0)


class TestInterpolationData:
    def test_invariants(self):
        with pytest.raises(InputError, match="3 points"):
            InterpolationData(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(InputError, match="increasing"):
            InterpolationData(np.array([0.0, 0.5, 0.5, 1.0]), np.zeros(4))
        with pytest.raises(InputError, match="normalized"):
            InterpolationData(np.array([0.1, 0.5, 1.0]), np.zeros(3))


class TestPanelCsv:
    def test_schema_and_values(self):
        panel = build_panel([[0.1, -0.1, 0.05]])
        text = panel_csv(panel, (-1, 0, 1))
        lines = text.strip().splitlines()
        assert lines[0] == "relative_day,x,aar,caar"
        day, x, aar, caar = lines[1].split(",")
        assert day == "-1" and float(x) == 0.0
        assert float(aar) == 0.1
        last = lines[3].split(",")
        assert float(last[1]) == 1.0
        assert float(last[3]) == pytest.approx(0.05, abs=1e-16)


# --- the market-model panel against the 0.1.0 per-asset loop ---------------


def weekdays(n, start=dt.date(2023, 1, 2)):
    out, day = [], start
    while len(out) < n:
        if day.weekday() < 5:
            out.append(day)
        day += dt.timedelta(days=1)
    return out


def both_series(name, dates, values):
    """The same returns as a columnar series and as a 0.1.0 series."""
    values = [float(v) for v in values]
    return ReturnSeries(name, dates, values), oracle.ReturnSeries(name, tuple(dates), tuple(values))


def panel_outcome(compute, assets, market, event_date, **kwargs):
    try:
        panel, days, notes = compute(assets, market, event_date, **kwargs)
    except (InputError, ComputationError) as exc:
        return ("refused", type(exc).__name__, str(exc))
    return (
        "ok",
        panel.securities,
        np.asarray(panel.ar).view(np.int64).tolist(),
        panel.aar.view(np.int64).tolist(),
        panel.caar.view(np.int64).tolist(),
        tuple(days),
        notes,
    )


@st.composite
def panel_inputs(draw, gaps_outside_window: bool):
    """N assets and a market; assets share the market's dates inside the window."""
    pre, post = draw(st.integers(0, 15)), draw(st.integers(0, 15))
    k = pre + draw(st.integers(0, 140))  # trading days before the window, then the window
    n_days = k + post + 1 + draw(st.integers(0, 20))
    days = weekdays(n_days)
    gap = (days[k] - days[k - 1]).days if k else 3
    event = days[k] - dt.timedelta(days=draw(st.integers(0, gap - 1)))  # rolls forward to k
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    market = rng.normal(0.0003, 0.01, n_days)
    assets = []
    for i in range(draw(st.integers(1, 5))):
        values = rng.uniform(0.3, 1.7) * market + rng.normal(0.0, 0.015, n_days)
        keep = np.ones(n_days, dtype=bool)
        extra = []
        if gaps_outside_window:
            keep = rng.random(n_days) > draw(st.sampled_from([0.0, 0.2, 0.6, 0.97]))
            keep[k - pre : k + post + 1] = True
            extra = [d + dt.timedelta(days=5 - d.weekday()) for d in days if rng.random() < 0.05]
        dated = sorted(
            [(d, v) for d, v, kept in zip(days, values, keep) if kept]
            + [(d, rng.normal(0.0, 0.01)) for d in sorted(set(extra))]
        )
        assets.append(both_series(f"asset{i}", [d for d, _ in dated], [v for _, v in dated]))
    kwargs = {
        "pre_days": pre,
        "post_days": post,
        "risk_free_daily": draw(st.sampled_from([0.0, 0.0002, -0.001])),
        "estimation_window_days": draw(st.sampled_from([1, 3, 10, 120, 120, 500])),
    }
    if draw(st.integers(0, 4)) == 0:
        kwargs["beta_override"] = draw(st.floats(-3.0, 3.0))
    return assets, both_series("market", days, market), event, kwargs


def assert_matches_oracle(inputs):
    assets, market, event, kwargs = inputs
    got = panel_outcome(compute_abnormal_panel, [a for a, _ in assets], market[0], event, **kwargs)
    want = panel_outcome(oracle.compute_abnormal_panel, [o for _, o in assets], market[1], event, **kwargs)
    assert got == want


@settings(max_examples=150, deadline=None)
@given(inputs=panel_inputs(gaps_outside_window=False))
def test_one_calendar_panel_matches_oracle(inputs):
    assert_matches_oracle(inputs)


@settings(max_examples=150, deadline=None)
@given(inputs=panel_inputs(gaps_outside_window=True))
def test_gaps_outside_the_window_match_oracle(inputs):
    assert_matches_oracle(inputs)


@settings(max_examples=100, deadline=None)
@given(inputs=panel_inputs(gaps_outside_window=True), data=st.data())
def test_aar_caar_invariant_under_security_permutation(inputs, data):
    assets, market, event, kwargs = inputs
    assets = [a for a, _ in assets]
    kwargs["estimation_window_days"] = 120
    order = data.draw(st.permutations(range(len(assets))))
    try:
        panel, _, _ = compute_abnormal_panel(assets, market[0], event, **kwargs)
    except ComputationError:
        assume(False)  # too little history before the window
    shuffled, _, _ = compute_abnormal_panel([assets[i] for i in order], market[0], event, **kwargs)
    assert shuffled.securities == tuple(panel.securities[i] for i in order)
    np.testing.assert_array_equal(shuffled.ar, panel.ar[list(order)])
    np.testing.assert_allclose(shuffled.aar, panel.aar, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(shuffled.caar, panel.caar, rtol=0.0, atol=1e-15)


class TestMarketCalendar:
    def _inputs(self, drop):
        days = weekdays(200)
        rng = np.random.default_rng(4)
        market = rng.normal(0.0, 0.01, 200)
        a = ReturnSeries("a", days, 0.8 * market + rng.normal(0.0, 0.01, 200))
        keep = [i for i in range(200) if i not in drop]
        b = ReturnSeries("b", [days[i] for i in keep], (1.1 * market + rng.normal(0.0, 0.01, 200))[keep])
        return [a, b], ReturnSeries("idx", days, market), days

    def test_missing_window_day_is_refused(self):
        assets, market, days = self._inputs(drop={170})
        with pytest.raises(ComputationError) as info:
            compute_abnormal_panel(assets, market, days[160])
        message = str(info.value)
        assert "'b'" in message and days[170].isoformat() in message and "'a'" not in message
        # 0.1.0 stacked b's window one day out of step with a's and returned
        old = [oracle.ReturnSeries(s.instrument_id, tuple(s.dates.tolist()), tuple(s.values)) for s in assets]
        oracle_market = oracle.ReturnSeries("idx", tuple(days), tuple(market.values))
        panel, _, _ = oracle.compute_abnormal_panel(old, oracle_market, days[160])
        assert panel.n_days == 31

    def test_every_missing_window_day_is_named(self):
        assets, market, days = self._inputs(drop={145, 150, 175, 176})
        with pytest.raises(ComputationError) as info:
            compute_abnormal_panel(assets, market, days[160])
        message = str(info.value)
        for i in (145, 150, 175):
            assert days[i].isoformat() in message
        assert days[176].isoformat() not in message  # outside the window

    def test_missing_days_outside_the_window_are_bit_identical(self):
        assets, market, days = self._inputs(drop={3, 40, 41, 100, 144, 176, 199})
        old = [oracle.ReturnSeries(s.instrument_id, tuple(s.dates.tolist()), tuple(s.values)) for s in assets]
        oracle_market = oracle.ReturnSeries("idx", tuple(days), tuple(market.values))
        panel, rel, notes = compute_abnormal_panel(assets, market, days[160])
        want, want_rel, want_notes = oracle.compute_abnormal_panel(old, oracle_market, days[160])
        assert panel.ar.tobytes() == want.ar.tobytes()
        assert panel.aar.tobytes() == want.aar.tobytes()
        assert panel.caar.tobytes() == want.caar.tobytes()
        assert (rel, notes) == (want_rel, want_notes)

    def test_empty_estimation_window_refused(self):
        assets, market, days = self._inputs(drop=set())
        with pytest.raises(InputError, match="estimation_window_days must be >= 1, got 0"):
            compute_abnormal_panel(assets, market, days[160], estimation_window_days=0)

    def test_betas_fit_in_one_call(self, monkeypatch):
        import fractalmark.event_study as es

        calls = []

        def spy(asset, market, risk_free_daily=0.0):
            calls.append(asset.shape)
            return fit_market_model(asset, market, risk_free_daily)

        monkeypatch.setattr(es, "fit_market_model", spy)
        assets, market, days = self._inputs(drop={3})
        compute_abnormal_panel(assets, market, days[160])
        assert calls == [(2, 120)]
