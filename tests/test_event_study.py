import datetime as dt
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracle_v010 as oracle
from fractalmark.errors import ComputationError, InputError
from fractalmark.event_study import (
    AbnormalReturnPanel,
    InterpolationData,
    abnormal_returns,
    build_panel,
    compute_abnormal_panel,
    fit_market_model,
    panel_csv,
    subsample_to_grid,
)
from fractalmark.fixtures import nifty50_2024_grid, nifty50_2024_panel
from fractalmark.market_data import PriceSeries, ReturnSeries

RAGGED = "abnormal-return matrix must be rectangular (ragged input?)"


def series_from(values, name="s", start=dt.date(2024, 1, 1)):
    dates = tuple(start + dt.timedelta(days=i) for i in range(len(values)))
    return ReturnSeries(name, dates, tuple(float(v) for v in values))


def market_model(asset, market):
    """One security's (beta, intercept), from ``fit_market_model``."""
    beta, intercept = fit_market_model(np.array([asset], float), np.array([market], float))
    return float(beta[0]), float(intercept[0])


class TestEstimateCapm:
    """Each beta's market-model fit: by ``fit_market_model``, and by
    ``compute_abnormal_panel`` where the dates are paired first."""

    def test_asset_equals_market(self):
        market = [0.01, -0.02, 0.005, 0.0, 0.015]
        beta, intercept = market_model(market, market)
        assert beta == pytest.approx(1.0, abs=1e-12)
        assert intercept == pytest.approx(0.0, abs=1e-12)

    def test_constant_asset_gives_zero_beta(self):
        beta, _ = market_model([0.0, 0.0, 0.0, 0.0], [0.01, -0.02, 0.005, 0.003])
        assert beta == pytest.approx(0.0, abs=1e-12)

    def test_exact_linear_relation(self):
        # closed-form OLS on exactly linear data recovers slope and intercept
        rng = np.random.default_rng(5)
        m = rng.normal(0.0, 0.01, 50)
        beta, intercept = market_model(2.0 * m + 0.001, m)
        assert beta == pytest.approx(2.0, abs=1e-12)
        assert intercept == pytest.approx(0.001, abs=1e-14)

    def test_zero_variance_market_degenerate(self):
        with pytest.raises(ComputationError, match="degenerate"):
            market_model([0.0, 0.1, 0.2, 0.3], [0.01, 0.01, 0.01, 0.01])

    def test_too_few_observations(self):
        # a one-day window on the third date leaves two paired dates before it
        market = series_from([0.2, 0.1, 0.3], "m")
        with pytest.raises(ComputationError, match="only 2 trading days"):
            compute_abnormal_panel(
                [series_from([0.1, 0.2, 0.4])], market, dt.date(2024, 1, 3), pre_days=0, post_days=0
            )

    def test_affine_equivariance(self):
        rng = np.random.default_rng(17)
        m = rng.normal(0.0, 0.01, 120)
        a = 1.3 * m + rng.normal(0.0, 0.002, 120)
        beta, intercept = market_model(a, m)
        for shift in (0.004, -0.02, 1.5):
            shifted_beta, shifted_intercept = market_model(a + shift, m)
            assert shifted_beta == pytest.approx(beta, abs=1e-12)
            assert shifted_intercept - intercept == pytest.approx(shift, abs=1e-12 * max(1, abs(shift)))

    def test_aligns_mismatched_dates(self):
        # the asset misses the market's first date and follows the market up
        # to the event day, where it returns 0: beta 1, so AR = -r_m there
        m = series_from([0.01, 0.02, -0.01, 0.005, 0.01], "m")
        a = ReturnSeries("a", m.dates[1:], (0.02, -0.01, 0.005, 0.0))
        panel, _, _ = compute_abnormal_panel([a], m, dt.date(2024, 1, 5), pre_days=0, post_days=0)
        assert panel.ar[0, 0] == pytest.approx(-0.01, abs=1e-14)


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
            (0.5, "must be rectangular (ragged input?)"),
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

    def test_finite_check_comes_before_the_label_count(self):
        with pytest.raises(InputError, match="abnormal returns must be finite"):
            build_panel([[float("nan")]], ["a", "b"])

    def test_panel_derives_aar_and_caar(self):
        ar = np.array([[0.1, -0.2, 0.3], [0.3, 0.0, -0.1]])
        panel = AbnormalReturnPanel(("a", "b"), ar)
        assert panel.aar.tobytes() == ar.mean(axis=0).tobytes()
        assert panel.caar.tobytes() == np.cumsum(ar.mean(axis=0)).tobytes()
        with pytest.raises(TypeError):
            AbnormalReturnPanel(("a", "b"), ar, panel.aar, panel.caar)

    def test_panel_holds_a_read_only_copy(self):
        ar = np.array([[0.1, 0.2], [0.3, 0.4]])
        panel = build_panel(ar)
        ar[0, 0] = 9.0
        assert panel.ar[0, 0] == 0.1 and panel.aar[0] == pytest.approx(0.2)
        with pytest.raises(ValueError):
            panel.ar[0, 0] = 9.0

    def test_telescoping_exact(self):
        rng = np.random.default_rng(9)
        panel = build_panel(rng.normal(0, 0.01, (4, 40)))
        total = 0.0
        for v in panel.aar:
            total += v
        assert panel.caar[-1] == total
        np.testing.assert_allclose(np.diff(panel.caar), panel.aar[1:], atol=1e-16)
        assert panel.caar[0] == panel.aar[0]


class TestPanelWindow:
    """The window ``compute_abnormal_panel`` takes on the market's calendar.

    With zero asset returns and beta 1 the abnormal return is -r_m, and the
    market's returns are distinct, so each AR names the date it was taken on.
    """

    def _trading_series(self, n, start=dt.date(2024, 1, 1)):
        # weekdays only, to exercise the non-trading-day rolls
        dates = []
        d = start
        while len(dates) < n:
            if d.weekday() < 5:
                dates.append(d)
            d += dt.timedelta(days=1)
        return ReturnSeries("idx", tuple(dates), tuple(0.001 * i for i in range(n)))

    def _panel(self, market, event_date, pre_days, post_days):
        asset = ReturnSeries("a", market.dates, np.zeros(len(market)))
        return compute_abnormal_panel(
            [asset], market, event_date, pre_days, post_days, beta_override=1.0
        )

    def test_full_31_day_series(self):
        market = self._trading_series(31)
        panel, days, _ = self._panel(market, market.dates[15].item(), 15, 15)
        assert np.array_equal(-panel.ar[0], market.values)
        assert days == tuple(range(-15, 16))

    def test_event_on_non_trading_day_rolls_forward(self):
        market = self._trading_series(40)
        start = market.dates[20].item()
        saturday = next(d for d in (start + dt.timedelta(days=i) for i in range(7)) if d.weekday() == 5)
        panel, days, _ = self._panel(market, saturday, 5, 5)
        assert days == tuple(range(-5, 6))
        day0 = int(np.flatnonzero(market.values == -panel.ar[0, 5])[0])
        assert market.dates[day0].item() == saturday + dt.timedelta(days=2)  # the Monday
        assert np.array_equal(-panel.ar[0], market.values[day0 - 5 : day0 + 6])

    def test_insufficient_history(self):
        market = self._trading_series(20)
        with pytest.raises(ComputationError, match="need 15"):
            self._panel(market, market.dates[10].item(), 15, 5)
        with pytest.raises(ComputationError, match="after"):
            self._panel(market, market.dates[15].item(), 5, 15)

    def test_no_trading_day_on_or_after_the_event(self):
        market = self._trading_series(20)
        late = market.dates[-1].item() + dt.timedelta(days=1)
        with pytest.raises(ComputationError, match=f"no trading day on or after {late} in series 'idx'"):
            self._panel(market, late, 5, 0)

    def test_negative_window_refused(self):
        market = self._trading_series(20)
        with pytest.raises(InputError, match="pre_days and post_days must be non-negative"):
            self._panel(market, market.dates[10].item(), -1, 5)

    @pytest.mark.parametrize("beta_override", [None, 1.0])
    @pytest.mark.parametrize("risk_free_daily", [float("nan"), float("inf")])
    def test_non_finite_risk_free_refused_up_front(self, beta_override, risk_free_daily):
        market = self._trading_series(40)
        asset = ReturnSeries("a", market.dates, np.zeros(len(market)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="^risk_free_daily must be finite$"):
                compute_abnormal_panel(
                    [asset], market, market.dates[20].item(), 5, 5,
                    risk_free_daily=risk_free_daily, beta_override=beta_override,
                )

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_non_finite_beta_refused(self, beta):
        market = self._trading_series(40)
        asset = ReturnSeries("a", market.dates, np.zeros(len(market)))
        with pytest.raises(InputError, match="^beta must be finite$"):
            compute_abnormal_panel([asset], market, market.dates[20].item(), 5, 5, beta_override=beta)


@pytest.mark.parametrize(
    "build, args, message",
    [
        (PriceSeries, ("a", ("2024-01-01", 1.0, 2.0)), "bars must be (date, open, close) records"),
        (PriceSeries, ("a", [("2024-01-01", 1.0)]), "bars must be (date, open, close) records"),
        (ReturnSeries, ("a", ["2024-13-01"], [1.0]), "return dates must be calendar dates"),
        (ReturnSeries, ("a", ["2024-01-01"], [object()]), "returns must be numbers"),
        (AbnormalReturnPanel, (("a", "b"), [[1.0, 2.0], [3.0]]), RAGGED),
        (AbnormalReturnPanel, (("a",), [["x", 1.0]]), "abnormal returns must be numbers"),
        (InterpolationData, ([0, 0.5, 1], [1, "a", 3]), "interpolation data must be numbers"),
        (InterpolationData, ([0, 0.5, 1j], [1, 2, 3]), "interpolation data must be numbers"),
    ],
    ids=["price record", "price fields", "return date", "return value", "ragged panel",
         "panel entry", "interpolation y", "interpolation x"],
)
def test_arrays_numpy_cannot_convert_are_refused(build, args, message):
    with pytest.raises(InputError) as refused:
        build(*args)
    assert str(refused.value) == message
    assert isinstance(refused.value.__cause__, (TypeError, ValueError))


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

    def test_holds_read_only_copies(self):
        x, y = np.linspace(0.0, 1.0, 11), np.sin(np.arange(11.0))
        data = InterpolationData(x, y)
        y[3] = 5.0
        assert data.y[3] == np.sin(3.0)
        with pytest.raises(ValueError, match="read-only"):
            data.x[1] = 0.2
        with pytest.raises(ValueError, match="read-only"):
            data.y[1] = 0.2


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
