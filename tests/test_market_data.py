import csv
import datetime as dt
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle_v010 as oracle
from fractalmark import market_data
from fractalmark.errors import ComputationError, InputError
from fractalmark.event_study import compute_abnormal_panel
from fractalmark.market_data import (
    PRICE_DTYPE,
    PriceSeries,
    ReturnSeries,
    _csv_text,
    align_on_calendar,
    daily_returns,
    extra_columns,
    parse_price_csv,
    parse_returns_csv,
    serialize_returns_csv,
)


def serialize_price_csv(series: PriceSeries) -> str:
    """Render a price series back to the CSV schema accepted by the parser."""
    bars = series.bars
    return _csv_text("date,open,close", bars["date"], bars["open"], bars["close"])


def make_series(*rows):
    return PriceSeries("test", np.array(list(rows), dtype=PRICE_DTYPE))


def bits(values) -> list[int]:
    """Compare floats by bit pattern: tells -0.0 from 0.0 apart."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def ordinals(dates) -> list[int]:
    return [d.toordinal() for d in np.asarray(dates, dtype="datetime64[D]").tolist()]


class TestParsePriceCsv:
    def test_minimal_valid_file(self):
        series = parse_price_csv("date,open,close\n2024-07-01,100.0,102.0")
        assert len(series.bars) == 1
        bar = series.bars[0]
        assert bar["date"] == np.datetime64("2024-07-01")
        assert bar["open"] == 100.0
        assert bar["close"] == 102.0

    def test_accepts_bytes_and_streams(self, tmp_path):
        text = "date,open,close\n2024-07-01,100.0,102.0\n"
        assert parse_price_csv(text.encode()) == parse_price_csv(text)
        p = tmp_path / "prices.csv"
        p.write_text(text)
        with open(p, "rb") as handle:
            assert parse_price_csv(handle) == parse_price_csv(text)

    def test_duplicate_date_names_row_3(self):
        text = "date,open,close\n2024-07-01,100,101\n2024-07-01,100,101\n"
        with pytest.raises(InputError, match="row 3") as err:
            parse_price_csv(text)
        assert "duplicate date" in str(err.value)

    def test_out_of_order_rows_sorted(self):
        text = (
            "date,open,close\n"
            "2024-07-02,101,103\n"
            "2024-07-01,100,102\n"
            "2024-07-03,99,98\n"
        )
        series = parse_price_csv(text)
        assert np.datetime_as_string(series.dates).tolist() == [
            "2024-07-01",
            "2024-07-02",
            "2024-07-03",
        ]
        assert series.bars["open"].tolist() == [100.0, 101.0, 99.0]

    def test_malformed_number_names_row(self):
        text = "date,open,close\n2024-07-01,100,102\n2024-07-02,oops,103\n"
        with pytest.raises(InputError, match="row 3"):
            parse_price_csv(text)

    def test_unparseable_date_names_row(self):
        with pytest.raises(InputError, match="row 2"):
            parse_price_csv("date,open,close\n01/07/2024,100,102\n")

    def test_non_positive_price_names_row(self):
        with pytest.raises(InputError, match="row 2"):
            parse_price_csv("date,open,close\n2024-07-01,-5,102\n")
        with pytest.raises(InputError, match="row 2"):
            parse_price_csv("date,open,close\n2024-07-01,100,0\n")

    def test_missing_column(self):
        with pytest.raises(InputError, match="close"):
            parse_price_csv("date,open\n2024-07-01,100\n")

    def test_extra_columns_ignored(self):
        text = "date,open,close,high,volume\n2024-07-01,100,102,103,5000\n"
        series = parse_price_csv(text)
        assert series.bars["close"][0] == 102.0
        assert extra_columns(text) == ("high", "volume")

    def test_empty_inputs(self):
        with pytest.raises(InputError):
            parse_price_csv("")
        with pytest.raises(InputError, match="no data rows"):
            parse_price_csv("date,open,close\n")

    def test_roundtrip_identical(self):
        text = (
            "date,open,close\n"
            "2024-07-01,100.25,102.5\n"
            "2024-07-02,102.5,101.75\n"
            "2024-07-03,101.75,104.1\n"
        )
        once = parse_price_csv(text)
        again = parse_price_csv(serialize_price_csv(once))
        assert again == once


class TestTypeInvariants:
    def test_price_bar_rejects_bad_values(self):
        with pytest.raises(InputError):
            make_series(("2024-01-01", -1.0, 10.0))
        with pytest.raises(InputError):
            make_series(("2024-01-01", 10.0, float("nan")))
        with pytest.raises(InputError):
            make_series(("NaT", 10.0, 10.0))

    def test_price_series_rejects_disorder_and_empty(self):
        with pytest.raises(InputError):
            PriceSeries("x", ())
        with pytest.raises(InputError, match="^price series must contain at least one bar$"):
            PriceSeries("x", 5)  # not iterable: numpy reads it as one 0-d record
        with pytest.raises(InputError):
            make_series(("2024-01-02", 1.0, 1.0), ("2024-01-01", 1.0, 1.0))

    def test_return_series_rejects_nonfinite(self):
        with pytest.raises(InputError):
            ReturnSeries("x", (dt.date(2024, 1, 1),), (float("inf"),))

    def test_arrays_are_read_only_copies(self):
        dates = np.array(["2024-01-01", "2024-01-02"], dtype="datetime64[D]")
        values = np.array([0.1, 0.2])
        series = ReturnSeries("x", dates, values)
        values[0] = 9.0
        assert series.values[0] == 0.1
        with pytest.raises(ValueError):
            series.values[0] = 1.0
        with pytest.raises(InputError, match="strictly increasing"):
            ReturnSeries("x", dates[::-1], values)
        with pytest.raises(InputError, match="calendar dates"):
            ReturnSeries("x", np.array(["NaT"], dtype="datetime64[D]"), [0.1])


class TestDailyReturns:
    def test_basic_arithmetic(self):
        series = make_series(
            ("2024-07-01", 100.0, 102.0),
            ("2024-07-02", 50.0, 50.0),
            ("2024-07-03", 80.0, 76.0),
        )
        returns = daily_returns(series)
        assert returns.values[0] == pytest.approx(0.02, abs=1e-15)
        assert returns.values[1] == 0.0
        # hand arithmetic: (76 - 80) / 80
        assert returns.values[2] == pytest.approx(-0.05, abs=1e-15)

    def test_length_and_dates_preserved(self):
        series = make_series(
            ("2024-07-01", 100.0, 101.0),
            ("2024-07-02", 101.0, 99.5),
        )
        returns = daily_returns(series)
        assert len(returns) == len(series.bars)
        assert np.array_equal(returns.dates, series.dates)
        assert returns.instrument_id == series.instrument_id

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        opens = rng.uniform(50.0, 50_000.0, 200)
        closes = opens * rng.uniform(0.9, 1.1, 200)
        dates = np.datetime64("2020-01-01") + np.arange(200)
        for scale in (2.0**10, 0.001, 3.7, 123.456):
            bars = np.zeros(200, dtype=PRICE_DTYPE)
            bars["date"], bars["open"], bars["close"] = dates, opens, closes
            scaled = bars.copy()
            scaled["open"], scaled["close"] = scale * opens, scale * closes
            r1 = daily_returns(PriceSeries("raw", bars))
            r2 = daily_returns(PriceSeries("scaled", scaled))
            np.testing.assert_allclose(r2.values, r1.values, rtol=0, atol=1.5e-15)


class TestAlign:
    def _series(self, name, start_day, values):
        dates = tuple(dt.date(2024, 7, start_day + i) for i in range(len(values)))
        return ReturnSeries(name, dates, tuple(values))

    def test_intersection(self):
        a = self._series("a", 1, [0.01, 0.02, 0.03])
        b = self._series("b", 2, [0.1, 0.2, 0.3])
        values, present = align_on_calendar([a, b], b.dates)
        assert present.tolist() == [[True, True, False], [True, True, True]]
        assert values[0, :2].tolist() == [0.02, 0.03]
        assert np.isnan(values[0, 2])
        assert values[1].tolist() == [0.1, 0.2, 0.3]
        values, present = align_on_calendar([b], a.dates)
        assert present.tolist() == [[False, True, True]]
        assert values[0, 1:].tolist() == [0.1, 0.2]

    def test_identical_sets_identity(self):
        a = self._series("a", 1, [0.01, 0.02])
        b = self._series("b", 1, [0.05, 0.06])
        values, present = align_on_calendar([a, b], a.dates)
        assert present.all()
        assert bits(values[0]) == bits(a.values)
        assert bits(values[1]) == bits(b.values)

    def test_disjoint_sets_error(self):
        a = self._series("a", 1, [0.01, 0.02, 0.03])
        b = self._series("b", 10, [0.05, 0.06, 0.07])
        values, present = align_on_calendar([a], b.dates)
        assert not present.any() and np.isnan(values).all()
        with pytest.raises(ComputationError, match="no return on"):
            compute_abnormal_panel([a], b, b.dates[0], pre_days=0, post_days=0)


class TestReturnsCsv:
    def test_roundtrip_identical(self):
        series = daily_returns(
            make_series(("2024-07-01", 100.0, 102.0), ("2024-07-02", 99.0, 97.3))
        )
        parsed = parse_returns_csv(serialize_returns_csv(series), instrument_id="test")
        assert parsed == series

    def test_full_precision_survives(self):
        value = 1.0 / 3.0 - 0.21
        series = ReturnSeries("t", (dt.date(2024, 1, 1),), (value,))
        parsed = parse_returns_csv(serialize_returns_csv(series), instrument_id="t")
        assert parsed.values[0] == value

    def test_short_row_refused_by_field_count(self):
        # 0.1.0 let the IndexError escape here
        with pytest.raises(IndexError):
            oracle.parse_returns_csv("date,return\n2024-01-01\n")
        with pytest.raises(InputError, match=r"^row 2: expected 2 fields, got 1$"):
            parse_returns_csv("date,return\n2024-01-01\n")


# --- against the 0.1.0 parsers ----------------------------------------------

DATES = ["2024-07-01", "2024-07-02", "2024-07-03", "2024-07-04", "2023-12-31", "2024-02-29"]
date_token = st.one_of(
    st.sampled_from(DATES),
    st.sampled_from(DATES).map(lambda d: f" {d}\t"),
    st.sampled_from([
        "20240705", "2024-W27-5", "01/07/2024", "2024-02-30", "2024-7-1", "", " ", "x",
        '"2024-07-06"', "0001-01-01", "9999-12-31",
        # forms numpy reads as dates, otherwise than date.fromisoformat
        "2024-07", "2024", "NaT", "today", "now", "+2024-07-01", "2024-07-01T00:00",
        "0000-01-01", "10000-01-01",
    ]),
)
number_token = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(min_value=1e-3, max_value=1e5).map("{:.2f}".format),
    st.sampled_from([
        "0", "-5", "+7", "nan", "-inf", "1e400", " 2.5 ", "\t3\t", '"4.25"', "1_0", "١",
        "", " ", "abc", "1,5", "0x10", "1e", "-0.0", "5e-324",
    ]),
)
PRICE_HEADERS = [
    "date,open,close", "close,open,date", "date,open,close,volume", " date , close,open",
    "open,date,close,,", "date,open",
]
RETURN_HEADERS = ["date,return", "return,date", "date,return,note", "x,return,date", "date,value"]


@st.composite
def csv_texts(draw, headers) -> str:
    header = draw(st.sampled_from(headers))
    width = len(header.split(","))
    rows = [header]
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["full"] * 6 + ["blank", "spaces", "commas", "short", "long"]))
        if kind == "blank":
            rows.append("")
        elif kind == "spaces":
            rows.append(draw(st.sampled_from([" ", "\t", " , ,"])))
        elif kind == "commas":
            rows.append("," * draw(st.integers(1, width)))
        else:
            size = {"full": width, "short": draw(st.integers(1, max(1, width - 1)))}.get(
                kind, width + 1
            )
            fields = [draw(number_token) for _ in range(size)]
            names = [name.strip() for name in header.split(",")]
            if "date" in names and names.index("date") < size:
                fields[names.index("date")] = draw(date_token)
            rows.append(",".join(fields))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(rows) + draw(st.sampled_from([newline, ""]))


def price_outcome(parse, text):
    try:
        series = parse(text)
    except InputError as exc:
        return ("refused", str(exc))
    if isinstance(series.bars, np.ndarray):
        cols = [ordinals(series.bars["date"]), bits(series.bars["open"]), bits(series.bars["close"])]
    else:
        cols = [
            [bar.date.toordinal() for bar in series.bars],
            bits([bar.open for bar in series.bars]),
            bits([bar.close for bar in series.bars]),
        ]
    return ("read", *cols)


def returns_outcome(parse, text):
    try:
        series = parse(text)
    except InputError as exc:
        return ("refused", str(exc))
    except IndexError:
        return ("short row",)
    return ("read", ordinals(series.dates), bits(series.values))


@settings(max_examples=400, deadline=None)
@given(text=csv_texts(PRICE_HEADERS))
def test_price_parser_matches_oracle(text):
    assert price_outcome(parse_price_csv, text) == price_outcome(oracle.parse_price_csv, text)


@settings(max_examples=400, deadline=None)
@given(text=csv_texts(RETURN_HEADERS))
def test_returns_parser_matches_oracle(text):
    got = returns_outcome(parse_returns_csv, text)
    want = returns_outcome(oracle.parse_returns_csv, text)
    if want == ("short row",):
        assert got[0] == "refused" and "fields, got" in got[1]
    else:
        assert got == want


day_sets = st.sets(st.integers(1, 3_652_059), min_size=1, max_size=30).map(sorted)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), days=day_sets)
def test_price_csv_round_trip_is_bit_exact(data, days):
    positive = st.floats(min_value=5e-324, allow_infinity=False, allow_nan=False)
    bars = np.zeros(len(days), dtype=PRICE_DTYPE)
    bars["date"] = np.array(days) - 719163
    bars["open"] = data.draw(st.lists(positive, min_size=len(days), max_size=len(days)))
    bars["close"] = data.draw(st.lists(positive, min_size=len(days), max_size=len(days)))
    series = PriceSeries("p", bars)
    parsed = parse_price_csv(serialize_price_csv(series), instrument_id="p")
    assert parsed.bars.tobytes() == series.bars.tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), days=day_sets)
def test_returns_csv_round_trip_is_bit_exact(data, days):
    finite = st.floats(allow_infinity=False, allow_nan=False)
    values = data.draw(st.lists(finite, min_size=len(days), max_size=len(days)))
    series = ReturnSeries("r", np.array(days) - 719163, values)
    parsed = parse_returns_csv(serialize_returns_csv(series), instrument_id="r")
    assert ordinals(parsed.dates) == days
    assert bits(parsed.values) == bits(values)


@pytest.mark.parametrize(
    "text, message",
    [
        ("date,open,close\n2024-07-01,1,2\n2024-07-01,x,2\n",
         "row 3: duplicate date 2024-07-01 (first seen at row 2)"),
        ("date,open,close\n2024-07-01,-1,x\n", "row 2: non-positive open price '-1'"),
        ("date,open,close\n2024-07-01,1,2\n2024-07-02,0,2\n2024-07-03,x,2\n",
         "row 3: non-positive open price '0'"),
        ("date,open,close,v\n2024-07-01,1,2,3\n2024-07-02, 1 ,2\n",
         "row 3: expected 4 fields, got 3"),
        ("date,open,close\n 2024-07-01 , nan ,2\n", "row 2: non-positive open price 'nan'"),
        ("date,return\n 2024-07-01 ,0.1\n x ,0.1\n", "row 3: unparseable date ' x '"),
        ("date,return\n2024-07-01, y \n", "row 2: malformed number ' y ' in column 'return'"),
        ("date,return\n2024-07-02,0.1\n2024-07-01,nan\n", "returns must be finite, got nan"),
        ("date,open,close\n2024-07-01,-1,2\n2024-07-01,1,2\n",
         "row 2: non-positive open price '-1'"),
        ("return,date\n0.1\n", "row 2: expected 2 fields, got 1"),
        pytest.param(
            "date,open,close\n2024-07-01,1,2\n2024-07-02,1," + "9" * 200_000 + "x\n",
            "row 3: field larger than field limit (131072)",
            id="long-price-field",
        ),
        pytest.param(
            "date,return\n2024-07-01,0.1\n" + "d" * 200_000 + ",0.2\n",
            "row 3: field larger than field limit (131072)",
            id="long-return-field",
        ),
    ],
)
def test_refusal_order_and_wording(text, message):
    parse = parse_returns_csv if "return" in text else parse_price_csv
    old = oracle.parse_returns_csv if "return" in text else oracle.parse_price_csv
    with pytest.raises(InputError) as info:
        parse(text)
    assert str(info.value) == message
    if "field limit" in message:
        # 0.1.0 let csv's own error escape
        with pytest.raises(csv.Error, match=re.escape(message.partition(": ")[2])):
            old(text)
        return
    if message.endswith("fields, got 1") and parse is parse_returns_csv:
        # 0.1.0 read a short returns row unchecked, as the oracle tests expect
        with pytest.raises(IndexError):
            old(text)
        return
    with pytest.raises(InputError) as info:
        old(text)
    assert str(info.value) == message


# --- the numpy tier against the row loop ------------------------------------


def row_loop_outcome(outcome, parse, text):
    """``outcome`` of ``parse`` with the numpy tier declining every file."""
    with mock.patch.object(market_data, "_load_columns", return_value=None):
        return outcome(parse, text)


def plain_price_text(days, opens, closes) -> str:
    """A price file as the benchmark's panel writes one."""
    rows = (f"{d},{o:.2f},{c:.2f}" for d, o, c in zip(days, opens, closes))
    return "\n".join(["date,open,close", *rows]) + "\n"


def test_plain_files_skip_the_row_loop():
    rng = np.random.default_rng(3)
    days = np.datetime64("2022-06-01") + np.arange(400)
    opens = rng.uniform(50.0, 3000.0, 400)
    bench_like = plain_price_text(days, opens, opens * rng.uniform(0.95, 1.05, 400))
    returns = serialize_returns_csv(ReturnSeries("r", days, rng.normal(0.0, 0.01, 400)))
    # columns in another order, an extra column, rows out of order, an empty
    # line and no final newline
    reordered = "close,volume,date,open\n2.5,7,2024-07-02,2\n\n1.25,8,2024-07-01,1e-3"
    texts = [
        (price_outcome, parse_price_csv, bench_like),
        (returns_outcome, parse_returns_csv, returns),
        (price_outcome, parse_price_csv, reordered),
    ]
    with mock.patch.object(market_data, "_columns", side_effect=AssertionError("row loop")):
        got = [outcome(parse, text) for outcome, parse, text in texts]
    assert got == [row_loop_outcome(*case) for case in texts]
    assert got[0][0] == got[2][0] == "read" and len(got[0][1]) == 400


PRICE_READ = (0, {"open": 1, "close": 2})
RETURN_READ = (0, {"return": 1})


@pytest.mark.parametrize(
    "text",
    [
        # dates numpy reads, each otherwise than date.fromisoformat, and one
        # the row loop strips
        *(f"date,open,close\n{day},1,2\n" for day in [
            "20240705", "2024-07", "2024", "NaT", "today", "now", "+2024-07-01",
            "2024-07-01T00:00", "0000-01-01", "10000-01-01", " 2024-07-01",
        ]),
        "date,return\n2024-07-01,0.1\n20240702,0.2\n",
        # a row with more or fewer fields than the header
        "date,open,close\n2024-07-01,1,2\n2024-07-02,1,2,3\n",
        "date,open,close\n2024-07-01,1,2\n2024-07-02,1\n",
        "date,return\n2024-07-01,0.1,note\n",
        # a whitespace-only row, which the row loop skips
        "date,open,close\n2024-07-01,1,2\n \t\n2024-07-02,1,2\n",
        # a duplicate date
        "date,open,close\n2024-07-01,1,2\n2024-07-01,1,2\n",
        "date,return\n2024-07-01,0.1\n2024-07-01,0.1\n",
        # a price that is not finite and > 0
        *(f"date,open,close\n2024-07-01,1,{close}\n" for close in ["nan", "inf", "0", "-1"]),
        # no data row: numpy would warn
        "date,open,close\n", "date,open,close\n\n\n", "date,return",
        # text a comma and newline split would read otherwise than csv
        'date,open,close\n2024-07-01,"1",2\n', "date,open,close\r\n2024-07-01,1,2\r\n",
        "date,open,close\n2024-07-01,1,2\x1c\n", "date,open,close\n2024-07-01,1,\u0662\n",
    ],
)
def test_numpy_tier_declines_what_the_row_loop_must_decide(text):
    parse, outcome, read = (
        (parse_returns_csv, returns_outcome, RETURN_READ) if "return" in text
        else (parse_price_csv, price_outcome, PRICE_READ)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert market_data._load_columns(text, *read, positive=parse is parse_price_csv) is None
        got = outcome(parse, text)
    assert got == row_loop_outcome(outcome, parse, text)


@st.composite
def plain_texts(draw):
    """Files the numpy tier reads: any column order, an extra column, rows in
    any order, empty lines and any final newline."""
    header = draw(st.sampled_from(
        ["date,open,close", "close,volume,date,open", "date,return", "note,return,date"]
    ))
    names = header.split(",")
    days = draw(day_sets)
    positive = st.floats(min_value=5e-324, allow_infinity=False)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    kinds = {"open": positive, "close": positive, "return": finite}
    rows = []
    for day in draw(st.permutations(days)):
        fields = [dt.date.fromordinal(day).isoformat() if name == "date"
                  else repr(draw(kinds.get(name, st.floats()))) for name in names]
        rows += [",".join(fields)] + [""] * draw(st.integers(0, 1))
    return "\n".join([header, *rows]) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=200, deadline=None)
@given(text=plain_texts())
def test_numpy_tier_reads_plain_files_as_the_row_loop(text):
    names = text.partition("\n")[0].split(",")
    parse, outcome = (
        (parse_returns_csv, returns_outcome) if "return" in names
        else (parse_price_csv, price_outcome)
    )
    with mock.patch.object(market_data, "_columns", side_effect=AssertionError("row loop")):
        got = outcome(parse, text)
    assert got[0] == "read"
    assert got == row_loop_outcome(outcome, parse, text)
