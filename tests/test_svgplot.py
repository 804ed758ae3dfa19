"""The numpy plot-coordinate kernel and ``line_plot_svg`` against the
per-point ``"{:.2f},{:.2f}".format`` path they replaced.

``oracle_pairs`` below is that path, kept as the oracle: the kernel must
give its bytes for every value in its domain, and every plot
``line_plot_svg`` draws must be the plot the oracle draws.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fractalmark import csvio, fif, svgplot
from fractalmark.csvio import fixed_pairs
from fractalmark.errors import InputError
from fractalmark.fixtures import MIXED_ALPHA, nifty50_2024_grid
from fractalmark.svgplot import line_plot_svg


def oracle_pairs(x: np.ndarray, y: np.ndarray) -> str:
    return " ".join(map("{:.2f},{:.2f}".format, x.tolist(), y.tolist()))


def near(values: st.SearchStrategy[float]) -> st.SearchStrategy[float]:
    """Each value, or a double up to 3 ulps from it either way."""

    def step(value: float, ulps: int) -> float:
        for _ in range(abs(ulps)):
            value = float(np.nextafter(value, np.inf if ulps > 0 else -np.inf))
        return value

    return st.builds(step, values, st.integers(-3, 3))


# The kernel's domain: finite values under 10^15 in magnitude.
LIMIT = 1e15
# Exact ties: a value halfway between hundredths is a double only where it
# is an odd multiple of 1/8 (0.125, 78.125, ...).
eighths = st.integers(-(2**40), 2**40).map(lambda k: k / 8)
# What the plot frame gives: 78 + k * 738/6400 is a tie at every odd k,
# before the float product rounds it.
frame_points = st.integers(0, 6400).map(lambda k: 78 + k * 738 / 6400)
thousandths = st.integers(-(10**12), 10**12).map(lambda k: k / 1000)  # 2.675 and kin
powers_of_ten = st.integers(-6, 14).map(lambda e: 10.0**e)
kernel_values = st.one_of(
    near(eighths),
    near(frame_points),
    near(thousandths),
    near(powers_of_ten),
    near(powers_of_ten).map(lambda v: -v),
    st.floats(-0.005, 0.0),  # tiny negatives print as "-0.00"
    st.floats(-LIMIT, LIMIT, allow_nan=False, allow_infinity=False, exclude_min=True,
              exclude_max=True),
)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(kernel_values, max_size=60),
    chunk=st.sampled_from([1, 3, 8, csvio.CHUNK_ROWS]),
)
@example(values=[0.125, 2.675, 78.125, -0.0, -1e-300, 0.375, 5e-324, -0.004999], chunk=3)
@example(values=[999.995, 99.995, 9.995, 0.995, 1e14 - 0.005, 78 + 738 / 6400], chunk=2)
def test_kernel_formats_as_format_2f(values, chunk):
    values = np.array(values + values[:1] if len(values) % 2 else values, dtype=float)
    x, y = values[0::2], values[1::2]
    with mock.patch.object(csvio, "CHUNK_ROWS", chunk):
        assert fixed_pairs(x, y) == oracle_pairs(x, y)


def test_kernel_rounds_ties_to_even_on_the_exact_value():
    x = np.array([0.125, 0.375, 78.125, 2.675, 1.005, -0.0, -1e-300, -0.005])
    assert [pair.split(",")[0] for pair in fixed_pairs(x, x).split(" ")] == [
        "0.12", "0.38", "78.12", "2.67", "1.00", "-0.00", "-0.00", "-0.01",
    ]


def plot_2024(series: str, alpha) -> tuple[np.ndarray, np.ndarray]:
    model = fif.build_fif_model(nifty50_2024_grid(series), alpha)
    plot = fif.evaluate_fif_fixed_point(model, grid_size=6401, tol=1e-9)
    return plot.x, plot.y


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, MIXED_ALPHA], ids=["a0", "a03", "a05", "mixed"])
@pytest.mark.parametrize("series", ["aar", "caar"])
def test_2024_plots_match_the_format_oracle(series, alpha):
    x, y = plot_2024(series, alpha)
    svg = line_plot_svg(x, y, title=series)
    with mock.patch.object(svgplot, "fixed_pairs", oracle_pairs):
        assert svg == line_plot_svg(x, y, title=series)
    points = svg.split('points="')[1].split('"')[0]
    assert len(points.split(" ")) == len(x)


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    xy=st.integers(1, 40).flatmap(
        lambda n: st.tuples(arrays(np.float64, n, elements=finite),
                            arrays(np.float64, n, elements=finite))
    )
)
@example(xy=(np.array([-1e308, 1e308]), np.array([0.0, 1.0])))
@example(xy=(np.array([0.0, 1.0]), np.array([-1e308, 1e308])))
@example(xy=(np.array([0.0, 1e-320]), np.array([5e-324, -5e-324])))
@example(xy=(np.array([0.0, 1.0]), np.array([2.0**52, 2.0**52])))  # y +- 0.5 rounds back to y
def test_every_drawn_plot_matches_the_format_oracle(xy):
    """Whatever ``line_plot_svg`` draws lies in the kernel's domain."""
    x, y = xy
    try:
        svg = line_plot_svg(x, y, title="t")
    except InputError:
        return
    with mock.patch.object(svgplot, "fixed_pairs", oracle_pairs):
        assert svg == line_plot_svg(x, y, title="t")
    assert "nan" not in svg and "inf" not in svg


@pytest.mark.parametrize(
    "x, y, message",
    [
        (np.arange(5.0), np.arange(3.0), "x and y must have equal length, got 5 and 3"),
        (np.zeros((2, 2)), np.zeros((2, 2)), "x and y must be 1-D, got shapes (2, 2) and (2, 2)"),
        (np.array([]), np.array([]), "x and y must hold at least one point"),
        (np.arange(3.0), np.array([0.0, np.nan, 1.0]),
         "x and y must be finite, and so must their ranges"),
        (np.array([0.0, np.inf]), np.zeros(2), "x and y must be finite, and so must their ranges"),
        (np.array([0.0, -np.inf]), np.zeros(2), "x and y must be finite, and so must their ranges"),
        (np.array([-1e308, 1e308]), np.zeros(2),
         "x and y must be finite, and so must their ranges"),
        (np.zeros(2), np.array([-1e308, 1e308]),
         "x and y must be finite, and so must their ranges"),
        (np.array([0.0, 3.6e307]), np.zeros(2),
         "x and y must be finite, and so must their ranges"),
        (np.full(4, 2.0), np.arange(4.0), "x must span a range of nonzero width"),
        (np.array([1.0]), np.array([1.0]), "x must span a range of nonzero width"),
    ],
    ids=["unequal lengths", "2-D", "empty", "NaN in y", "inf in x", "-inf in x",
         "x range overflows", "y range overflows", "x ticks overflow", "constant x",
         "one point"],
)
def test_plots_that_cannot_be_drawn_are_refused(x, y, message):
    with pytest.raises(InputError) as refused:
        line_plot_svg(x, y, title="t")
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "groups, series, y_max, message",
    [
        ([], [("AAR", [])], 2.0, "a bar chart needs at least one group and one series"),
        (["2024"], [], 2.0, "a bar chart needs at least one group and one series"),
        (["2024", "2023"], [("AAR", [1.5])], 2.0, "series 'AAR' has 1 values for 2 groups"),
        (["2024"], [("AAR", [1.5]), ("CAAR", [1.5, 1.6])], 2.0,
         "series 'CAAR' has 2 values for 1 groups"),
        (["2024"], [("AAR", [0.0])], 0.0, "y_max must be finite and positive, got 0.0"),
        (["2024"], [("AAR", [1.5])], -2.0, "y_max must be finite and positive, got -2.0"),
        (["2024"], [("AAR", [1.5])], float("nan"), "y_max must be finite and positive, got nan"),
        (["2024"], [("AAR", [1.5])], float("inf"), "y_max must be finite and positive, got inf"),
    ],
    ids=["no groups", "no series", "short series", "long series", "zero top", "negative top",
         "NaN top", "infinite top"],
)
def test_bar_charts_that_cannot_be_drawn_are_refused(groups, series, y_max, message):
    with pytest.raises(InputError) as refused:
        svgplot.grouped_bar_svg(groups, series, title="t", y_max=y_max)
    assert str(refused.value) == message


def test_all_zero_bars_are_drawn_on_the_given_axis():
    svg = svgplot.grouped_bar_svg(["2024"], [("AAR", [0.0]), ("CAAR", [0.0])], "t", y_max=2.0)
    # the background, two bars and two legend keys
    assert svg.count("<rect") == 5 and svg.count(">0.000</text>") == 2
