"""The streamed attractor against the sort-based generator it replaced.

``generate_attractor_points`` below is the argsort / searchsorted / node-pin
implementation of fractalmark 0.1.0, kept verbatim as the oracle: the block
stream must reproduce its points bit for bit, and the streamed cloud must
reproduce the point count, bounds and box counts of normalizing its sample.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractalmark import fif
from fractalmark.boxdim import (
    StreamedCloud,
    count_boxes,
    estimate_dimension,
    normalize_to_unit_square,
)
from fractalmark.errors import InputError
from fractalmark.event_study import InterpolationData
from fractalmark.fif import (
    DEFAULT_MAX_POINTS,
    AttractorBlocks,
    FifModel,
    GraphSample,
    _drop_seam_twins,
    build_fif_model,
)
from fractalmark.fif import generate_attractor_points as streamed_attractor_points

DEDUP_TOL = 1e-13


def generate_attractor_points(
    model: FifModel, depth: int, max_points: int = DEFAULT_MAX_POINTS
) -> GraphSample:
    """Apply every IFS branch to the node set for ``depth`` rounds.

    Every produced point lies exactly on the attractor graph (up to
    floating-point arithmetic), because the nodes do and the maps send graph
    points to graph points. Output is sorted by x with coincident interval
    endpoints deduplicated; the P+1 data nodes are included exactly.
    """
    if depth < 0:
        raise InputError("depth must be non-negative")
    data = model.data
    p_count = data.intervals
    expected = (p_count + 1) * p_count**depth
    if expected > max_points:
        raise InputError(
            f"depth {depth} would generate ~{expected} points, over the "
            f"budget of {max_points}"
        )
    alpha = model.alpha.as_array()
    a, b = model.a, model.b
    xs = data.x.copy()
    ys = data.y.copy()
    for _ in range(depth):
        new_x = np.empty(len(xs) * p_count)
        new_y = np.empty_like(new_x)
        base_vals = np.asarray(model.base(xs))
        n = len(xs)
        for p in range(p_count):
            lx = a[p] * xs + b[p]
            new_x[p * n : (p + 1) * n] = lx
            new_y[p * n : (p + 1) * n] = (
                alpha[p] * ys + np.asarray(model.germ(lx)) - alpha[p] * base_vals
            )
        xs, ys = new_x, new_y

    # canonical order plus dedup of seam points reached from both sides;
    # exact nodes go first so dedup keeps them
    xs = np.concatenate([data.x, xs])
    ys = np.concatenate([data.y, ys])
    order = np.argsort(xs, kind="stable")
    xs, ys = xs[order], ys[order]
    keep = np.ones(len(xs), dtype=bool)
    keep[1:] = np.diff(xs) > DEDUP_TOL
    xs, ys = xs[keep], ys[keep]
    # pin the node coordinates exactly (a seam twin may have sorted first)
    idx = np.searchsorted(xs, data.x)
    idx = np.clip(idx, 0, len(xs) - 1)
    left = np.clip(idx - 1, 0, len(xs) - 1)
    nearer_left = np.abs(xs[left] - data.x) < np.abs(xs[idx] - data.x)
    idx = np.where(nearer_left, left, idx)
    xs[idx] = data.x
    ys[idx] = data.y
    return GraphSample(x=xs, y=ys, generation=depth, max_error_bound=0.0)


def _partition(draw, p_count):
    """A random partition of [0, 1] into ``p_count`` intervals of width >= 1e-2."""
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=p_count, max_size=p_count)))
    weights = weights + 1e-3  # an all-zero draw gives the uniform partition
    widths = 1e-2 + (1.0 - 1e-2 * p_count) * weights / weights.sum()
    x = np.concatenate([[0.0], np.cumsum(widths)])
    x[-1] = 1.0
    return x


def _scaling(draw, p_count):
    return draw(
        st.lists(st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True),
                 min_size=p_count, max_size=p_count)
    )


@st.composite
def models(draw):
    """Random partitions of [0, 1] (P 2..10, widths >= 1e-2) with signed scaling."""
    p_count = draw(st.integers(2, 10))
    x = _partition(draw, p_count)
    y = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=p_count + 1, max_size=p_count + 1)))
    return build_fif_model(InterpolationData(x, y), _scaling(draw, p_count))


@st.composite
def shallow_models(draw):
    """A model and a depth (0..5) whose stream holds at most about 20,000
    points. The data are random, collinear or flat, around 0 or 1, at unit
    or 1e-12 scale; the scaling is signed, or zero."""
    p_count = draw(st.integers(2, 10))
    x = _partition(draw, p_count)
    shape = draw(st.sampled_from(["random", "collinear", "flat"]))
    if shape == "random":
        u = np.array(
            draw(st.lists(st.floats(-1.0, 1.0), min_size=p_count + 1, max_size=p_count + 1))
        )
    else:
        slope = draw(st.floats(-1.0, 1.0)) if shape == "collinear" else 0.0
        u = draw(st.floats(-1.0, 1.0)) + slope * x
    y = draw(st.sampled_from([0.0, 1.0])) + draw(st.sampled_from([1.0, 1e-12])) * u
    alpha = [0.0] * p_count if draw(st.booleans()) else _scaling(draw, p_count)
    max_depth = 0
    while max_depth < 5 and (p_count + 1) * p_count ** (max_depth + 1) <= 20_000:
        max_depth += 1
    depth = draw(st.integers(0, max_depth))
    return build_fif_model(InterpolationData(x, y), alpha), depth


# one run per piece puts every seam twin across two pieces
PIECE_SIZES = st.sampled_from([1, 50, fif.PIECE_POINTS])


@settings(max_examples=60, deadline=None)
@given(model=models(), depth=st.integers(0, 4), piece=PIECE_SIZES)
def test_blocks_reproduce_the_sorted_sample(model, depth, piece):
    want = generate_attractor_points(model, depth)
    with mock.patch.object(fif, "PIECE_POINTS", piece):
        got = streamed_attractor_points(model, depth)
    assert np.array_equal(got.x, want.x)
    assert np.array_equal(got.y, want.y)


@settings(max_examples=40, deadline=None)
@given(model=models(), depth=st.integers(0, 4), piece=PIECE_SIZES)
def test_streamed_cloud_counts_like_the_normalized_sample(model, depth, piece):
    sample = generate_attractor_points(model, depth)
    want = normalize_to_unit_square(sample.x, sample.y)
    with mock.patch.object(fif, "PIECE_POINTS", piece):
        cloud = StreamedCloud(AttractorBlocks(model, depth))
        assert len(cloud) == len(want)
        assert cloud.original_bounds == want.original_bounds
        assert cloud.degenerate_y == want.degenerate_y
        # levels 0..10 pool a dense bitmap; 14..16 pool sorted cell keys
        for k_min, k_max in ((0, 10), (14, 16)):
            curve = estimate_dimension(cloud, k_min, k_max, min_points_per_box=1).curve
            for level in curve.levels:
                assert level.count == count_boxes(want, level.k)


@settings(max_examples=300, deadline=None)
@given(
    model_depth=shallow_models(),
    piece=st.sampled_from([1, 7, 50, fif.PIECE_POINTS]),
    group=st.sampled_from([1, 3, fif.BOUND_GROUP_RUNS]),
)
def test_length_and_bounds_match_the_stream(model_depth, piece, group):
    model, depth = model_depth
    with mock.patch.object(fif, "PIECE_POINTS", piece), mock.patch.object(
        fif, "BOUND_GROUP_RUNS", group
    ):
        blocks = AttractorBlocks(model, depth)
        x = np.concatenate([x.ravel() for x, _ in blocks])
        y = np.concatenate([y.ravel() for _, y in blocks])
        assert len(blocks) == x.size
        assert blocks.bounds == (x.min(), x.max(), y.min(), y.max())


@pytest.mark.parametrize(
    "level, alpha, depth",
    [(2.09389959e-13, [0.3, 0.5], 4), (0.1, [0.0, 0.5, -0.8125, 0.75, 0.3], 2)],
)
def test_bounds_where_rounding_alone_sets_the_extremes(level, alpha, depth):
    # on flat data every point is the level up to rounding, and the interval
    # bounds round differently from the points they bound
    p_count = len(alpha)
    data = InterpolationData(np.linspace(0.0, 1.0, p_count + 1), np.full(p_count + 1, level))
    with mock.patch.object(fif, "BOUND_GROUP_RUNS", 1):
        blocks = AttractorBlocks(build_fif_model(data, alpha), depth)
        y = np.concatenate([y.ravel() for _, y in blocks])
        assert y.min() < y.max()
        assert blocks.bounds[2:] == (y.min(), y.max())


def _without_seam_twins(x, y, run):
    """The rows left by ``_drop_seam_twins``, read in order, plus the final point."""
    kept_x, kept_y = _drop_seam_twins(x.reshape(-1, run).copy(), y.reshape(-1, run).copy())
    return np.append(kept_x, x[-1]), np.append(kept_y, y[-1])


def test_inverted_seam_keeps_the_smaller_x():
    # two runs whose seam points are one ulp apart, the later one smaller
    seam = 0.5
    x = np.array([0.0, 0.25, seam, np.nextafter(seam, 0.0), 0.75, 1.0])
    y = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    got_x, got_y = _without_seam_twins(x, y, 3)
    order = np.argsort(x, kind="stable")
    keep = np.concatenate([[True], np.diff(x[order]) > DEDUP_TOL])
    assert np.array_equal(got_x, x[order][keep])
    assert np.array_equal(got_y, y[order][keep])
    assert got_y[2] == 3.0


def test_tied_seam_keeps_the_earlier_point():
    x = np.array([0.0, 0.5, 0.5, 1.0])
    got_x, got_y = _without_seam_twins(x, np.array([0.0, 1.0, 2.0, 3.0]), 2)
    assert np.array_equal(got_x, [0.0, 0.5, 1.0])
    assert np.array_equal(got_y, [0.0, 1.0, 3.0])


def test_budget_refused_before_any_block():
    model = build_fif_model(InterpolationData(np.arange(11) / 10, np.arange(11.0) % 3), 0.3)
    with pytest.raises(InputError, match="budget"):
        AttractorBlocks(model, 9, max_points=1_000_000)
