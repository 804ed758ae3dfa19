"""The streamed attractor against the sort-based generator it replaced.

``generate_attractor_points`` below is the argsort / searchsorted / node-pin
implementation of fractalmark 0.1.0, kept verbatim as the oracle: the block
stream must reproduce its points bit for bit, and the streamed cloud must
reproduce the point count, bounds and box counts of normalizing its sample.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fractalmark import csvio, fif
from fractalmark.boxdim import (
    HeldBlocks,
    StreamedCloud,
    count_boxes,
    estimate_dimension,
    normalize_to_unit_square,
)
from fractalmark.csvio import write_xy_csv
from fractalmark.errors import ComputationError, InputError
from fractalmark.event_study import InterpolationData
from fractalmark.fif import (
    MAX_POINTS,
    AttractorBlocks,
    FifModel,
    GraphSample,
    _branch_image,
    _seams,
    build_fif_model,
)
from fractalmark.fif import generate_attractor_points as streamed_attractor_points
from fractalmark.fixtures import MIXED_ALPHA, nifty50_2024_grid
from fractalmark.report import Settings, run_report

DEDUP_TOL = 1e-13


def generate_attractor_points(
    model: FifModel, depth: int, max_points: int = MAX_POINTS
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
PIECE_SIZES = st.sampled_from([1, 7, 50, fif.PIECE_POINTS])


@settings(max_examples=60, deadline=None)
@given(model=models(), depth=st.integers(0, 4), piece=PIECE_SIZES)
# the report's own models at depth 5: 2024 CAAR at 0.5, which fif-export
# writes, and AAR at 0.3
@example(model=build_fif_model(nifty50_2024_grid("caar"), 0.5), depth=5, piece=fif.PIECE_POINTS)
@example(model=build_fif_model(nifty50_2024_grid("aar"), 0.3), depth=5, piece=fif.PIECE_POINTS)
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
    # levels 0..10 pool a dense bitmap; 14..16 pool sorted cell keys. The
    # oracle's counts are taken before the patch, which would cut the held
    # sample into views of ``piece`` points too
    k_ranges = ((0, 10), (14, 16))
    want_counts = {k: count_boxes(want, k) for lo, hi in k_ranges for k in range(lo, hi + 1)}
    with mock.patch.object(fif, "PIECE_POINTS", piece):
        cloud = StreamedCloud(AttractorBlocks(model, depth))
        assert len(cloud) == len(want)
        assert cloud.original_bounds == want.original_bounds
        assert cloud.degenerate_y == want.degenerate_y
        for k_min, k_max in k_ranges:
            curve = estimate_dimension(cloud, k_min, k_max, min_points_per_box=1).curve
            for level in curve.levels:
                assert level.count == want_counts[level.k]


# the descent's hard cases, 2024 CAAR at depth 5: alpha 0.9, where most
# boxes overlap the extremes, on both bases; all-negative scaling; the
# mixed scaling. With 50-point pieces the top level is level 1, three
# levels above the runs the descent splits down to
HARD_MODELS = [
    (build_fif_model(nifty50_2024_grid("caar"), alpha, base=base), 5)
    for alpha, base in [(0.9, "square"), (0.9, "chord"), (-0.5, "square"), (MIXED_ALPHA, "square")]
]


@settings(max_examples=300, deadline=None)
@given(model_depth=shallow_models(), piece=st.sampled_from([1, 7, 50, fif.PIECE_POINTS]))
@example(model_depth=HARD_MODELS[0], piece=fif.PIECE_POINTS)
@example(model_depth=HARD_MODELS[1], piece=fif.PIECE_POINTS)
@example(model_depth=HARD_MODELS[2], piece=fif.PIECE_POINTS)
@example(model_depth=HARD_MODELS[3], piece=fif.PIECE_POINTS)
@example(model_depth=HARD_MODELS[1], piece=50)
def test_length_and_bounds_match_the_stream(model_depth, piece):
    model, depth = model_depth
    # the stream is taken before the patch: walking it in one-run chunks
    # re-walks level depth - 1 for every branch
    want = streamed_attractor_points(model, depth)
    with mock.patch.object(fif, "PIECE_POINTS", piece):
        blocks = AttractorBlocks(model, depth)
        assert len(blocks) == want.x.size
        assert blocks.bounds == (want.x.min(), want.x.max(), want.y.min(), want.y.max())


def flat_model(level, alpha, intervals=10):
    return build_fif_model(
        InterpolationData(np.linspace(0.0, 1.0, intervals + 1), np.full(intervals + 1, level)), alpha
    )


@settings(max_examples=200, deadline=None)
@given(
    model_depth=shallow_models(),
    k_max=st.integers(0, 10),
    piece=st.sampled_from([1, 7, fif.PIECE_POINTS]),
)
# flat data whose y-range is one ulp of rounding: counted as constant y
@example(model_depth=(flat_model(0.1, 0.5), 4), k_max=8, piece=fif.PIECE_POINTS)
@example(model_depth=HARD_MODELS[0], k_max=8, piece=fif.PIECE_POINTS)
@example(model_depth=HARD_MODELS[1], k_max=8, piece=fif.PIECE_POINTS)
@example(model_depth=HARD_MODELS[2], k_max=8, piece=fif.PIECE_POINTS)
@example(model_depth=HARD_MODELS[3], k_max=10, piece=fif.PIECE_POINTS)
@example(model_depth=HARD_MODELS[0], k_max=8, piece=50)
def test_occupancy_equals_the_scatter_of_the_stream(model_depth, k_max, piece):
    model, depth = model_depth
    m = 1 << k_max
    want = streamed_attractor_points(model, depth)
    scattered = StreamedCloud(HeldBlocks(want.x, want.y))
    with mock.patch.object(fif, "PIECE_POINTS", piece):
        cloud = StreamedCloud(AttractorBlocks(model, depth))
        got = cloud.occupancy(m)
    assert scattered.original_bounds == cloud.original_bounds
    assert scattered.degenerate_y == cloud.degenerate_y
    assert np.array_equal(got, scattered.occupancy(m))


def test_occupancy_quantizes_boxes_past_a_subnormal_y_range():
    # the y-range is 2.2e-320, so a box end a margin away from it overflows
    # when rescaled; it quantizes as the bound it lies past
    data = InterpolationData(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.0, 2.2253e-320]))
    blocks = AttractorBlocks(build_fif_model(data, [0.0, 0.0]), 1)
    x = np.concatenate([x.ravel() for x, _ in blocks])
    y = np.concatenate([y.ravel() for _, y in blocks])
    cloud = StreamedCloud(blocks)
    for m in (1, 4):
        assert np.array_equal(cloud.occupancy(m), StreamedCloud(HeldBlocks(x, y)).occupancy(m))


@pytest.mark.parametrize(
    "level, alpha, depth",
    [(2.09389959e-13, [0.3, 0.5], 4), (0.1, [0.0, 0.5, -0.8125, 0.75, 0.3], 2)],
)
def test_bounds_where_rounding_alone_sets_the_extremes(level, alpha, depth):
    # on flat data every point is the level up to rounding, and the interval
    # bounds round differently from the points they bound
    p_count = len(alpha)
    data = InterpolationData(np.linspace(0.0, 1.0, p_count + 1), np.full(p_count + 1, level))
    blocks = AttractorBlocks(build_fif_model(data, alpha), depth)
    y = np.concatenate([y.ravel() for _, y in blocks])
    assert y.min() < y.max()
    assert blocks.bounds[2:] == (y.min(), y.max())


def test_bounds_take_the_seam_twin_the_stream_keeps():
    # the maximum is a seam twin: the last point of one run, kept for being
    # left of the next run's first point and a few ulps above it
    data = InterpolationData(
        np.array([0.0, 0.26277808360110744, 1.0]),
        np.array([0.107505564328773, -0.06701877636702977, -0.5566454877838061]),
    )
    model = build_fif_model(data, [-0.7233612261907687, -0.8556022045025979])
    want = streamed_attractor_points(model, 4)
    for piece in (1, 7, 50, fif.PIECE_POINTS):
        with mock.patch.object(fif, "PIECE_POINTS", piece):
            assert AttractorBlocks(model, 4).bounds[2:] == (want.y.min(), want.y.max())


def _drop_seam_twins(grid_x, grid_y):
    """Drop one point of each seam twin between consecutive rows of a run grid.

    Row r + 1 starts where row r ends: the two points are one attractor point
    reached along two paths, a few ulps apart and possibly inverted. The
    smaller x is kept, the earlier point on a tie: the point a stable sort
    followed by dropping near-equal neighbours keeps. The kept twin is
    written to the start of the later row, and the rows are returned without
    their last points (as views); the last row's last point is the caller's.
    Leading axes, if any, hold separate grids. The stream's rule, ``_seams``,
    picks each twin from the preimages instead.
    """
    take_left = grid_x[..., :-1, -1] <= grid_x[..., 1:, 0]
    np.copyto(grid_x[..., 1:, 0], grid_x[..., :-1, -1], where=take_left)
    np.copyto(grid_y[..., 1:, 0], grid_y[..., :-1, -1], where=take_left)
    return grid_x[..., :-1], grid_y[..., :-1]


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


@st.composite
def seam_twins(draw):
    """A model on a non-uniform partition (P 2..3), and rows of seam twins'
    preimages, (the run before's last point, the run's first point) as x
    and y: the x a few ulps apart, in order, equal or inverted."""
    p_count = draw(st.integers(2, 3))
    nodes = st.lists(st.floats(-1.0, 1.0), min_size=p_count + 1, max_size=p_count + 1)
    data = InterpolationData(_partition(draw, p_count), np.array(draw(nodes)))
    base = draw(st.sampled_from(["square", "chord"]))
    model = build_fif_model(data, _scaling(draw, p_count), base=base)
    rows = draw(st.integers(1, 30))
    left = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=rows, max_size=rows)))
    ulps = np.array(draw(st.lists(st.integers(-3, 3), min_size=rows, max_size=rows)))
    x = np.column_stack((left, np.clip(left + ulps * np.spacing(left), 0.0, 1.0)))
    y = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * rows, max_size=2 * rows)))
    return model, x, y.reshape(-1, 2)


# preimages one ulp apart and inverted at 0.9: their images stay inverted
# under branch 0 and tie under branch 1; beside them a pair in order and
# an equal pair
TIE_AT_0_9 = (
    build_fif_model(
        InterpolationData(np.array([0.0, 0.3, 1.0]), np.array([0.1, -0.4, 0.2])), [0.5, -0.6]
    ),
    np.array([[0.9, np.nextafter(0.9, 0.0)], [0.2, np.nextafter(0.2, 1.0)], [0.4, 0.4]]),
    np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
)


@settings(max_examples=200, deadline=None)
@given(model_twins=seam_twins())
@example(model_twins=TIE_AT_0_9)
def test_seams_keep_the_twin_a_sort_keeps(model_twins):
    # each run's kept first point, picked once from its preimages, against
    # the pick of imaging both twins under each branch and comparing
    model, x, y = model_twins
    base = model.base(x)
    # _seams takes over the left twins' arrays, so it gets copies
    seams = _seams([v[:, 0].copy() for v in (x, y, base)], [v[:, 1] for v in (x, y, base)])
    # grids of two rows (first, last): row 0 ends at the left twin, row 1
    # starts at the right one
    grid = np.array([[1, 0], [1, 0]])
    for p in range(model.data.intervals):
        got_x, got_y = AttractorBlocks(model, 1)._seam_images(p, seams)
        twins = _branch_image(model, p, x[:, grid], y[:, grid], base[:, grid])
        want_x, want_y = (v[:, 1, 0] for v in _drop_seam_twins(*twins))
        assert np.array_equal(got_x, want_x)
        assert np.array_equal(got_y, want_y)


def test_depth_six_estimate_holds_no_level():
    # 10,000,001 stream points, counted without holding any level of them
    model = build_fif_model(nifty50_2024_grid("aar"), 0.5)
    tracemalloc.start()
    try:
        estimate = estimate_dimension(StreamedCloud(AttractorBlocks(model, 6)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert estimate.curve.levels[-1].count == 18265
    assert peak < 12e6


def test_depth_six_estimate_walks_its_level_once():
    # the count marks every run's first points in one walk; the bounds and
    # the count's boxes come from the descent, which walks no level
    model = build_fif_model(nifty50_2024_grid("aar"), 0.5)
    with mock.patch.object(
        AttractorBlocks, "_chunks", autospec=True, side_effect=AttractorBlocks._chunks
    ) as chunks:
        estimate_dimension(StreamedCloud(AttractorBlocks(model, 6)))
    assert chunks.call_count == 1


def test_depth_six_count_images_one_first_point_per_run():
    # the walk sends one point per stream run through its branch, 10**6, and
    # builds the ends of level 5's 10**5 runs from the top level; the descent
    # adds under 50,000 interior points. Imaging both seam twins of every
    # run sent 2,247,439 points
    cloud = StreamedCloud(AttractorBlocks(build_fif_model(nifty50_2024_grid("aar"), 0.5), 6))
    image = fif._branch_image
    points = 0

    def counted(model, p, xs, *args, **kwargs):
        nonlocal points
        points += xs.size
        return image(model, p, xs, *args, **kwargs)

    with mock.patch.object(fif, "_branch_image", counted):
        cloud.occupancy(256)
    assert points < 10**6 + 2 * 10**5 + 50_000


def spy(name):
    """``AttractorBlocks.<name>``, wrapped to record its calls."""
    method = getattr(AttractorBlocks, name)
    return mock.patch.object(AttractorBlocks, name, autospec=True, side_effect=method)


@pytest.mark.parametrize("series", ["aar", "caar"])
@pytest.mark.parametrize("alpha", [0.3, 0.5])
def test_depth_six_bounds_build_few_runs_of_level_five(series, alpha):
    # the report's models: of the 100,000 runs of level 5, the bounds build
    # only those the descent keeps, as ends around a seam or as interiors
    blocks = AttractorBlocks(build_fif_model(nifty50_2024_grid(series), alpha), 6)
    with spy("_chunks") as chunks, spy("_ends") as ends, spy("_interiors") as interiors:
        blocks.bounds
    built = sum(call.args[1].size for call in ends.call_args_list + interiors.call_args_list)
    assert chunks.call_count == 0
    assert 0 < built < 1000


def test_budget_refused_before_any_block():
    model = build_fif_model(InterpolationData(np.arange(11) / 10, np.arange(11.0) % 3), 0.3)
    with pytest.raises(InputError, match="budget"):
        AttractorBlocks(model, 9)


@pytest.mark.parametrize("alpha", [0.3, 0.9, MIXED_ALPHA], ids=["a03", "a09", "mixed"])
@pytest.mark.parametrize("base", ["square", "chord"])
@pytest.mark.parametrize("depth", range(5))
def test_streamed_write_matches_the_sample_arrays(tmp_path, depth, base, alpha):
    model = build_fif_model(nifty50_2024_grid("caar"), alpha, base=base)
    sample = streamed_attractor_points(model, depth)
    write_xy_csv(tmp_path / "arrays.csv", sample.x, sample.y)
    # chunks of 7 rows gather the rows of several pieces, and cut pieces
    for chunk in (csvio.CHUNK_ROWS, 7) if depth < 3 else (csvio.CHUNK_ROWS,):
        with mock.patch.object(csvio, "CHUNK_ROWS", chunk):
            write_xy_csv(tmp_path / "stream.csv", AttractorBlocks(model, depth))
        assert (tmp_path / "stream.csv").read_bytes() == (tmp_path / "arrays.csv").read_bytes()


def off_by_one_piece(extra: bool):
    """``AttractorBlocks.__iter__`` with its last piece yielded twice, or not at all."""
    stream = AttractorBlocks.__iter__

    def pieces(self):
        held = list(stream(self))
        yield from held + held[-1:] if extra else held[:-1]

    return mock.patch.object(AttractorBlocks, "__iter__", pieces)


@pytest.mark.parametrize(
    "extra, message",
    [(True, "the stream yielded over the 1001 rows it declares"),
     (False, "the stream yielded 1000 rows, not the 1001 it declares")],
    ids=["one piece too many", "one piece too few"],
)
def test_a_stream_off_its_length_leaves_no_report_bundle(tmp_path, extra, message):
    with off_by_one_piece(extra), pytest.raises(ComputationError) as refused:
        run_report(tmp_path / "rep", Settings(dimension_depth=3, sample_depth=2))
    assert str(refused.value) == message
    # no bundle directory holds a file, and no staging directory is left beside it
    assert [p.name for p in tmp_path.iterdir()] == ["rep"]
    assert not list((tmp_path / "rep").iterdir())
