import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fractalmark.boxdim import (
    DENSE_CELLS,
    HeldBlocks,
    StreamedCloud,
    affine_fif_dimension_oracle,
    count_boxes,
    estimate_dimension,
    normalize_to_unit_square,
)
from fractalmark.errors import ComputationError, InputError
from fractalmark.event_study import InterpolationData
from fractalmark.fif import AttractorBlocks, ScalingVector, build_fif_model, generate_attractor_points
from fractalmark.fixtures import nifty50_2024_grid

AAR = nifty50_2024_grid("aar")
UNIT_SQUARE = (0.0, 1.0, 0.0, 1.0)


def unit_cloud(x, y):
    """Coordinates already in the unit square, counted as they are."""
    return StreamedCloud(HeldBlocks([(np.array(x), np.array(y))], bounds=UNIT_SQUARE))


def normalized(cloud):
    """The cloud's normalized coordinates, concatenated over its blocks."""
    xs, ys = zip(*cloud.normalized_blocks())
    return np.concatenate(xs), np.concatenate(ys)


def brute_force_count(cloud, k):
    """Independent oracle: enumerate occupied cells with plain Python sets."""
    m = 2**k
    cells = set()
    for xv, yv in zip(*normalized(cloud)):
        xi = min(int(xv * m), m - 1)
        yi = min(int(yv * m), m - 1)
        cells.add((xi, yi))
    return len(cells)


class TestNormalize:
    def test_rescales_each_axis(self):
        x = np.array([0.0, 0.5, 1.0])
        y = np.array([-0.01, 0.0, 0.01])
        cloud = normalize_to_unit_square(x, y)
        xn, yn = normalized(cloud)
        np.testing.assert_allclose(xn, [0.0, 0.5, 1.0], atol=1e-15)
        # y spans 0.02, so the middle value lands at 0.5 after a 50x stretch
        np.testing.assert_allclose(yn, [0.0, 0.5, 1.0], atol=1e-15)
        assert cloud.original_bounds == (0.0, 1.0, -0.01, 0.01)

    def test_unit_square_unchanged(self):
        rng = np.random.default_rng(1)
        x = np.concatenate([[0.0], rng.random(50), [1.0]])
        y = np.concatenate([[0.0], rng.random(50), [1.0]])
        cloud = normalize_to_unit_square(x, y)
        xn, yn = normalized(cloud)
        np.testing.assert_allclose(xn, x, atol=1e-15)
        np.testing.assert_allclose(yn, y, atol=1e-15)

    def test_constant_y_flagged(self):
        cloud = normalize_to_unit_square(np.array([0.0, 1.0, 2.0]), np.full(3, 7.0))
        assert cloud.degenerate_y
        assert np.all(normalized(cloud)[1] == 0.5)

    def test_identical_points_rejected(self):
        with pytest.raises(ComputationError, match="identical"):
            normalize_to_unit_square(np.full(5, 2.0), np.full(5, 3.0))

    def test_degenerate_x_rejected(self):
        with pytest.raises(ComputationError, match="x-range"):
            normalize_to_unit_square(np.full(3, 2.0), np.array([1.0, 2.0, 3.0]))

    def test_streamed_blocks_normalize_like_their_concatenation(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=2_000), rng.normal(size=2_000)
        cloud = StreamedCloud(
            HeldBlocks((x[i : i + 300], y[i : i + 300]) for i in range(0, 2_000, 300))
        )
        whole = normalize_to_unit_square(x, y)
        assert len(cloud) == len(whole)
        assert cloud.original_bounds == whole.original_bounds
        for k in (0, 3, 6, 11, 20):
            assert count_boxes(cloud, k) == count_boxes(whole, k)

    def test_streamed_blocks_refused_like_arrays(self):
        with pytest.raises(ComputationError, match="identical"):
            StreamedCloud(
                HeldBlocks([(np.full(2, 2.0), np.full(2, 3.0)), (np.full(3, 2.0), np.full(3, 3.0))])
            )
        with pytest.raises(InputError, match="finite"):
            StreamedCloud(HeldBlocks([(np.array([0.0, 1.0]), np.array([0.0, np.nan]))]))

    def test_held_blocks_bounds_come_from_every_block(self):
        blocks = HeldBlocks([(np.array([0.2, 0.5]), np.array([3.0, -1.0])), (np.zeros(0), np.zeros(0)),
                             (np.array([-4.0]), np.array([2.0]))])
        assert len(blocks) == 3
        assert blocks.bounds == (-4.0, 0.5, -1.0, 3.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_declared_frame_refuses_non_finite_points(self, bad):
        for x, y in (([0.0, bad, 1.0], [0.5, 0.5, 0.5]), ([0.0, 0.5, 1.0], [0.5, bad, 0.5])):
            with pytest.raises(InputError, match="finite"):
                HeldBlocks([(np.array(x), np.array(y))], bounds=UNIT_SQUARE)

    def test_declared_frame_refuses_points_outside_it(self):
        for x, y in (([0.0, 1.5], [0.0, 1.0]), ([0.0, 1.0], [-0.1, 1.0])):
            with pytest.raises(InputError, match="declared bounds"):
                HeldBlocks([(np.array(x), np.array(y))], bounds=UNIT_SQUARE)
        cloud = unit_cloud([0.25, 0.75], [0.5, 0.5])
        assert cloud.original_bounds == UNIT_SQUARE
        assert not cloud.degenerate_y


def flat_attractor(level, alpha, depth, intervals=10, base="square"):
    data = InterpolationData(np.linspace(0.0, 1.0, intervals + 1), np.full(intervals + 1, level))
    return StreamedCloud(AttractorBlocks(build_fif_model(data, alpha, base=base), depth))


class TestDegenerateY:
    def test_flat_data_with_scaling_is_flagged(self):
        # the attractor's y-range is one ulp of rounding noise, not a curve
        cloud = flat_attractor(0.1, 0.5, 4)
        assert cloud.original_bounds[2:] == (0.1, 0.10000000000000002)
        assert cloud.degenerate_y
        estimate = estimate_dimension(cloud, 2, 6, 1)
        assert estimate.dimension == 1.0
        assert any("degenerate y-range" in w for w in estimate.warnings)

    def test_small_but_real_y_range_is_not_flagged(self):
        x = np.linspace(0.0, 1.0, 5)
        assert not normalize_to_unit_square(x, 1.0 + 1e-12 * x).degenerate_y
        assert normalize_to_unit_square(x, 1.0 + 1e-15 * x).degenerate_y

    @settings(max_examples=60, deadline=None)
    @given(
        intervals=st.integers(2, 12),
        level=st.floats(1e-15, 1e10),
        sign=st.sampled_from([-1.0, 1.0]),
        alpha=st.data(),
        depth=st.integers(0, 5),
        base=st.sampled_from(["square", "chord"]),
    )
    def test_flat_data_always_flagged(self, intervals, level, sign, alpha, depth, base):
        assume(intervals**depth <= 20_000)
        scaling = alpha.draw(
            st.lists(st.floats(-0.99, 0.99), min_size=intervals, max_size=intervals)
        )
        assert flat_attractor(sign * level, scaling, depth, intervals, base).degenerate_y


class TestCountBoxes:
    def test_single_location_counts_one(self):
        cloud = unit_cloud([0.3, 0.3], [0.4, 0.4])
        for k in (0, 1, 3, 8):
            assert count_boxes(cloud, k) == 1

    def test_four_corners_at_k1(self):
        cloud = unit_cloud([0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0])
        assert count_boxes(cloud, 1) == 4
        assert count_boxes(cloud, 0) == 1

    def test_uniform_points_fill_k2(self):
        rng = np.random.default_rng(42)
        pts = rng.random((10_000, 2))
        cloud = normalize_to_unit_square(pts[:, 0], pts[:, 1])
        assert count_boxes(cloud, 2) == 16
        assert count_boxes(cloud, 2) == brute_force_count(cloud, 2)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        pts = rng.random((500, 2))
        cloud = normalize_to_unit_square(pts[:, 0], pts[:, 1])
        for k in range(0, 7):
            assert count_boxes(cloud, k) == brute_force_count(cloud, k)

    def test_matches_brute_force_above_the_dense_limit(self):
        # 4^20 cells is far above max(points, DENSE_CELLS): counted from sorted keys
        rng = np.random.default_rng(9)
        pts = rng.random((1_000, 2))
        cloud = normalize_to_unit_square(pts[:, 0], pts[:, 1])
        assert 4**20 > max(len(cloud), DENSE_CELLS)
        assert count_boxes(cloud, 20) == brute_force_count(cloud, 20)
        assert count_boxes(cloud, 30) == brute_force_count(cloud, 30)

    def test_boundary_points_assigned_to_last_cell(self):
        cloud = unit_cloud([1.0, 0.999999], [1.0, 1.0])
        assert count_boxes(cloud, 1) == 1

    def test_level_bounds(self):
        cloud = unit_cloud([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(InputError):
            count_boxes(cloud, -1)
        with pytest.raises(InputError):
            count_boxes(cloud, 31)


class TestEstimateDimension:
    def test_diagonal_segment(self):
        x = np.linspace(0.0, 1.0, 200_000)
        cloud = normalize_to_unit_square(x, x)
        estimate = estimate_dimension(cloud, 2, 7)
        assert estimate.dimension == pytest.approx(1.0, abs=0.02)
        assert estimate.r_squared > 0.999

    def test_uniform_square(self):
        rng = np.random.default_rng(12)
        pts = rng.random((400_000, 2))
        cloud = normalize_to_unit_square(pts[:, 0], pts[:, 1])
        estimate = estimate_dimension(cloud, 2, 6)
        assert estimate.dimension == pytest.approx(2.0, abs=0.05)

    def test_counts_agree_with_count_boxes(self):
        rng = np.random.default_rng(4)
        pts = rng.random((3_000, 2))
        cloud = normalize_to_unit_square(pts[:, 0], pts[:, 1])
        estimate = estimate_dimension(cloud, 1, 5, min_points_per_box=1)
        for level in estimate.curve.levels:
            assert level.count == count_boxes(cloud, level.k)

    def test_pooled_sparse_levels_agree_with_brute_force(self):
        # the k_min + 2 floor stops k_max at 14, whose 4^14 cells are counted
        # sparse; points closer than a cell make the coarser levels merge cells
        x = np.linspace(0.0, 1.0, 20_000)
        cloud = normalize_to_unit_square(x, x * x)
        estimate = estimate_dimension(cloud, 12, 20, min_points_per_box=1)
        assert estimate.levels_used == (12, 14)
        assert 4**14 > max(len(cloud), DENSE_CELLS)
        counts = [level.count for level in estimate.curve.levels]
        assert counts == [brute_force_count(cloud, k) for k in (12, 13, 14)]
        assert counts[0] < counts[1] < counts[2] < len(cloud)

    def test_monotone_and_bounded_growth(self):
        model = build_fif_model(AAR, 0.5)
        sample = generate_attractor_points(model, 4)
        cloud = normalize_to_unit_square(sample.x, sample.y)
        estimate = estimate_dimension(cloud, 2, 7)
        counts = [lv.count for lv in estimate.curve.levels]
        for before, after in zip(counts, counts[1:]):
            assert before <= after <= 4 * before

    @settings(max_examples=100, deadline=None)
    @given(
        points=st.lists(
            st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=2, max_size=400
        )
    )
    def test_random_clouds_grow_monotone_and_at_most_fourfold(self, points):
        x, y = np.array(points).T
        assume(x.min() < x.max())
        cloud = normalize_to_unit_square(x, y)
        # levels up to 10 count on a dense bitmap, 11 and 12 on sorted keys
        counts = [count_boxes(cloud, k) for k in range(13)]
        assert counts[0] == 1
        for before, after in zip(counts, counts[1:]):
            assert before <= after <= 4 * before

    def test_order_and_duplication_invariance(self):
        rng = np.random.default_rng(19)
        pts = rng.random((5_000, 2))
        cloud = normalize_to_unit_square(pts[:, 0], pts[:, 1])
        shuffled = rng.permutation(5_000)
        cloud2 = normalize_to_unit_square(pts[shuffled, 0], pts[shuffled, 1])
        duplicated = normalize_to_unit_square(
            np.concatenate([pts[:, 0], pts[:, 0]]), np.concatenate([pts[:, 1], pts[:, 1]])
        )
        e1 = estimate_dimension(cloud, 2, 5, min_points_per_box=1)
        e2 = estimate_dimension(cloud2, 2, 5, min_points_per_box=1)
        assert e1.dimension == e2.dimension
        e3 = estimate_dimension(duplicated, 2, 5, min_points_per_box=2)
        assert e3.dimension == e1.dimension

    def test_translation_before_normalization_is_neutral(self):
        # min-max normalization cancels translations exactly
        model = build_fif_model(AAR, 0.5)
        sample = generate_attractor_points(model, 4)
        shift = 0.5 * 2.0**-7
        c1 = normalize_to_unit_square(sample.x, sample.y)
        c2 = normalize_to_unit_square(sample.x + shift, sample.y + shift)
        e1 = estimate_dimension(c1, 2, 7)
        e2 = estimate_dimension(c2, 2, 7)
        assert abs(e1.dimension - e2.dimension) < 0.05

    def test_degenerate_flat_curve_near_one(self):
        # count at scales below the polyline's feature size: the coarsest
        # levels are grid-capped for a steep curve and would bias the slope
        model = build_fif_model(AAR, 0.0)
        sample = generate_attractor_points(model, 5)
        cloud = normalize_to_unit_square(sample.x, sample.y)
        estimate = estimate_dimension(cloud, 4, 9)
        assert estimate.dimension == pytest.approx(1.0, abs=0.05)

    def test_kmax_lowered_for_small_clouds(self):
        rng = np.random.default_rng(77)
        pts = rng.random((10_000, 2))
        cloud = normalize_to_unit_square(pts[:, 0], pts[:, 1])
        estimate = estimate_dimension(cloud, 2, 8, min_points_per_box=25)
        # 25 * 4^8 = 1.6M > 10k, largest admissible k is 4 (25 * 4^4 = 6400)
        assert estimate.levels_used[1] == 4
        assert any("lowered" in w for w in estimate.warnings)

    def test_saturated_levels_excluded_then_error(self):
        # 150 points on a line, 30 per box required: levels 3 and 4 occupy
        # more boxes than 150/30 = 5 and are excluded, leaving too few
        x = np.linspace(0.0, 1.0, 150)
        cloud = normalize_to_unit_square(x, x)
        with pytest.raises(ComputationError, match="usable levels"):
            estimate_dimension(cloud, 2, 6, min_points_per_box=30)

    def test_too_few_usable_levels(self):
        x = np.linspace(0.0, 1.0, 40)
        cloud = normalize_to_unit_square(x, x)
        with pytest.raises(ComputationError, match="usable levels"):
            estimate_dimension(cloud, 2, 6, min_points_per_box=30)

    def test_level_validation(self):
        cloud = unit_cloud([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(InputError):
            estimate_dimension(cloud, 5, 5)
        with pytest.raises(InputError):
            estimate_dimension(cloud, -1, 5)


class TestOracle:
    def test_supercritical_closed_form(self):
        value = affine_fif_dimension_oracle(ScalingVector.from_spec(0.5, 10), 10)
        assert value == pytest.approx(1.0 + math.log(5.0) / math.log(10.0), abs=1e-12)
        assert value == pytest.approx(1.69897, abs=1e-5)

    def test_subcritical_is_one(self):
        assert affine_fif_dimension_oracle(ScalingVector.from_spec(0.05, 10), 10) == 1.0

    def test_collinear_is_one(self):
        assert (
            affine_fif_dimension_oracle(ScalingVector.from_spec(0.5, 10), 10, collinear=True)
            == 1.0
        )

    def test_estimator_against_oracle_moderate_depth(self):
        # depth 5 keeps this quick; the acceptance suite runs the full depth-6 check
        model = build_fif_model(AAR, 0.5, base="chord")
        sample = generate_attractor_points(model, 5)
        cloud = normalize_to_unit_square(sample.x, sample.y)
        estimate = estimate_dimension(cloud, 2, 7)
        oracle = affine_fif_dimension_oracle(ScalingVector.from_spec(0.5, 10), 10)
        assert estimate.dimension == pytest.approx(oracle, abs=0.12)
