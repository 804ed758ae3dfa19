import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractalmark import fif
from fractalmark.errors import ComputationError, InputError
from fractalmark.event_study import InterpolationData
from fractalmark.fif import (
    AttractorBlocks,
    FifModel,
    GraphSample,
    PiecewiseLinear,
    ScalingVector,
    SquaredGerm,
    build_eval_grid,
    build_fif_model,
    data_is_collinear,
    endpoint_chord,
    evaluate_fif_fixed_point,
    generate_attractor_points,
    uniform_partition,
    _operator,
    verify_interpolation,
)
from fractalmark.fixtures import (
    MIXED_ALPHA,
    nifty50_2024_grid,
    reference_germ_coefficients,
)

AAR = nifty50_2024_grid("aar")
CAAR = nifty50_2024_grid("caar")


def uniform_data(y):
    return InterpolationData(np.arange(len(y)) / (len(y) - 1), np.asarray(y, float))


@pytest.fixture(scope="module")
def nonuniform_data():
    rng = np.random.default_rng(3)
    x = np.concatenate([[0.0], np.sort(rng.random(9)), [1.0]])
    y = rng.normal(0.0, 0.005, 11)
    return InterpolationData(x, y)


@pytest.fixture(scope="module")
def random_uniform_data():
    return uniform_data(np.random.default_rng(3).normal(0.0, 0.005, 11))


def apply_operator(model, grid, h):
    """T(h) on a ``build_eval_grid`` grid."""
    s, c, phi = _operator(model, grid)
    return s * h[phi] + c


def exact_fixed_point(model, m):
    """The interpolant at t_j = j / (P m), j = 0..P m, in rational arithmetic.

    The knots are taken at their intended p / P, and the ordinates and
    scaling factors at the rationals their floats stand for. With p the
    interval of t_j and u_j = P t_j - p = (j - p m) / m the grid point
    phi(j), f(t_j) = alpha_p f(u_j) + germ(t_j) - alpha_p base(u_j). Each
    orbit of phi ends in a cycle, which is solved exactly.
    """
    p_count = model.data.intervals
    y = [Fraction(float(v)) for v in model.data.y]
    alpha = [Fraction(a) for a in model.alpha.alpha]

    def germ(t):
        p = min(int(t * p_count), p_count - 1)
        return y[p] + (t * p_count - p) * (y[p + 1] - y[p])

    def base(u):
        return germ(u * u) if isinstance(model.base, fif.SquaredGerm) else y[0] + u * (y[-1] - y[0])

    def step(j):
        """(phi(j), a_j, b_j) with f_j = a_j f_phi(j) + b_j."""
        p = min(j // m, p_count - 1)
        u = Fraction(j - p * m, m)
        return p_count * (j - p * m), alpha[p], germ(Fraction(j, p_count * m)) - alpha[p] * base(u)

    values: dict[int, Fraction] = {}
    for start in range(p_count * m + 1):
        path, on_path, j = [], {}, start
        while j not in values and j not in on_path:
            on_path[j] = len(path)
            path.append((j, *step(j)))
            j = path[-1][1]
        if j not in values:
            # f_j = A f_j + B around the cycle that starts at j
            scale, shift = Fraction(1), Fraction(0)
            for _, _, a, b in reversed(path[on_path[j]:]):
                scale, shift = a * scale, a * shift + b
            values[j] = shift / (1 - scale)
        for i, nxt, a, b in reversed(path):
            if i not in values:
                values[i] = a * values[nxt] + b
    return [values[j] for j in range(p_count * m + 1)]


class TestDomainMaps:
    def test_uniform_grid(self):
        model = build_fif_model(AAR, 0.3)
        np.testing.assert_allclose(model.a, 0.1, atol=1e-15)
        np.testing.assert_allclose(model.b, np.arange(10) / 10.0, atol=1e-15)
        with pytest.raises(ValueError, match="read-only"):
            model.a[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            model.b[0] = 0.5

    def test_three_point_hand_solution(self):
        data = InterpolationData(np.array([0.0, 0.25, 1.0]), np.array([1.0, -1.0, 2.0]))
        model = build_fif_model(data, 0.3)
        assert model.a[0] == pytest.approx(0.25, abs=1e-15)
        assert model.b[0] == pytest.approx(0.0, abs=1e-15)
        assert model.a[1] == pytest.approx(0.75, abs=1e-15)
        assert model.b[1] == pytest.approx(0.25, abs=1e-15)

    def test_endpoint_conditions_random_partitions(self, nonuniform_data):
        model = build_fif_model(nonuniform_data, 0.3)
        x = nonuniform_data.x
        for p in range(nonuniform_data.intervals):
            assert model.a[p] * x[0] + model.b[p] == pytest.approx(x[p], abs=1e-12)
            assert model.a[p] * x[-1] + model.b[p] == pytest.approx(x[p + 1], abs=1e-12)

    def test_interval_lookup(self):
        # a knot belongs to the interval it starts, x_P to the last one: l_p^{-1}
        # sends x_0 and every interior knot to x_0, and x_P to x_P
        model = build_fif_model(AAR, MIXED_ALPHA)
        grid = build_eval_grid(AAR, 101)  # 10 steps an interval
        scale, _, phi = _operator(model, grid)
        knots = np.arange(0, 101, 10)
        np.testing.assert_array_equal(phi[knots[:-1]], 0)
        assert phi[-1] == 100
        assert grid[15] == pytest.approx(0.15, abs=1e-16) and phi[15] == 50
        interval = np.minimum(np.arange(101) // 10, 9)
        np.testing.assert_array_equal(scale, np.asarray(MIXED_ALPHA)[interval])


class TestGerm:
    @pytest.mark.parametrize("loader", [nifty50_2024_grid, reference_germ_coefficients])
    def test_unknown_series_refused(self, loader):
        with pytest.raises(InputError, match="'aar2'"):
            loader("aar2")

    def test_published_coefficients_both_series(self):
        # the published piecewise coefficients are rounded; 1e-3 absolute
        for series_name, data in (("aar", AAR), ("caar", CAAR)):
            germ = PiecewiseLinear(data.x, data.y)
            slopes, intercepts = reference_germ_coefficients(series_name)
            assert np.max(np.abs(germ.slopes - slopes)) < 1e-3
            assert np.max(np.abs(germ.intercepts - intercepts)) < 1e-3

    def test_first_segment_hand_values(self):
        germ = PiecewiseLinear(AAR.x, AAR.y)
        assert germ.slopes[0] == pytest.approx(-0.0714, abs=1e-12)
        assert germ.intercepts[0] == pytest.approx(0.00559, abs=1e-12)
        caar_germ = PiecewiseLinear(CAAR.x, CAAR.y)
        assert caar_germ.slopes[-1] == pytest.approx(0.0499, abs=1e-12)
        assert caar_germ.intercepts[-1] == pytest.approx(-0.0499, abs=1e-12)

    def test_interpolates_nodes(self):
        germ = PiecewiseLinear(AAR.x, AAR.y)
        np.testing.assert_allclose(germ(AAR.x), AAR.y, atol=1e-15)

    def test_knots_validated(self):
        with pytest.raises(InputError, match="strictly increasing"):
            PiecewiseLinear([0.0, 0.5, 0.5], [1.0, 2.0, 3.0])
        with pytest.raises(InputError, match="one value per breakpoint"):
            PiecewiseLinear([0.0, 0.5, 1.0], [1.0, 2.0])

    def test_collinear_data_single_slope(self):
        data = uniform_data([0.0, 0.5, 1.0])
        germ = PiecewiseLinear(data.x, data.y)
        np.testing.assert_allclose(germ.slopes, 1.0, atol=1e-15)
        assert data_is_collinear(data)
        assert not data_is_collinear(AAR)


class TestBase:
    def test_square_composition_identity_germ(self):
        germ = PiecewiseLinear([0.0, 1.0], [0.0, 1.0])
        base = SquaredGerm(germ)
        assert base(np.array([0.5]))[0] == pytest.approx(0.25, abs=1e-15)

    def test_endpoint_values(self):
        germ = PiecewiseLinear(AAR.x, AAR.y)
        base = SquaredGerm(germ)
        assert base(np.array([1.0]))[0] == pytest.approx(0.00172, abs=1e-12)
        assert base(np.array([0.0]))[0] == germ(np.array([0.0]))[0]

    def test_chord(self):
        chord = endpoint_chord(AAR)
        assert chord(np.array([0.0]))[0] == pytest.approx(AAR.y[0], abs=1e-15)
        assert chord(np.array([1.0]))[0] == pytest.approx(AAR.y[-1], abs=1e-15)


class TestScalingVector:
    def test_broadcast_and_parse(self):
        assert ScalingVector.from_spec(0.3, 10).alpha == (0.3,) * 10
        vec = ScalingVector.from_spec("0.1,0.4,0.5,0.6,0.4,0.3,0.4,0.5,0.3,0.1", 10)
        assert vec.alpha == MIXED_ALPHA
        assert vec.max_abs == 0.6

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError, match="alpha"):
            ScalingVector.from_spec(1.0, 10)
        with pytest.raises(InputError, match="alpha"):
            ScalingVector.from_spec("-1.2", 10)

    def test_rejects_wrong_length(self):
        with pytest.raises(InputError, match="entries"):
            ScalingVector.from_spec("0.1,0.2", 10)

    @pytest.mark.parametrize("spec", [np.float32(0.5), np.int64(0), np.array(0.25)])
    def test_numpy_scalars_broadcast(self, spec):
        assert ScalingVector.from_spec(spec, 10).alpha == (float(spec),) * 10

    @pytest.mark.parametrize("spec", [None, object(), {0.5}, [0.5, None], ["x"]])
    def test_rejects_other_specs(self, spec):
        with pytest.raises(InputError, match="scaling vector"):
            ScalingVector.from_spec(spec, 10)


class TestModelValidation:
    def test_germ_is_the_data_interpolant(self):
        model = FifModel(data=AAR, alpha=ScalingVector.from_spec(0.3, 10), base="chord")
        want = PiecewiseLinear(AAR.x, AAR.y)
        assert model.germ.breakpoints.tobytes() == AAR.x.tobytes()
        assert model.germ.slopes.tobytes() == want.slopes.tobytes()
        assert model.germ.intercepts.tobytes() == want.intercepts.tobytes()
        with pytest.raises(TypeError):
            FifModel(data=AAR, alpha=model.alpha, germ=want, base=want)

    def test_named_bases_come_from_the_model_germ(self):
        alpha = ScalingVector.from_spec(0.5, 10)
        square = FifModel(data=AAR, alpha=alpha, base="square")
        chord = FifModel(data=AAR, alpha=alpha, base="chord")
        x = np.linspace(0.0, 1.0, 101)
        assert isinstance(square.base, SquaredGerm) and square.base.germ is square.germ
        germ = PiecewiseLinear(AAR.x, AAR.y)
        assert square.base(x).tobytes() == SquaredGerm(germ)(x).tobytes()
        assert chord.base(x).tobytes() == endpoint_chord(AAR)(x).tobytes()
        # only a name is taken: no function, nor a base already built
        for bad in ("cube", 5, lambda v: v, endpoint_chord(AAR), square.base):
            with pytest.raises(InputError, match="unknown base spec: use 'square' or 'chord'"):
                FifModel(data=AAR, alpha=alpha, base=bad)

    def test_base_endpoints_checked(self):
        # x_0 is 1e-12 off 0, where germ(x^2) lies about 1e-6 below y_0
        data = InterpolationData(np.array([1e-12, 1e-6, 0.5, 1.0]), np.array([0.0, 1.0, 0.0, 0.0]))
        with pytest.raises(InputError, match="endpoint"):
            build_fif_model(data, 0.3)
        assert build_fif_model(data, 0.3, base="chord").base(data.x[[0, -1]]).tolist() == [0.0, 0.0]

    def test_large_magnitude_grids_build(self):
        # at 1e6 rounding alone moves a knot or an end by more than 1e-10
        rng = np.random.default_rng(0)
        for _ in range(300):
            y = 1e6 * (1.0 + 0.05 * rng.standard_normal(len(AAR.x)))
            model = build_fif_model(InterpolationData(AAR.x, y), 0.5)
            np.testing.assert_allclose(model.germ(AAR.x), y, rtol=1e-15)

    def test_alpha_length_checked(self):
        with pytest.raises(InputError):
            build_fif_model(AAR, ScalingVector((0.3, 0.3)))


class TestRbOperator:
    def test_germ_is_fixed_point_at_zero_scaling(self):
        model = build_fif_model(AAR, 0.0)
        grid = build_eval_grid(AAR, 2001)
        h = model.germ(grid)
        np.testing.assert_allclose(apply_operator(model, grid, h), h, atol=1e-15)

    def test_zero_data_zero_function(self):
        data = uniform_data(np.zeros(11))
        model = build_fif_model(data, 0.4)
        grid = build_eval_grid(data, 2001)
        out = apply_operator(model, grid, np.zeros_like(grid))
        np.testing.assert_allclose(out, 0.0, atol=1e-18)

    def test_contraction_factor(self, random_uniform_data):
        # sup-distance between iterates shrinks by at most max|alpha| per pass
        model = build_fif_model(random_uniform_data, 0.5)
        grid = build_eval_grid(random_uniform_data, 3001)
        h1 = model.germ(grid)
        h2 = apply_operator(model, grid, h1)
        for _ in range(6):
            n1 = apply_operator(model, grid, h1)
            n2 = apply_operator(model, grid, h2)
            d_before = np.max(np.abs(h2 - h1))
            d_after = np.max(np.abs(n2 - n1))
            assert d_after <= 0.5 * d_before + 1e-15
            h1, h2 = n1, n2

    @pytest.mark.parametrize("grid_size", [106, 116, 126, 301, 6401])
    @pytest.mark.parametrize("data", [AAR, CAAR], ids=["aar", "caar"])
    def test_one_step_count_and_phi_on_the_preimage(self, data, grid_size):
        # one m for every interval, and phi(j) is the grid point l_p^{-1}(x_j)
        model = build_fif_model(data, MIXED_ALPHA)
        grid = build_eval_grid(data, grid_size)
        m = round((grid_size - 1) / 10)
        assert len(grid) == 10 * m + 1
        np.testing.assert_array_equal(np.searchsorted(grid, data.x), np.arange(11) * m)
        _, _, phi = _operator(model, grid)
        p = np.minimum(np.arange(len(grid)) // m, 9)
        inv = (grid - model.b[p]) / model.a[p]
        assert np.max(np.abs(inv - grid[phi])) <= 8 * np.finfo(float).eps


class TestFixedPoint:
    def test_zero_scaling_solves_to_germ_in_no_round(self):
        model = build_fif_model(AAR, 0.0)
        sample = evaluate_fif_fixed_point(model, grid_size=2001, tol=1e-9)
        assert sample.generation == 0
        assert sample.max_error_bound == 0.0
        np.testing.assert_allclose(sample.y, np.asarray(model.germ(sample.x)), atol=1e-15)

    def test_interpolates_nodes(self):
        model = build_fif_model(AAR, 0.3)
        sample = evaluate_fif_fixed_point(model, grid_size=6401, tol=1e-9)
        assert verify_interpolation(sample, AAR) < 1e-9

    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_round_count_is_the_a_priori_one(self, random_uniform_data, tol):
        # K is the fewest rounds with s^(2^K) ||Tg - g|| / (1 - s) <= tol
        model = build_fif_model(random_uniform_data, 0.5)
        sample = evaluate_fif_fixed_point(model, grid_size=6401, tol=tol)
        grid = sample.x
        germ = model.germ(grid)
        first = np.max(np.abs(apply_operator(model, grid, germ) - germ))
        k = sample.generation
        assert sample.max_error_bound == 0.5 ** (2**k) * first / 0.5 <= tol
        assert k == 0 or 0.5 ** (2 ** (k - 1)) * first / 0.5 > tol

    def test_exact_collapse_on_decimal_grid(self):
        # uniform decimal knots: every preimage chain reaches a knot, where
        # germ = base, so the solve is the exact fixed point up to rounding
        model = build_fif_model(AAR, 0.5)
        sample = evaluate_fif_fixed_point(model, grid_size=10001, tol=1e-9)
        again = apply_operator(model, sample.x, sample.y)
        assert np.max(np.abs(again - sample.y)) < 1e-13

    def test_error_bound_reported(self):
        model = build_fif_model(AAR, 0.5)
        sample = evaluate_fif_fixed_point(model, grid_size=6401, tol=1e-9)
        assert sample.max_error_bound < 1e-9

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf, -math.inf])
    def test_tol_not_finite_and_positive_refused(self, tol):
        model = build_fif_model(AAR, 0.5)
        with pytest.raises(InputError, match="tol must be finite and positive"):
            evaluate_fif_fixed_point(model, grid_size=2001, tol=tol)

    def test_smallest_tol_takes_few_rounds(self):
        # s^(2^K) underflows once 2^K log2(1/s) passes about 1,100, at most 14
        # rounds for s = 0.95, so even the least positive tol is met, by the
        # same values as a default solve
        for alpha in (0.5, 0.95, MIXED_ALPHA):
            model = build_fif_model(AAR, alpha)
            sample = evaluate_fif_fixed_point(model, tol=5e-324)
            assert sample.generation <= 14
            assert sample.max_error_bound <= 5e-324
            default = evaluate_fif_fixed_point(model)
            assert np.max(np.abs(sample.y - default.y)) <= default.max_error_bound + 1e-16

    def test_bound_holds_and_tightens_as_tol_falls(self, random_uniform_data):
        model = build_fif_model(random_uniform_data, 0.9)
        reference = evaluate_fif_fixed_point(model, grid_size=6401, tol=1e-300).y
        rounds = []
        for tol in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
            sample = evaluate_fif_fixed_point(model, grid_size=6401, tol=tol)
            assert sample.max_error_bound <= tol
            assert np.max(np.abs(sample.y - reference)) <= sample.max_error_bound + 1e-16
            rounds.append(sample.generation)
        assert rounds == sorted(rounds) and rounds[0] < rounds[-1]

    def test_solved_sample_stable_under_one_more_pass(self):
        tol = 1e-9
        for alpha in (0.3, 0.5, MIXED_ALPHA):
            model = build_fif_model(AAR, alpha)
            sample = evaluate_fif_fixed_point(model, grid_size=6401, tol=tol)
            again = apply_operator(model, sample.x, sample.y)
            assert np.max(np.abs(again - sample.y)) < 2 * tol

    def test_grid_size_precondition(self):
        model = build_fif_model(AAR, 0.3)
        with pytest.raises(InputError, match="grid_size"):
            evaluate_fif_fixed_point(model, grid_size=50)

    @pytest.mark.parametrize("base", ["square", "chord"])
    @pytest.mark.parametrize(
        "alpha", [0.3, 0.5, 0.9, MIXED_ALPHA], ids=["a03", "a05", "a09", "mixed"]
    )
    @pytest.mark.parametrize("grid_size", [301, 6401])
    @pytest.mark.parametrize("data", [AAR, CAAR], ids=["aar", "caar"])
    def test_solve_matches_the_exact_rational_fixed_point(self, data, grid_size, alpha, base):
        # size 301 has orbits that cycle off the knots (x = 1/3 is fixed by l_3^{-1})
        model = build_fif_model(data, alpha, base)
        sample = evaluate_fif_fixed_point(model, grid_size=grid_size, tol=1e-12)
        exact = np.array([float(v) for v in exact_fixed_point(model, (grid_size - 1) // 10)])
        assert sample.max_error_bound <= 1e-12
        slack = sample.max_error_bound + 1e-12 * np.max(np.abs(data.y))
        assert np.max(np.abs(sample.y - exact)) <= slack

    @pytest.mark.parametrize(
        "x",
        [
            [0.0, 0.25, 1.0],
            [0.0, 0.2, 0.5, 0.7, 1.0],
            [0.0, 1 / 3, 2 / 3 + 1e-9, 1.0],
            [*np.arange(5) / 10, 0.5 + 2e-10, *np.arange(6, 11) / 10],
            [0.0, 0.0625, 0.125, 0.25, 0.5, 1.0],
        ],
        ids=["3-point", "5-point", "off-by-1e-9", "off-by-2e-10", "dyadic"],
    )
    def test_non_uniform_partition_refused(self, x):
        x = np.array(x)
        data = InterpolationData(x, np.sin(7 * x))
        assert not uniform_partition(data)
        for base in ("square", "chord"):
            with pytest.raises(InputError, match="needs equal intervals"):
                evaluate_fif_fixed_point(build_fif_model(data, 0.5, base))
        with pytest.raises(InputError, match="needs equal intervals"):
            build_eval_grid(data, 1001)

    def test_knots_within_node_tol_accepted(self):
        x = np.arange(11) / 10
        x[5] += 0.5 * fif.NODE_TOL
        data = InterpolationData(x, AAR.y)
        assert uniform_partition(data)
        assert evaluate_fif_fixed_point(build_fif_model(data, 0.5)).max_error_bound <= 1e-9


class TestAttractor:
    def test_depth_zero_is_node_set(self):
        model = build_fif_model(AAR, 0.3)
        sample = generate_attractor_points(model, 0)
        np.testing.assert_array_equal(sample.x, AAR.x)
        np.testing.assert_array_equal(sample.y, AAR.y)

    def test_zero_scaling_all_points_on_germ(self):
        model = build_fif_model(AAR, 0.0)
        sample = generate_attractor_points(model, 4)
        germ_vals = np.asarray(model.germ(sample.x))
        assert np.max(np.abs(sample.y - germ_vals)) < 1e-12

    def test_nodes_exact_any_depth(self):
        model = build_fif_model(CAAR, MIXED_ALPHA)
        sample = generate_attractor_points(model, 3)
        assert verify_interpolation(sample, CAAR) < 1e-10

    def test_point_count_and_order(self):
        model = build_fif_model(AAR, 0.3)
        sample = generate_attractor_points(model, 3)
        assert len(sample) == 10**4 + 1  # uniform decimal partition tiles exactly
        assert np.all(np.diff(sample.x) > 0)

    def test_memory_budget(self):
        model = build_fif_model(AAR, 0.3)
        with pytest.raises(InputError, match="budget"):
            generate_attractor_points(model, 9)

    def test_generation_holds_the_sample_and_one_piece(self):
        """A depth-5 sample allocates its two columns and at most 8 MiB more."""
        model = build_fif_model(CAAR, 0.5)
        generate_attractor_points(model, 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sample = generate_attractor_points(model, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sample) == 10**6 + 1
        assert peak - before <= 16 * len(sample) + (8 << 20)

    @pytest.mark.parametrize("skew", [-1, 1])
    def test_stream_of_another_length_refused(self, skew):
        model = build_fif_model(AAR, 0.3)
        declared = AttractorBlocks.__len__
        with mock.patch.object(AttractorBlocks, "__len__", lambda self: declared(self) + skew):
            with pytest.raises(ComputationError, match="not the"):
                generate_attractor_points(model, 3)

    def test_cross_validation_against_fixed_point(self):
        # exact attractor points against the converged grid at shared abscissae
        tol = 1e-9
        for alpha in (0.3, 0.5):
            model = build_fif_model(AAR, alpha)
            attractor = generate_attractor_points(model, 4)
            grid = evaluate_fif_fixed_point(model, grid_size=10001, tol=tol)
            matched = _match_common(attractor, grid)
            assert matched > 9000
        # nonzero match count asserted inside helper via return value

    def test_every_generated_point_on_fine_grid(self):
        # a grid whose spacing divides the depth-3 abscissae covers every
        # generated x, so the agreement is tol-level with no interpolation slack
        tol = 1e-9
        model = build_fif_model(AAR, 0.5)
        attractor = generate_attractor_points(model, 3)
        grid = evaluate_fif_fixed_point(model, grid_size=10001, tol=tol)
        interp = np.interp(attractor.x, grid.x, grid.y)
        assert np.max(np.abs(attractor.y - interp)) < 1e-8


def test_graph_sample_refuses_no_points():
    with pytest.raises(InputError, match="at least one point"):
        GraphSample(np.array([]), np.array([]), 0, 0.0)


class TestVerifyInterpolation:
    def test_fault_injection_detected(self):
        model = build_fif_model(AAR, 0.3)
        sample = generate_attractor_points(model, 2)
        corrupted = sample.y.copy()
        node_idx = int(np.searchsorted(sample.x, 0.5))
        corrupted[node_idx] += 1e-3
        bad = type(sample)(
            x=sample.x, y=corrupted, generation=2, max_error_bound=0.0
        )
        assert verify_interpolation(bad, AAR) >= 1e-3

    def test_missing_node_raises(self):
        model = build_fif_model(AAR, 0.3)
        sample = generate_attractor_points(model, 2)
        mask = np.abs(sample.x - 0.5) > 1e-6
        truncated = type(sample)(
            x=sample.x[mask], y=sample.y[mask], generation=2, max_error_bound=0.0
        )
        with pytest.raises(ComputationError, match="missing"):
            verify_interpolation(truncated, AAR)


@st.composite
def random_models(draw, bases=("square",), uniform=st.just(False)):
    """Random partitions of [0, 1] (P 2..10, widths >= 1e-2; equal widths
    where ``uniform`` draws True), ordinates, signed scaling and one of ``bases``."""
    p_count = draw(st.integers(2, 10))
    if draw(uniform):
        x = np.linspace(0.0, 1.0, p_count + 1)
    else:
        weights = np.array(
            draw(st.lists(st.floats(1e-3, 1.0), min_size=p_count, max_size=p_count))
        )
        x = np.concatenate(
            [[0.0], np.cumsum(1e-2 + (1.0 - 1e-2 * p_count) * weights / weights.sum())]
        )
        x[-1] = 1.0
    y = draw(st.lists(st.floats(-1.0, 1.0), min_size=p_count + 1, max_size=p_count + 1))
    alpha = draw(st.lists(st.floats(-0.9, 0.9), min_size=p_count, max_size=p_count))
    return build_fif_model(InterpolationData(x, np.array(y)), alpha, draw(st.sampled_from(bases)))


@settings(max_examples=100, deadline=None)
@given(model=random_models(bases=("square", "chord")), data=st.data())
def test_base_span_bounds_the_base_between_each_pair(model, data):
    # pair ends anywhere on [0, 1] or on a knot, in either order
    point = st.one_of(st.floats(0.0, 1.0), st.sampled_from(model.data.x.tolist()))
    x = np.array(data.draw(st.lists(st.tuples(point, point), min_size=1, max_size=20)))
    values, lo, hi = model.base.span(x)
    assert values.tobytes() == model.base(x).tobytes()
    t = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20)))
    inside = model.base(x[:, :1] + t * (x[:, 1:] - x[:, :1]))
    # 1e-10 is the absolute term of AttractorBlocks._margin, by which the walk widens every span
    assert np.all(inside >= lo - 1e-10)
    assert np.all(inside <= hi + 1e-10)


@settings(max_examples=60, deadline=None)
@given(model=random_models(uniform=st.booleans()))
def test_both_evaluators_interpolate_random_data(model):
    # the fixed-point solve runs on uniform partitions and refuses the others
    attractor = generate_attractor_points(model, 3)
    assert verify_interpolation(attractor, model.data) < 1e-7
    if not uniform_partition(model.data):
        with pytest.raises(InputError, match="needs equal intervals"):
            evaluate_fif_fixed_point(model, grid_size=20 * model.data.intervals)
        return
    fixed = evaluate_fif_fixed_point(model, grid_size=20 * model.data.intervals)
    assert verify_interpolation(fixed, model.data) < 1e-7


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_eval_grid_holds_what_the_operator_needs(data):
    # one step count m for every interval of a uniform partition: the grid is
    # increasing, runs from x_0 to x_P, holds every knot at a multiple of m,
    # and phi(j) is the grid point l_p^{-1}(x_j)
    p_count = data.draw(st.integers(2, 30))
    x = np.linspace(0.0, 1.0, p_count + 1)
    grid_size = data.draw(st.integers(10 * p_count, 20_000))
    model = build_fif_model(InterpolationData(x, np.zeros_like(x)), 0.5)
    grid = build_eval_grid(model.data, grid_size)
    m = round((grid_size - 1) / p_count)
    assert len(grid) == p_count * m + 1
    assert np.all(np.diff(grid) > 0.0)
    assert np.array_equal(grid[np.arange(p_count + 1) * m], x)
    _, _, phi = _operator(model, grid)
    p = np.minimum(np.arange(len(grid)) // m, p_count - 1)
    inv = (grid - model.b[p]) / model.a[p]
    assert np.max(np.abs(inv - grid[phi])) <= 8 * np.finfo(float).eps * p_count


@st.composite
def grid_invariant_models(draw):
    """Uniform partitions with a fixed-point grid that every l_p^{-1} maps
    onto itself (grid_size - 1 a multiple of P^(depth+1)), so that linear
    interpolation on the grid adds no error; with the attractor depth."""
    p_count = draw(st.sampled_from([2, 3, 4, 5, 8, 10]))
    depth = draw(st.integers(0, 2))
    cells = p_count ** (depth + 1)
    least = -(-(10 * p_count - 1) // cells)
    grid_size = cells * draw(st.integers(least, least + 3)) + 1
    y = draw(st.lists(st.floats(-1.0, 1.0), min_size=p_count + 1, max_size=p_count + 1))
    alpha = draw(st.lists(st.floats(-0.95, 0.95), min_size=p_count, max_size=p_count))
    base = draw(st.sampled_from(["square", "chord"]))
    return build_fif_model(uniform_data(y), alpha, base=base), depth, grid_size


@settings(max_examples=60, deadline=None)
@given(case=grid_invariant_models(), shift=st.floats(2e-10, 1e-3))
def test_attractor_agrees_with_fixed_point_within_its_bound(case, shift):
    model, depth, grid_size = case
    # the same data with one interior knot moved off the uniform partition is refused
    x = model.data.x.copy()
    x[1] += shift
    moved = InterpolationData(x, model.data.y)
    with pytest.raises(InputError, match="needs equal intervals"):
        evaluate_fif_fixed_point(build_fif_model(moved, model.alpha, "chord"), grid_size)
    attractor = generate_attractor_points(model, depth)
    fixed = evaluate_fif_fixed_point(model, grid_size=grid_size)
    twin = np.clip(np.searchsorted(fixed.x, attractor.x), 1, len(fixed) - 1)
    nearer_left = np.abs(fixed.x[twin - 1] - attractor.x) < np.abs(fixed.x[twin] - attractor.x)
    twin = np.where(nearer_left, twin - 1, twin)
    assert np.max(np.abs(fixed.x[twin] - attractor.x)) <= 1e-12
    gap = np.max(np.abs(fixed.y[twin] - attractor.y))
    assert gap <= fixed.max_error_bound + 1e-12 * np.max(np.abs(attractor.y))


class TestSelfReferentialIdentity:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, MIXED_ALPHA])
    def test_identity_at_sample_points(self, alpha):
        model = build_fif_model(AAR, alpha)
        sample = generate_attractor_points(model, 4)
        alphas = model.alpha.as_array()
        rng = np.random.default_rng(7)
        probes = rng.integers(1, len(sample) - 1, 300)
        checked = 0
        worst = 0.0
        for j in probes:
            x = sample.x[j]
            p = min(int(np.searchsorted(AAR.x, x, side="right")) - 1, AAR.intervals - 1)
            inv = float((x - model.b[p]) / model.a[p])
            jj = int(np.searchsorted(sample.x, inv))
            jj = min(max(jj, 0), len(sample) - 1)
            if jj > 0 and abs(sample.x[jj - 1] - inv) < abs(sample.x[jj] - inv):
                jj -= 1
            if abs(sample.x[jj] - inv) > 1e-9:
                continue
            g_here = float(np.asarray(model.germ(np.array([x])))[0])
            b_inv = float(np.asarray(model.base(np.array([inv])))[0])
            residual = abs(sample.y[j] - g_here - alphas[p] * (sample.y[jj] - b_inv))
            worst = max(worst, residual)
            checked += 1
        assert checked > 250
        assert worst < 1e-6


def _match_common(attractor, grid, x_tol=1e-10, y_tol=1e-6):
    """Count grid abscissae present in the attractor and assert y-agreement."""
    idx = np.searchsorted(attractor.x, grid.x)
    idx = np.clip(idx, 0, len(attractor.x) - 1)
    left = np.clip(idx - 1, 0, len(attractor.x) - 1)
    nearer_left = np.abs(attractor.x[left] - grid.x) < np.abs(attractor.x[idx] - grid.x)
    idx = np.where(nearer_left, left, idx)
    mask = np.abs(attractor.x[idx] - grid.x) <= x_tol
    assert np.max(np.abs(attractor.y[idx[mask]] - grid.y[mask])) <= y_tol
    return int(mask.sum())
