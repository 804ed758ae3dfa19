import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractalmark.errors import ComputationError, InputError
from fractalmark.event_study import InterpolationData
from fractalmark.fif import (
    FifModel,
    PiecewiseLinear,
    ScalingVector,
    base_from_germ,
    build_eval_grid,
    build_fif_model,
    data_is_collinear,
    endpoint_chord,
    evaluate_fif_fixed_point,
    generate_attractor_points,
    germ_piecewise_linear,
    _operator_terms,
    rb_operator_apply,
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
        grid = np.insert(AAR.x, 2, 0.15)
        inv, scale, _, _ = _operator_terms(grid, model)
        knots = np.delete(np.arange(len(grid)), 2)
        np.testing.assert_allclose(inv[knots[:-1]], 0.0, rtol=0.0, atol=1e-12)
        assert inv[-1] == pytest.approx(1.0, abs=1e-12)
        assert inv[2] == pytest.approx(0.5, abs=1e-12)
        interval = [0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9]
        np.testing.assert_array_equal(scale, np.asarray(MIXED_ALPHA)[interval])


class TestGerm:
    def test_published_coefficients_both_series(self):
        # the published piecewise coefficients are rounded; 1e-3 absolute
        for series_name, data in (("aar", AAR), ("caar", CAAR)):
            germ = germ_piecewise_linear(data)
            slopes, intercepts = reference_germ_coefficients(series_name)
            assert np.max(np.abs(germ.slopes - slopes)) < 1e-3
            assert np.max(np.abs(germ.intercepts - intercepts)) < 1e-3

    def test_first_segment_hand_values(self):
        germ = germ_piecewise_linear(AAR)
        assert germ.slopes[0] == pytest.approx(-0.0714, abs=1e-12)
        assert germ.intercepts[0] == pytest.approx(0.00559, abs=1e-12)
        caar_germ = germ_piecewise_linear(CAAR)
        assert caar_germ.slopes[-1] == pytest.approx(0.0499, abs=1e-12)
        assert caar_germ.intercepts[-1] == pytest.approx(-0.0499, abs=1e-12)

    def test_interpolates_nodes(self):
        germ = germ_piecewise_linear(AAR)
        np.testing.assert_allclose(germ(AAR.x), AAR.y, atol=1e-15)

    def test_collinear_data_single_slope(self):
        data = uniform_data([0.0, 0.5, 1.0])
        germ = germ_piecewise_linear(data)
        np.testing.assert_allclose(germ.slopes, 1.0, atol=1e-15)
        assert data_is_collinear(data)
        assert not data_is_collinear(AAR)

    def test_continuity_validated(self):
        with pytest.raises(InputError, match="breakpoint"):
            PiecewiseLinear(
                np.array([0.0, 0.5, 1.0]),
                np.array([1.0, 1.0]),
                np.array([0.0, 0.5]),
            )


class TestBase:
    def test_square_composition_identity_germ(self):
        germ = PiecewiseLinear.interpolating([0.0, 1.0], [0.0, 1.0])
        base = base_from_germ(germ)
        assert base(np.array([0.5]))[0] == pytest.approx(0.25, abs=1e-15)

    def test_endpoint_values(self):
        germ = germ_piecewise_linear(AAR)
        base = base_from_germ(germ)
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
        model = FifModel(data=AAR, alpha=ScalingVector.from_spec(0.3, 10), base=endpoint_chord(AAR))
        want = germ_piecewise_linear(AAR)
        assert model.germ.breakpoints.tobytes() == AAR.x.tobytes()
        assert model.germ.slopes.tobytes() == want.slopes.tobytes()
        assert model.germ.intercepts.tobytes() == want.intercepts.tobytes()
        with pytest.raises(TypeError):
            FifModel(data=AAR, alpha=model.alpha, germ=want, base=want)

    def test_base_endpoints_checked(self):
        bad_base = PiecewiseLinear.interpolating([0.0, 1.0], [5.0, 5.0])
        with pytest.raises(InputError, match="endpoint"):
            build_fif_model(AAR, 0.3, base=bad_base)

    def test_alpha_length_checked(self):
        with pytest.raises(InputError):
            build_fif_model(AAR, ScalingVector((0.3, 0.3)))


class TestRbOperator:
    def test_germ_is_fixed_point_at_zero_scaling(self):
        model = build_fif_model(AAR, 0.0)
        grid = build_eval_grid(AAR, 2001)
        h = np.asarray(model.germ(grid))
        out = rb_operator_apply(grid, h, model)
        np.testing.assert_allclose(out, h, atol=1e-15)

    def test_zero_data_zero_function(self):
        data = uniform_data(np.zeros(11))
        model = build_fif_model(data, 0.4)
        grid = build_eval_grid(data, 2001)
        out = rb_operator_apply(grid, np.zeros_like(grid), model)
        np.testing.assert_allclose(out, 0.0, atol=1e-18)

    def test_contraction_factor(self, nonuniform_data):
        # sup-distance between iterates shrinks by at most max|alpha| per pass
        model = build_fif_model(nonuniform_data, 0.5)
        grid = build_eval_grid(nonuniform_data, 3001)
        h1 = np.asarray(model.germ(grid))
        h2 = rb_operator_apply(grid, h1, model)
        for _ in range(6):
            n1 = rb_operator_apply(grid, h1, model)
            n2 = rb_operator_apply(grid, h2, model)
            d_before = np.max(np.abs(h2 - h1))
            d_after = np.max(np.abs(n2 - n1))
            assert d_after <= 0.5 * d_before + 1e-15
            h1, h2 = n1, n2

    def test_endpoint_precondition(self):
        model = build_fif_model(AAR, 0.3)
        grid = build_eval_grid(AAR, 2001)
        with pytest.raises(InputError, match="h must satisfy"):
            rb_operator_apply(grid, np.full_like(grid, 99.0), model)


class TestFixedPoint:
    def test_zero_scaling_converges_immediately_to_germ(self):
        model = build_fif_model(AAR, 0.0)
        sample = evaluate_fif_fixed_point(model, grid_size=2001, tol=1e-9)
        assert sample.generation == 1
        assert sample.converged
        np.testing.assert_allclose(sample.y, np.asarray(model.germ(sample.x)), atol=1e-15)

    def test_interpolates_nodes(self):
        model = build_fif_model(AAR, 0.3)
        sample = evaluate_fif_fixed_point(model, grid_size=6401, tol=1e-9)
        assert verify_interpolation(sample, AAR) < 1e-9

    def test_iteration_count_geometric_prediction(self, nonuniform_data):
        # generic (non-decimal) partition: changes decay like max|alpha|^k,
        # so the iteration count tracks the geometric estimate
        tol = 1e-8
        model = build_fif_model(nonuniform_data, 0.5)
        sample = evaluate_fif_fixed_point(model, grid_size=6401, tol=tol)
        assert sample.converged
        first = sample.sup_changes[0]
        predicted = 1 + math.ceil(math.log(tol * 0.5 / first) / math.log(0.5))
        assert abs(sample.generation - predicted) <= 2

    def test_exact_collapse_on_decimal_grid(self):
        # uniform decimal knots: preimage chains hit knots where germ = base,
        # so the discrete iteration reaches the fixed point exactly
        model = build_fif_model(AAR, 0.5)
        sample = evaluate_fif_fixed_point(model, grid_size=10001, tol=1e-9)
        assert sample.converged
        assert sample.sup_changes[-1] < 1e-13

    def test_error_bound_reported(self):
        model = build_fif_model(AAR, 0.5)
        sample = evaluate_fif_fixed_point(model, grid_size=6401, tol=1e-9)
        assert sample.max_error_bound < 1e-9

    @pytest.mark.parametrize("cap", [0, -1])
    def test_iteration_cap_below_one_refused(self, cap):
        model = build_fif_model(AAR, 0.5)
        with pytest.raises(InputError, match="iteration_cap must be >= 1"):
            evaluate_fif_fixed_point(model, grid_size=2001, iteration_cap=cap)

    def test_iteration_cap_reports_unconverged(self, nonuniform_data):
        model = build_fif_model(nonuniform_data, 0.5)
        sample = evaluate_fif_fixed_point(model, grid_size=6401, tol=1e-12, iteration_cap=3)
        assert not sample.converged
        assert sample.generation == 3
        assert sample.max_error_bound > 0.0

    def test_changes_non_increasing(self):
        for alpha in (0.3, 0.5, MIXED_ALPHA):
            model = build_fif_model(CAAR, alpha)
            sample = evaluate_fif_fixed_point(model, grid_size=6401, tol=1e-10)
            changes = np.asarray(sample.sup_changes)
            assert np.all(np.diff(changes[1:]) <= 1e-15)

    def test_changes_under_geometric_envelope(self, nonuniform_data):
        model = build_fif_model(nonuniform_data, 0.5)
        sample = evaluate_fif_fixed_point(model, grid_size=6401, tol=1e-10)
        changes = np.asarray([c for c in sample.sup_changes if c > 1e-14])
        c0 = changes[0] / 0.5
        bound = c0 * 0.5 ** np.arange(1, len(changes) + 1)
        assert np.all(changes <= bound * (1.0 + 1e-9))

    def test_converged_sample_stable_under_one_more_pass(self):
        tol = 1e-9
        for alpha in (0.3, 0.5, MIXED_ALPHA):
            model = build_fif_model(AAR, alpha)
            sample = evaluate_fif_fixed_point(model, grid_size=6401, tol=tol)
            assert sample.converged
            again = rb_operator_apply(sample.x, sample.y, model)
            assert np.max(np.abs(again - sample.y)) < 2 * tol

    def test_grid_size_precondition(self):
        model = build_fif_model(AAR, 0.3)
        with pytest.raises(InputError, match="grid_size"):
            evaluate_fif_fixed_point(model, grid_size=50)


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
            generate_attractor_points(model, 9, max_points=1_000_000)

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
def random_models(draw):
    """Random partitions of [0, 1] (P 2..10, widths >= 1e-2), ordinates and signed scaling."""
    p_count = draw(st.integers(2, 10))
    weights = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=p_count, max_size=p_count)))
    x = np.concatenate([[0.0], np.cumsum(1e-2 + (1.0 - 1e-2 * p_count) * weights / weights.sum())])
    x[-1] = 1.0
    y = draw(st.lists(st.floats(-1.0, 1.0), min_size=p_count + 1, max_size=p_count + 1))
    alpha = draw(st.lists(st.floats(-0.9, 0.9), min_size=p_count, max_size=p_count))
    return build_fif_model(InterpolationData(x, np.array(y)), alpha)


@settings(max_examples=60, deadline=None)
@given(model=random_models())
def test_both_evaluators_interpolate_random_data(model):
    attractor = generate_attractor_points(model, 3)
    assert verify_interpolation(attractor, model.data) < 1e-7
    fixed = evaluate_fif_fixed_point(model, grid_size=20 * model.data.intervals, iteration_cap=40)
    assert verify_interpolation(fixed, model.data) < 1e-7


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
@given(case=grid_invariant_models())
def test_attractor_agrees_with_fixed_point_within_its_bound(case):
    # the iteration cap may be hit for |alpha| near 0.95; the bound still holds
    model, depth, grid_size = case
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
