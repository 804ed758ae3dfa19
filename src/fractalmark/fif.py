"""Fractal interpolation functions with vertical scaling.

Given data {(x_i, y_i), i = 0..P} on [0, 1], each interval A_p = [x_{p-1}, x_p]
carries an affine contraction l_p(x) = a_p x + b_p mapping [x_0, x_P] onto A_p.
Pairing l_p with the vertical map F_p(x, y) = alpha_p y + q_p(x), where

    q_p(x) = germ(l_p(x)) - alpha_p * base(x),

yields an iterated function system whose unique attractor is the graph of a
continuous function interpolating the data. The germ is a continuous
interpolant of the data (here its piecewise-linear interpolant); the base is
any continuous function agreeing with the data at both endpoints (here
``germ(x^2)``, or the straight chord for the classical affine construction).

Two evaluators are provided. ``generate_attractor_points`` iterates the IFS
maps from the data nodes, producing points that lie exactly on the graph:
this is the canonical sampler for dimension analysis. ``evaluate_fif_fixed_point``
iterates the contraction T(h)(x) = alpha_p h(l_p^{-1}(x)) + q_p(l_p^{-1}(x))
on a grid to the fixed point: this is the cross-check and plotting evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ComputationError, InputError
from .event_study import InterpolationData

NODE_TOL = 1e-10
CONTINUITY_TOL = 1e-10

DEFAULT_GRID_SIZE = 6401
DEFAULT_TOL = 1e-9
DEFAULT_ITERATION_CAP = 200
DEFAULT_MAX_POINTS = 30_000_000
# points per piece of an attractor block (about 0.5 MB per coordinate array)
PIECE_POINTS = 1 << 16
# runs of the inner attractor level per group when bounding its y-range
BOUND_GROUP_RUNS = 8


@dataclass(frozen=True)
class ScalingVector:
    """Per-interval vertical scaling factors, each strictly inside (-1, 1)."""

    alpha: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.alpha:
            raise InputError("scaling vector must be non-empty")
        for a in self.alpha:
            if not math.isfinite(a) or abs(a) >= 1.0:
                raise InputError(f"vertical scaling factors need |alpha| < 1, got {a!r}")

    @classmethod
    def from_spec(cls, spec: float | str | Sequence[float], intervals: int) -> "ScalingVector":
        """Build from a real scalar (broadcast to all intervals), a sequence of
        reals, or a comma-separated string like ``"0.1,0.4,0.5"``."""
        if isinstance(spec, str):
            try:
                values = [float(tok) for tok in spec.split(",") if tok.strip()]
            except ValueError:
                raise InputError(f"unparseable scaling vector {spec!r}") from None
        elif isinstance(spec, Real) or (isinstance(spec, np.ndarray) and spec.ndim == 0):
            values = [float(spec)]
        elif isinstance(spec, (Sequence, np.ndarray)):
            try:
                values = [float(v) for v in spec]
            except (TypeError, ValueError):
                raise InputError(f"scaling vector entries must be numbers, got {spec!r}") from None
        else:
            raise InputError(
                f"scaling vector must be a number, a string or a sequence, got {spec!r}"
            )
        if len(values) == 1:
            values = values * intervals
        if len(values) != intervals:
            raise InputError(
                f"scaling vector needs 1 or {intervals} entries, got {len(values)}"
            )
        return cls(tuple(values))

    @property
    def max_abs(self) -> float:
        return max(abs(a) for a in self.alpha)

    @property
    def sum_abs(self) -> float:
        return sum(abs(a) for a in self.alpha)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.alpha, dtype=float)

    def __len__(self) -> int:
        return len(self.alpha)


@dataclass(frozen=True, eq=False)
class PiecewiseLinear:
    """Continuous piecewise-linear function y = slope_p * x + intercept_p on
    [breakpoints[p], breakpoints[p+1]], defined on the whole breakpoint span."""

    breakpoints: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray

    def __post_init__(self) -> None:
        bx = np.asarray(self.breakpoints, dtype=float)
        if np.any(np.diff(bx) <= 0.0):
            raise InputError("breakpoints must be strictly increasing")
        if len(self.slopes) != len(bx) - 1 or len(self.intercepts) != len(bx) - 1:
            raise InputError("need one (slope, intercept) pair per segment")
        interior = bx[1:-1]
        if interior.size:
            left = self.slopes[:-1] * interior + self.intercepts[:-1]
            right = self.slopes[1:] * interior + self.intercepts[1:]
            if np.max(np.abs(left - right)) > CONTINUITY_TOL:
                raise InputError("segments disagree at an interior breakpoint")

    @classmethod
    def interpolating(cls, x: Sequence[float], y: Sequence[float]) -> "PiecewiseLinear":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        slopes = np.diff(y) / np.diff(x)
        intercepts = y[:-1] - slopes * x[:-1]
        return cls(x, slopes, intercepts)

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        arr = np.asarray(x, dtype=float)
        i = np.clip(
            np.searchsorted(self.breakpoints, arr, side="right") - 1,
            0,
            len(self.slopes) - 1,
        )
        out = self.slopes[i] * arr + self.intercepts[i]
        return out if arr.ndim else float(out)

    @property
    def segments(self) -> int:
        return len(self.slopes)


@dataclass(frozen=True, eq=False)
class FifModel:
    """Everything needed to evaluate one fractal interpolant: the data, the
    scaling vector and the base function handle, plus what they determine.

    ``germ`` is the data's piecewise-linear interpolant, one segment per data
    interval. ``a`` and ``b`` hold the domain maps l_p(x) = a_p x + b_p,
    which take [x_0, x_P] onto [x_{p-1}, x_p]: a_p = (x_p - x_{p-1}) /
    (x_P - x_0) and b_p = (x_P x_{p-1} - x_0 x_p) / (x_P - x_0). All three
    are computed from the data; ``a`` and ``b`` are read-only arrays.
    """

    data: InterpolationData
    alpha: ScalingVector
    base: Callable[[np.ndarray], np.ndarray]
    germ: PiecewiseLinear = field(init=False, repr=False)
    a: np.ndarray = field(init=False, repr=False)
    b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.alpha) != self.data.intervals:
            raise InputError(
                f"scaling vector has {len(self.alpha)} entries for "
                f"{self.data.intervals} intervals"
            )
        ends = self.base(np.array([self.data.x[0], self.data.x[-1]]))
        if abs(ends[0] - self.data.y[0]) > NODE_TOL or abs(ends[1] - self.data.y[-1]) > NODE_TOL:
            raise InputError("base function must match the data at both endpoints")
        x = self.data.x
        span = x[-1] - x[0]
        a = np.diff(x) / span
        b = (x[-1] * x[:-1] - x[0] * x[1:]) / span
        a.flags.writeable = b.flags.writeable = False
        object.__setattr__(self, "germ", germ_piecewise_linear(self.data))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def collinear(self) -> bool:
        return data_is_collinear(self.data)


@dataclass(frozen=True, eq=False)
class GraphSample:
    """Points on (or converging to) the graph of the fractal interpolant.

    ``generation`` is the IFS refinement depth or the fixed-point iteration
    count, depending on the evaluator. ``max_error_bound`` is a sup-norm
    bound on the distance to the true graph values at the sampled abscissae
    (0 for exact attractor points). ``sup_changes`` records the successive
    sup-norm changes of the fixed-point iteration, when applicable.
    """

    x: np.ndarray
    y: np.ndarray
    generation: int
    max_error_bound: float
    converged: bool = True
    sup_changes: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise InputError("sample must hold matching 1-D x and y arrays")
        if self.x[0] < -1e-9 or self.x[-1] > 1.0 + 1e-9:
            raise InputError("sample abscissae must lie within [0, 1]")

    def __len__(self) -> int:
        return len(self.x)


def germ_piecewise_linear(data: InterpolationData) -> PiecewiseLinear:
    """The piecewise-linear interpolant through the data nodes."""
    return PiecewiseLinear.interpolating(data.x, data.y)


def base_from_germ(germ: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """Base function x -> germ(x^2); shares the germ's endpoint values on [0, 1]."""

    def base(x: np.ndarray) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        return germ(arr * arr)

    return base


def endpoint_chord(data: InterpolationData) -> PiecewiseLinear:
    """The straight line through the first and last data node (affine base)."""
    return PiecewiseLinear.interpolating(
        np.array([data.x[0], data.x[-1]]), np.array([data.y[0], data.y[-1]])
    )


def data_is_collinear(data: InterpolationData, rtol: float = 1e-9) -> bool:
    """True if every node lies on the chord through the endpoints."""
    chord = endpoint_chord(data)
    scale = max(np.max(np.abs(data.y)), 1e-300)
    return bool(np.max(np.abs(chord(data.x) - data.y)) <= rtol * scale)


def build_fif_model(
    data: InterpolationData,
    alpha: ScalingVector | float | str | Sequence[float],
    base: str | Callable[[np.ndarray], np.ndarray] = "square",
) -> FifModel:
    """Assemble a model from data and scaling spec.

    ``base`` selects the base function: ``"square"`` for germ(x^2) (the
    default construction here), ``"chord"`` for the straight line through
    the endpoints (classical affine interpolant), or any callable matching
    the data at both endpoints.
    """
    if not isinstance(alpha, ScalingVector):
        alpha = ScalingVector.from_spec(alpha, data.intervals)
    if base == "square":
        base_fn: Callable[[np.ndarray], np.ndarray] = base_from_germ(germ_piecewise_linear(data))
    elif base == "chord":
        base_fn = endpoint_chord(data)
    elif callable(base):
        base_fn = base
    else:
        raise InputError(f"unknown base spec {base!r}")
    return FifModel(data=data, alpha=alpha, base=base_fn)


def build_eval_grid(data: InterpolationData, grid_size: int) -> np.ndarray:
    """A grid of about ``grid_size`` points covering [0, 1] that contains every
    partition knot exactly (so nodal values stay pinned during iteration)."""
    if grid_size < 10 * data.intervals:
        raise InputError(
            f"grid_size must be at least 10 * P = {10 * data.intervals}, got {grid_size}"
        )
    spacing = 1.0 / (grid_size - 1)
    parts = []
    for p in range(data.intervals):
        width = data.x[p + 1] - data.x[p]
        m = max(1, round(width / spacing))
        seg = np.linspace(data.x[p], data.x[p + 1], m + 1)
        parts.append(seg if p == 0 else seg[1:])
    return np.concatenate(parts)


def _operator_terms(
    grid_x: np.ndarray, model: FifModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The h-independent terms of T on a grid: l_p^{-1}(x), alpha_p, germ(x)
    and alpha_p * base(l_p^{-1}(x)), with p the interval of each grid point."""
    if np.any(np.diff(grid_x) <= 0.0):
        raise InputError("grid abscissae must be strictly increasing")
    data = model.data
    if abs(grid_x[0] - data.x[0]) > 1e-9 or abs(grid_x[-1] - data.x[-1]) > 1e-9:
        raise InputError("grid must cover [x_0, x_P]")
    # every interval needs a grid point, otherwise some branch is never sampled
    per_interval = np.diff(np.searchsorted(grid_x, data.x))
    if np.any(per_interval < 1):
        raise InputError("grid too coarse: an interval contains no grid point")
    # x in [x_p, x_{p+1}) lies in interval p; x_P lies in the last one
    p = np.clip(np.searchsorted(data.x, grid_x, side="right") - 1, 0, data.intervals - 1)
    inv = (grid_x - model.b[p]) / model.a[p]
    scale = model.alpha.as_array()[p]
    # q_p(l_p^{-1}(x)) = germ(x) - alpha_p * base(l_p^{-1}(x)), since l_p(l_p^{-1}(x)) = x
    return inv, scale, np.asarray(model.germ(grid_x)), scale * np.asarray(model.base(inv))


def _operator_step(
    grid_x: np.ndarray,
    h_y: np.ndarray,
    terms: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """T(h) on the grid from its h-independent terms, summed in the order
    (alpha_p h(l_p^{-1}(x)) + germ(x)) - alpha_p base(l_p^{-1}(x))."""
    inv, scale, germ_vals, base_term = terms
    out = scale * np.interp(inv, grid_x, h_y)
    out += germ_vals
    out -= base_term
    return out


def rb_operator_apply(
    grid_x: np.ndarray, h_y: np.ndarray, model: FifModel
) -> np.ndarray:
    """One pass of the contraction T(h)(x) = alpha_p h(l_p^{-1}(x)) + q_p(l_p^{-1}(x)).

    ``h`` is given by its values on ``grid_x``; off-grid evaluations use
    linear interpolation between grid samples. Requires h to match the data
    at both endpoints (the space on which T is a contraction).
    """
    grid_x = np.asarray(grid_x, dtype=float)
    h_y = np.asarray(h_y, dtype=float)
    if grid_x.shape != h_y.shape:
        raise InputError("grid and values must have matching shapes")
    terms = _operator_terms(grid_x, model)
    data = model.data
    if abs(h_y[0] - data.y[0]) > 1e-8 or abs(h_y[-1] - data.y[-1]) > 1e-8:
        raise InputError("h must satisfy h(x_0) = y_0 and h(x_P) = y_P")
    return _operator_step(grid_x, h_y, terms)


def evaluate_fif_fixed_point(
    model: FifModel,
    grid_size: int = DEFAULT_GRID_SIZE,
    tol: float = DEFAULT_TOL,
    iteration_cap: int = DEFAULT_ITERATION_CAP,
) -> GraphSample:
    """Iterate the contraction from the germ until the sup-norm change drops
    below ``tol * (1 - max|alpha|)``, which bounds the remaining distance to
    the fixed point by ``tol`` (a posteriori contraction estimate).

    If the iteration cap (at least 1) is reached first, the sample is
    returned with ``converged = False`` and the achieved bound.
    """
    if tol <= 0.0:
        raise InputError("tol must be positive")
    if iteration_cap < 1:
        raise InputError(f"iteration_cap must be >= 1, got {iteration_cap}")
    grid = build_eval_grid(model.data, grid_size)
    terms = _operator_terms(grid, model)
    h = np.asarray(model.germ(grid), dtype=float)
    s = model.alpha.max_abs
    threshold = tol * (1.0 - s)
    changes: list[float] = []
    converged = False
    for _ in range(iteration_cap):
        nxt = _operator_step(grid, h, terms)
        delta = float(np.max(np.abs(nxt - h)))
        changes.append(delta)
        h = nxt
        if delta < threshold:
            converged = True
            break
    bound = changes[-1] / (1.0 - s)
    return GraphSample(
        x=grid,
        y=h,
        generation=len(changes),
        max_error_bound=bound,
        converged=converged,
        sup_changes=tuple(changes),
    )


def _branch_image(
    model: FifModel, p: int, xs: np.ndarray, ys: np.ndarray, base_vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Branch p of one IFS round: (l_p(x), alpha_p y + q_p(x)) for every input point.

    ``xs`` is a raw IFS level or a slice of one, so at most its first and
    last points sit at x_0 and x_P; every other image lies strictly inside
    germ segment p, where the germ is ``slope_p x + intercept_p``. The two
    end images may land on knots, and there the germ's own lookup picks the
    side.
    """
    germ = model.germ
    alpha = model.alpha.alpha[p]
    # in-place steps, same operations and rounding as
    # lx = a_p x + b_p; ly = alpha_p y + germ(lx) - alpha_p base(x)
    lx = model.a[p] * xs
    lx += model.b[p]
    g = germ.slopes[p] * lx
    g += germ.intercepts[p]
    g[[0, -1]] = germ(lx[[0, -1]])
    ly = alpha * ys
    ly += g
    ly -= np.multiply(alpha, base_vals, out=g)
    return lx, ly


def _drop_seam_twins(
    grid_x: np.ndarray, grid_y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Drop one point of each seam twin between consecutive rows of a run grid.

    Row r + 1 starts where row r ends: the two points are one attractor point
    reached along two paths, a few ulps apart and possibly inverted. The
    smaller x is kept, the earlier point on a tie: the point a stable sort
    followed by dropping near-equal neighbours keeps. The kept twin is
    written to the start of the later row, and the rows are returned without
    their last points (as views); the last row's last point is the caller's.
    """
    take_left = grid_x[:-1, -1] <= grid_x[1:, 0]
    np.copyto(grid_x[1:, 0], grid_x[:-1, -1], where=take_left)
    np.copyto(grid_y[1:, 0], grid_y[:-1, -1], where=take_left)
    return grid_x[:, :-1], grid_y[:, :-1]


class AttractorBlocks:
    """The points of ``generate_attractor_points``, one branch block at a time.

    The IFS is expanded to depth - 1 once (the inner level, seam twins
    included). Each iteration then yields, for every branch p in order, the
    branch-p image of that level with its seam twins dropped, in pieces of
    about ``PIECE_POINTS`` points. A piece is a pair of equal-shape arrays
    whose points, in C order, are sorted by x. Pieces come in x order and
    the blocks join at the data nodes, which are included exactly: block p
    starts at node p, and a last one-point piece holds node P. Only the
    inner level, (P + 1) * P^(depth - 1) points, is held.

    ``len()`` and ``bounds`` describe the whole stream without generating it.
    """

    def __init__(
        self, model: FifModel, depth: int, max_points: int = DEFAULT_MAX_POINTS
    ) -> None:
        if depth < 0:
            raise InputError("depth must be non-negative")
        p_count = model.data.intervals
        expected = (p_count + 1) * p_count**depth
        if expected > max_points:
            raise InputError(
                f"depth {depth} would generate ~{expected} points, over the "
                f"budget of {max_points}"
            )
        self.model = model
        self.depth = depth
        xs, ys = model.data.x, model.data.y
        for _ in range(depth - 1):
            base_vals = np.asarray(model.base(xs))
            n = len(xs)
            new_x, new_y = np.empty(n * p_count), np.empty(n * p_count)
            for p in range(p_count):
                new_x[p * n : (p + 1) * n], new_y[p * n : (p + 1) * n] = _branch_image(
                    model, p, xs, ys, base_vals
                )
            xs, ys = new_x, new_y
        self._inner = (xs, ys, np.asarray(model.base(xs)))
        # the inner level is P^(depth - 1) runs of P + 1 points
        self._run = p_count + 1
        self._rows = len(xs) // self._run

    def __len__(self) -> int:
        p_count = self.model.data.intervals
        if self.depth == 0:
            return p_count + 1
        # every run loses its last point to a seam twin; node P ends the stream
        return p_count * self._rows * p_count + 1

    def _step(self) -> int:
        """Runs per piece: whole runs, few enough to keep temporaries in cache."""
        return max(1, PIECE_POINTS // self._run)

    def _piece(self, p: int, start: int) -> tuple[np.ndarray, np.ndarray]:
        """Branch p's piece of the runs from ``start``, seam twins dropped."""
        data = self.model.data
        xs, ys, base_vals = self._inner
        run = self._run
        piece = slice(start * run, min(start + self._step(), self._rows) * run)
        lx, ly = _branch_image(self.model, p, xs[piece], ys[piece], base_vals[piece])
        grid_x, grid_y = lx.reshape(-1, run), ly.reshape(-1, run)
        if start == 0:
            # the block starts at node p; its end twins node p + 1
            grid_x[0, 0], grid_y[0, 0] = data.x[p], data.y[p]
        else:
            # the previous piece's last point, with the same end lookup
            twin = slice(piece.start - 1, piece.start)
            last_x, last_y = _branch_image(self.model, p, xs[twin], ys[twin], base_vals[twin])
            if last_x[0] <= grid_x[0, 0]:
                grid_x[0, 0], grid_y[0, 0] = last_x[0], last_y[0]
        return _drop_seam_twins(grid_x, grid_y)

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        data = self.model.data
        if self.depth == 0:
            yield data.x, data.y
            return
        for p in range(data.intervals):
            for start in range(0, self._rows, self._step()):
                yield self._piece(p, start)
        yield data.x[-1:], data.y[-1:]

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        """(x_min, x_max, y_min, y_max) of the stream, bit for bit, without
        generating it.

        The stream is sorted by x, so the x-bounds are nodes 0 and P. For y,
        the inner level is cut into groups of ``BOUND_GROUP_RUNS`` runs, and
        interval arithmetic on ly = alpha_p (y - base) + germ_p(l_p(x)) over
        each group's x- and (y - base)-ranges bounds its branch-p image.
        Every piece that meets a group able to hold an extreme is generated
        exactly, with the piece after it, which may keep its last point as a
        seam twin.
        """
        data = self.model.data
        x_min, x_max = float(data.x[0]), float(data.x[-1])
        if self.depth == 0:
            return x_min, x_max, float(data.y.min()), float(data.y.max())
        model = self.model
        xs, ys, base_vals = self._inner
        starts = np.arange(0, len(xs), BOUND_GROUP_RUNS * self._run)
        gx_lo, gx_hi = np.minimum.reduceat(xs, starts), np.maximum.reduceat(xs, starts)
        rest = ys - base_vals
        gd_lo, gd_hi = np.minimum.reduceat(rest, starts), np.maximum.reduceat(rest, starts)
        del rest
        alpha, a, b = model.alpha.as_array(), model.a, model.b
        slopes, intercepts = model.germ.slopes, model.germ.intercepts
        # rounding, and a germ lookup landing on a neighbouring segment at a
        # knot, move a computed point by far less than this
        scale = (
            np.abs(alpha) * (max(ys.max(), -ys.min()) + max(base_vals.max(), -base_vals.min()))
            + np.abs(slopes).max() * (np.abs(a) * max(xs.max(), -xs.min()) + np.abs(b))
            + np.abs(intercepts).max()
        )
        margin = 1e-9 * scale + CONTINUITY_TOL

        def group_range(p: int) -> tuple[np.ndarray, np.ndarray]:
            ends = (
                slopes[p] * (a[p] * gx_lo + b[p]) + intercepts[p],
                slopes[p] * (a[p] * gx_hi + b[p]) + intercepts[p],
            )
            terms = alpha[p] * gd_lo, alpha[p] * gd_hi
            lo = np.minimum(*terms) + np.minimum(*ends) - margin[p]
            hi = np.maximum(*terms) + np.maximum(*ends) + margin[p]
            return lo, hi

        # every group keeps points of its own, so the extremes are at least
        # as far out as every group's inner bound and every node
        y_floor, y_ceil = data.y.max(), data.y.min()
        for p in range(data.intervals):
            lo, hi = group_range(p)
            y_floor = np.fmax(y_floor, np.fmax.reduce(lo))
            y_ceil = np.fmin(y_ceil, np.fmin.reduce(hi))
        step = self._step()
        piece_starts = np.arange(0, self._rows, step)
        y_lows, y_highs = [data.y.min()], [data.y.max()]
        for p in range(data.intervals):
            lo, hi = group_range(p)
            wanted = (hi >= y_floor) | (lo <= y_ceil) | ~(np.isfinite(lo) & np.isfinite(hi))
            runs = np.repeat(wanted, BOUND_GROUP_RUNS)[: self._rows]
            pieces = np.logical_or.reduceat(runs, piece_starts)
            pieces[1:] |= pieces[:-1]
            for start in piece_starts[pieces]:
                _, kept_y = self._piece(p, int(start))
                y_lows.append(kept_y.min())
                y_highs.append(kept_y.max())
        return x_min, x_max, float(np.min(y_lows)), float(np.max(y_highs))


def generate_attractor_points(
    model: FifModel, depth: int, max_points: int = DEFAULT_MAX_POINTS
) -> GraphSample:
    """Apply every IFS branch to the node set for ``depth`` rounds.

    Every produced point lies exactly on the attractor graph (up to
    floating-point arithmetic), because the nodes do and the maps send graph
    points to graph points. Output is sorted by x with coincident interval
    endpoints deduplicated; the P+1 data nodes are included exactly.
    """
    blocks = list(AttractorBlocks(model, depth, max_points))
    return GraphSample(
        x=np.concatenate([x.ravel() for x, _ in blocks]),
        y=np.concatenate([y.ravel() for _, y in blocks]),
        generation=depth,
        max_error_bound=0.0,
    )


def verify_interpolation(sample: GraphSample, data: InterpolationData) -> float:
    """Max |sample_y(x_i) - y_i| over the data nodes.

    Raises
    ------
    ComputationError
        If some node abscissa is absent from the sample (beyond 1e-9).
    """
    idx = np.searchsorted(sample.x, data.x)
    idx = np.clip(idx, 0, len(sample.x) - 1)
    left = np.clip(idx - 1, 0, len(sample.x) - 1)
    nearer_left = np.abs(sample.x[left] - data.x) < np.abs(sample.x[idx] - data.x)
    idx = np.where(nearer_left, left, idx)
    gaps = np.abs(sample.x[idx] - data.x)
    if np.max(gaps) > 1e-9:
        worst = int(np.argmax(gaps))
        raise ComputationError(
            f"node x = {data.x[worst]!r} missing from sample (nearest {sample.x[idx][worst]!r})"
        )
    return float(np.max(np.abs(sample.y[idx] - data.y)))
