"""Fractal interpolation functions with vertical scaling.

Given data {(x_i, y_i), i = 0..P} on [0, 1], each interval A_p = [x_{p-1}, x_p]
carries an affine contraction l_p(x) = a_p x + b_p mapping [x_0, x_P] onto A_p.
Pairing l_p with the vertical map F_p(x, y) = alpha_p y + q_p(x), where

    q_p(x) = germ(l_p(x)) - alpha_p * base(x),

yields an iterated function system whose unique attractor is the graph of a
continuous function interpolating the data. The germ is a continuous
interpolant of the data (here its piecewise-linear interpolant); the base is
a continuous function agreeing with the data at both endpoints (here
``germ(x^2)``, or the straight chord for the classical affine construction).

Two evaluators are provided. ``generate_attractor_points`` iterates the IFS
maps from the data nodes, producing points that lie exactly on the graph:
this is the canonical sampler for dimension analysis. ``evaluate_fif_fixed_point``
solves for the fixed point of the contraction
T(h)(x) = alpha_p h(l_p^{-1}(x)) + q_p(l_p^{-1}(x)) on a grid that every
l_p^{-1} maps onto itself, which exists only for a uniform partition: this
is the cross-check and plotting evaluator, and it refuses other partitions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ComputationError, InputError
from .event_study import InterpolationData

NODE_TOL = 1e-10
COLLINEAR_RTOL = 1e-9

DEFAULT_GRID_SIZE = 6401
DEFAULT_TOL = 1e-9
MAX_POINTS = 30_000_000
# points per piece of an attractor block, and runs per chunk of the walk of
# the IFS address tree (about 0.5 MB per coordinate array)
PIECE_POINTS = 1 << 16


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


def _pair_extremes(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The smaller and the larger value of each pair along the last axis."""
    first, second = v[..., 0::2], v[..., 1::2]
    return np.minimum(first, second), np.maximum(first, second)


@dataclass(frozen=True, eq=False)
class PiecewiseLinear:
    """The piecewise-linear interpolant of the knots (breakpoints[p], values[p]):
    y = slope_p * x + intercept_p on [breakpoints[p], breakpoints[p+1]],
    defined on the whole breakpoint span. Each segment is the line through
    its two knots, so the segments meet at every knot up to rounding."""

    breakpoints: np.ndarray
    values: np.ndarray
    slopes: np.ndarray = field(init=False)
    intercepts: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        x = np.asarray(self.breakpoints, dtype=float)
        y = np.asarray(self.values, dtype=float)
        if np.any(np.diff(x) <= 0.0):
            raise InputError("breakpoints must be strictly increasing")
        if y.shape != x.shape:
            raise InputError("need one value per breakpoint")
        slopes = np.diff(y) / np.diff(x)
        object.__setattr__(self, "breakpoints", x)
        object.__setattr__(self, "values", y)
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "intercepts", y[:-1] - slopes * x[:-1])

    def _segment(self, arr: np.ndarray) -> np.ndarray:
        return np.clip(
            np.searchsorted(self.breakpoints, arr, side="right") - 1,
            0,
            len(self.slopes) - 1,
        )

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        arr = np.asarray(x, dtype=float)
        i = self._segment(arr)
        out = self.slopes[i] * arr + self.intercepts[i]
        return out if arr.ndim else float(out)

    @functools.cached_property
    def _knot_extremes(self) -> tuple[np.ndarray, np.ndarray]:
        """[i, j]: the least and greatest value at the breakpoints after
        segment i's start, up to segment j's start (+-inf when there is none)."""
        knots = self.slopes[1:] * self.breakpoints[1:-1] + self.intercepts[1:]
        count = len(self.slopes)
        low, high = np.full((count, count), np.inf), np.full((count, count), -np.inf)
        for i in range(count - 1):
            low[i, i + 1 :] = np.minimum.accumulate(knots[i:])
            high[i, i + 1 :] = np.maximum.accumulate(knots[i:])
        return low, high

    def span(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The values at ``x``, bit for bit, and over each pair of points
        along its last axis the least and greatest value between them, up
        to rounding."""
        i = self._segment(x)
        values = self.slopes[i] * x + self.intercepts[i]
        low, high = self._knot_extremes
        first, last = _pair_extremes(i)
        end_lo, end_hi = _pair_extremes(values)
        return values, np.minimum(end_lo, low[first, last]), np.maximum(end_hi, high[first, last])


@dataclass(frozen=True, eq=False)
class FifModel:
    """Everything needed to evaluate one fractal interpolant: the data, the
    scaling vector and the base function, plus what they determine.

    ``germ`` is the data's piecewise-linear interpolant, one segment per data
    interval. ``base`` is given as ``"square"`` (x -> germ(x^2)) or
    ``"chord"`` (the straight line through the end nodes), and is held as
    that function, which bounds itself between two points (``span``).
    ``a`` and ``b`` hold the domain maps l_p(x) = a_p x + b_p, which take
    [x_0, x_P] onto [x_{p-1}, x_p]: a_p = (x_p - x_{p-1}) / (x_P - x_0) and
    b_p = (x_P x_{p-1} - x_0 x_p) / (x_P - x_0). All are computed from the
    data; ``a`` and ``b`` are read-only arrays.
    """

    data: InterpolationData
    alpha: ScalingVector
    base: str | PiecewiseLinear | SquaredGerm
    germ: PiecewiseLinear = field(init=False, repr=False)
    a: np.ndarray = field(init=False, repr=False)
    b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        germ = PiecewiseLinear(self.data.x, self.data.y)
        spec = self.base if isinstance(self.base, str) else None
        if spec == "square":
            object.__setattr__(self, "base", SquaredGerm(germ))
        elif spec == "chord":
            object.__setattr__(self, "base", endpoint_chord(self.data))
        else:
            raise InputError(f"unknown base spec: use 'square' or 'chord', not {self.base!r}")
        if len(self.alpha) != self.data.intervals:
            raise InputError(
                f"scaling vector has {len(self.alpha)} entries for "
                f"{self.data.intervals} intervals"
            )
        # x_0 and x_P may sit up to 1e-12 off 0 and 1, where germ(x^2) need
        # not match the end nodes; the tolerance scales with the data
        x, y = self.data.x, self.data.y
        miss = np.abs(self.base(x[[0, -1]]) - y[[0, -1]]).max()
        if miss > NODE_TOL * max(1.0, np.abs(y).max()):
            raise InputError("base function must match the data at both endpoints")
        span = x[-1] - x[0]
        a = np.diff(x) / span
        b = (x[-1] * x[:-1] - x[0] * x[1:]) / span
        a.flags.writeable = b.flags.writeable = False
        object.__setattr__(self, "germ", germ)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True, eq=False)
class GraphSample:
    """Points on the graph of the fractal interpolant, or within a bound of it.

    ``generation`` is the IFS refinement depth or the fixed-point solve's
    count of doubling rounds, depending on the evaluator.
    ``max_error_bound`` is a sup-norm bound on the distance to the true
    graph values at the sampled abscissae (0 for exact attractor points).
    """

    x: np.ndarray
    y: np.ndarray
    generation: int
    max_error_bound: float

    def __post_init__(self) -> None:
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise InputError("sample must hold matching 1-D x and y arrays")
        if not self.x.size:
            raise InputError("sample must hold at least one point")
        if self.x[0] < -1e-9 or self.x[-1] > 1.0 + 1e-9:
            raise InputError("sample abscissae must lie within [0, 1]")

    def __len__(self) -> int:
        return len(self.x)


@dataclass(frozen=True, eq=False)
class SquaredGerm:
    """The base x -> germ(x^2), which shares the germ's endpoint values on [0, 1].

    Its ``span`` is the germ's at the squares. A pair around 0 misses the
    germ between 0 and the smaller square, at most 1e-24 wide, where the
    germ moves by far less than the walk's margin.
    """

    germ: PiecewiseLinear

    def __call__(self, x: np.ndarray) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        return self.germ(arr * arr)

    def span(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.germ.span(x * x)


def endpoint_chord(data: InterpolationData) -> PiecewiseLinear:
    """The straight line through the first and last data node (affine base)."""
    return PiecewiseLinear(data.x[[0, -1]], data.y[[0, -1]])


def data_is_collinear(data: InterpolationData) -> bool:
    """True if every node lies within COLLINEAR_RTOL * max|y| of the endpoint chord."""
    chord = endpoint_chord(data)
    scale = max(np.max(np.abs(data.y)), 1e-300)
    return bool(np.max(np.abs(chord(data.x) - data.y)) <= COLLINEAR_RTOL * scale)


def build_fif_model(
    data: InterpolationData,
    alpha: ScalingVector | float | str | Sequence[float],
    base: str = "square",
) -> FifModel:
    """Assemble a model from data and scaling spec.

    ``base`` selects the base function: ``"square"`` for germ(x^2) (the
    default construction here) or ``"chord"`` for the straight line through
    the endpoints (classical affine interpolant).
    """
    if not isinstance(alpha, ScalingVector):
        alpha = ScalingVector.from_spec(alpha, data.intervals)
    return FifModel(data=data, alpha=alpha, base=base)


def uniform_partition(data: InterpolationData) -> bool:
    """True if every interval of the data is within ``NODE_TOL`` of 1/P wide."""
    widths = np.diff(data.x)
    return bool(np.max(np.abs(widths - 1.0 / data.intervals)) <= NODE_TOL)


def build_eval_grid(data: InterpolationData, grid_size: int) -> np.ndarray:
    """The closed grid {x_p + k (x_{p+1} - x_p) / m} of a uniform partition:
    m = round((grid_size - 1) / P) steps in every interval, P m + 1 points,
    every knot exact. Each l_p^{-1} maps the points of interval p onto the
    grid, so the fixed-point solve reads only grid values. Any other
    partition, and a grid of more than ``MAX_POINTS`` points, is refused."""
    if not uniform_partition(data):
        spread = np.ptp(np.diff(data.x))
        raise InputError(
            f"the fixed-point evaluator needs equal intervals (within {NODE_TOL:g}); "
            f"these widths differ by up to {spread:.3g}"
        )
    if grid_size < 10 * data.intervals:
        raise InputError(
            f"grid_size must be at least 10 * P = {10 * data.intervals}, got {grid_size}"
        )
    m = round((grid_size - 1) / data.intervals)
    if data.intervals * m + 1 > MAX_POINTS:
        raise InputError(
            f"grid_size {grid_size} would give {data.intervals * m + 1} grid points, "
            f"over the budget of {MAX_POINTS}"
        )
    steps = np.linspace(data.x[:-1], data.x[1:], m + 1, axis=1)
    return np.append(steps[:, :-1].ravel(), data.x[-1])


def _operator(model: FifModel, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T on a ``build_eval_grid`` grid as an index map, T(h) = s * h[phi] + c.

    Grid point j = p m + k of interval p (x_P in the last) goes under l_p^{-1}
    to grid point phi(j) = P k, so s[j] = alpha_p and, since
    q_p(l_p^{-1}(x)) = germ(x) - alpha_p base(l_p^{-1}(x)),
    c[j] = germ(x_j) - alpha_p base(x_{phi(j)}).
    """
    p_count = model.data.intervals
    m = (len(grid) - 1) // p_count
    j = np.arange(len(grid))
    p = np.minimum(j // m, p_count - 1)
    phi = p_count * (j - p * m)
    s = model.alpha.as_array()[p]
    return s, model.germ(grid) - s * model.base(grid[phi]), phi


def evaluate_fif_fixed_point(
    model: FifModel,
    grid_size: int = DEFAULT_GRID_SIZE,
    tol: float = DEFAULT_TOL,
) -> GraphSample:
    """The fixed point of T on ``build_eval_grid``'s closed grid, within ``tol``.

    Composing T's index map with itself, (s, c, phi) <- (s s[phi],
    c + s c[phi], phi[phi]), squares T, so K rounds give T^(2^K). With g the
    germ and s = max|alpha|, ||T^n g - f|| <= s^n ||Tg - g|| / (1 - s); K is
    the fewest rounds that bring this bound at n = 2^K within ``tol``. The
    sample holds T^(2^K) g, K as ``generation`` and the bound as
    ``max_error_bound``. A non-uniform partition, and a ``tol`` that is not
    finite and positive, are refused.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise InputError(f"tol must be finite and positive, got {tol!r}")
    grid = build_eval_grid(model.data, grid_size)
    s, c, phi = _operator(model, grid)
    germ = model.germ(grid)
    shrink = model.alpha.max_abs
    first_change = float(np.max(np.abs(s * germ[phi] + c - germ)))
    power, rounds = shrink, 0
    while power * first_change / (1.0 - shrink) > tol:
        s, c, phi = s * s[phi], c + s * c[phi], phi[phi]
        power, rounds = power * power, rounds + 1
    return GraphSample(
        x=grid,
        y=s * germ[phi] + c,
        generation=rounds,
        max_error_bound=power * first_change / (1.0 - shrink),
    )


def _branch_image(
    model: FifModel,
    p: int | np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    base_vals: np.ndarray,
    ends: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Branch p of one IFS round: (l_p(x), alpha_p y + q_p(x)) for every input point.

    ``p`` is a branch, or an integer array that broadcasts against ``xs``,
    such as a column of branches, one per row. The germ is taken as segment
    p's line ``slope_p x + intercept_p``, which is exact for every image
    strictly inside the segment: all but the images of a raw level's first
    and last points, x_0 and x_P, which may land on knots. With ``ends``,
    the first and last image along the last axis take the germ's own
    lookup, which picks the side there.
    """
    germ = model.germ
    alpha = model.alpha.as_array()[p]
    # in-place steps, same operations and rounding as
    # lx = a_p x + b_p; ly = alpha_p y + germ(lx) - alpha_p base(x)
    lx = model.a[p] * xs
    lx += model.b[p]
    g = germ.slopes[p] * lx
    g += germ.intercepts[p]
    if ends:
        g[..., [0, -1]] = germ(lx[..., [0, -1]])
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
    Leading axes, if any, hold separate grids.
    """
    take_left = grid_x[..., :-1, -1] <= grid_x[..., 1:, 0]
    np.copyto(grid_x[..., 1:, 0], grid_x[..., :-1, -1], where=take_left)
    np.copyto(grid_y[..., 1:, 0], grid_y[..., :-1, -1], where=take_left)
    return grid_x[..., :-1], grid_y[..., :-1]


class _Runs(NamedTuple):
    """Consecutive runs of one IFS level, from run ``start`` on: each run's
    first and last point and the base there, as flat (first, last) pairs."""

    start: int
    x: np.ndarray
    y: np.ndarray
    base: np.ndarray


class AttractorBlocks:
    """The points of ``generate_attractor_points``, one branch block at a time.

    IFS level j is P^j runs of P + 1 points: run (p_j ... p_1) is the image
    of the data nodes under F_{p_j} o ... o F_{p_1}, and level j + 1 is the
    branch-p image of level j for each p in turn. The stream is level
    ``depth`` in that order, every run without its last point, which twins
    the next run's first: block p starts exactly at node p, and a last
    one-point piece holds node P. Each iteration yields, for every branch p
    in order, pieces of whole runs of about ``PIECE_POINTS`` points. A
    piece is a pair of equal-shape arrays whose points, in C order, are
    sorted by x, and pieces come in x order.

    No array whose length grows with P^depth is held. Both ways through
    the IFS address tree start from the top level, the deepest level below
    ``depth`` with at most ``PIECE_POINTS`` runs, held whole: each run's
    two end points, and a range of y - base that one map of its parent's
    range bounds.

    - The walk, for iteration and ``occupancy``, takes level depth - 1 in
      x order, in chunks of the top level's size, each run carrying only
      its two end points (the branch images of its parent's) and the base
      there. From a chunk comes the first point the stream keeps from
      every run below it.
    - The descent, for ``bounds`` and ``occupancy``, walks no level. It
      prunes the stream's runs with a caller's test of boxes, from the
      whole of level depth - 1 under each branch down to single runs. A
      group's box holds the range of y - base over its top-level runs (or
      over a whole level, above the top), sent through the maps of its
      address. Only a run whose box is kept is generated at level
      depth - 1, where the exact range of its interior points boxes it
      again, and only a run that box keeps has its stream points
      generated.

    Interior points are sent through the runs' maps from the deepest level
    that fits in one piece, which is held. Every image except those of each
    raw level's first and last point lies strictly inside its germ segment,
    so a point's value does not depend on the chunk or gathered set of runs
    that computes it.

    The range of y - base comes from the base's own bound (``span``).
    A stream of more than ``MAX_POINTS`` points is refused.
    """

    def __init__(self, model: FifModel, depth: int) -> None:
        if depth < 0:
            raise InputError("depth must be non-negative")
        p_count = model.data.intervals
        expected = (p_count + 1) * p_count**depth
        if expected > MAX_POINTS:
            raise InputError(
                f"depth {depth} would generate ~{expected} points, over the "
                f"budget of {MAX_POINTS}"
            )
        self.model = model
        self.depth = depth

    def __len__(self) -> int:
        # P^depth runs of P + 1 points, each without its seam twin, then node P
        return self.model.data.intervals ** (self.depth + 1) + 1

    def _step(self) -> int:
        """Runs per piece: whole runs, few enough to keep temporaries in cache."""
        return max(1, PIECE_POINTS // (self.model.data.intervals + 1))

    @functools.cached_property
    def _held(self) -> tuple[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The deepest raw level below ``depth`` that fits in one piece, the
        nodes at least: its number and its x, y and base(x) as one row of
        P + 1 points per run."""
        model = self.model
        branches = np.arange(model.data.intervals)[:, None]
        level, xs, ys = 0, model.data.x, model.data.y
        while level < self.depth - 1 and xs.size * len(branches) <= PIECE_POINTS:
            image = _branch_image(model, branches, xs, ys, model.base(xs), ends=True)
            level, xs, ys = level + 1, image[0].ravel(), image[1].ravel()
        run = len(branches) + 1
        return level, tuple(v.reshape(-1, run) for v in (xs, ys, model.base(xs)))

    @functools.cached_property
    def _margin(self) -> float:
        """How far an interval bound is widened: rounding, and a germ lookup
        landing on a neighbouring segment at a knot, move a computed point by
        far less than this."""
        model = self.model
        data, germ = model.data, model.germ
        s = model.alpha.max_abs
        _, base_lo, base_hi = model.base.span(data.x[[0, -1]])
        base_bound = max(float(base_hi[0]), -float(base_lo[0]))
        # |y| <= s |y| + max|germ| + s max|base| at every level, so no point of
        # the attractor, nor a computed one up to rounding, is further out
        y_bound = (np.abs(data.y).max() + s * base_bound) / (1.0 - s)
        x_bound = np.abs(model.a).max() * np.abs(data.x).max() + np.abs(model.b).max()
        scale = (
            s * (y_bound + base_bound)
            + np.abs(germ.slopes).max() * x_bound
            + np.abs(germ.intercepts).max()
        )
        return 1e-9 * scale + 1e-10

    def _image_box(
        self,
        p: int | np.ndarray,
        d_lo: np.ndarray,
        d_hi: np.ndarray,
        x_first: np.ndarray,
        x_last: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bounds on the y of branch-p images of points with y - base in
        [d_lo, d_hi] whose images' x lie between x_first and x_last: by
        interval arithmetic on alpha_p (y - base) + germ_p(l_p(x)), widened
        by the margin."""
        model = self.model
        alpha = model.alpha.as_array()[p]
        slope, intercept = model.germ.slopes[p], model.germ.intercepts[p]
        terms = alpha * d_lo, alpha * d_hi
        line = slope * x_first + intercept, slope * x_last + intercept
        return (
            np.minimum(*terms) + np.minimum(*line) - self._margin,
            np.maximum(*terms) + np.maximum(*line) + self._margin,
        )

    def _image_ranges(
        self, p: int | np.ndarray, x: np.ndarray, d_lo: np.ndarray, d_hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The base at ``x``, and bounds on y - base over the branch-p images
        of groups of points: ``x`` holds each group's image ends as (first,
        last) pairs along its last axis, and [d_lo, d_hi] bounds the group's
        y - base before the map."""
        y_lo, y_hi = self._image_box(p, d_lo, d_hi, x[..., 0::2], x[..., 1::2])
        base, base_lo, base_hi = self.model.base.span(x)
        return base, y_lo - base_hi - self._margin, y_hi - base_lo + self._margin

    @functools.cached_property
    def _top(self) -> tuple[int, _Runs, list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]]:
        """The deepest level below ``depth`` with at most ``PIECE_POINTS``
        runs, held whole: its number, its runs, and the boxes of the
        descent. Entry i of the last holds the groups of P^i consecutive
        runs of level max(i, top): that level, and each group's first and
        last x as a row and its bounds on y - base as columns."""
        model = self.model
        data = model.data
        p_count = data.intervals
        rest = data.y - model.base(data.x)
        x, y = data.x[[0, -1]], data.y[[0, -1]]
        base = model.base(x)
        d_lo, d_hi = rest.min(keepdims=True), rest.max(keepdims=True)
        level, branches = 0, np.arange(p_count)[:, None]
        while level < self.depth - 1 and d_lo.size * p_count <= PIECE_POINTS:
            x, y = _branch_image(model, branches, x, y, base, ends=True)
            base, d_lo, d_hi = self._image_ranges(branches, x, d_lo, d_hi)
            x, y, base, d_lo, d_hi = (v.ravel() for v in (x, y, base, d_lo, d_hi))
            level += 1
        ends, lo, hi = x.reshape(-1, 2), d_lo[:, None], d_hi[:, None]
        groups = [(level, ends, lo, hi)]
        for i in range(1, self.depth):
            if i <= level:
                ends = np.column_stack((ends[::p_count, 0], ends[p_count - 1 :: p_count, 1]))
                lo = lo.reshape(-1, p_count).min(axis=1, keepdims=True)
                hi = hi.reshape(-1, p_count).max(axis=1, keepdims=True)
            else:
                # level i is one group: the branch images of level i - 1
                ends = model.a[branches] * ends + model.b[branches]
                _, lo, hi = self._image_ranges(branches, ends, lo, hi)
                ends = np.array([[ends[0, 0], ends[-1, 1]]])
                lo, hi = lo.min(keepdims=True), hi.max(keepdims=True)
            groups.append((max(i, level), ends, lo, hi))
        return level, _Runs(0, x, y, base), groups

    def _levels(self, j: int) -> Iterator[_Runs]:
        """Level j's runs in x order, in chunks of the top level's size."""
        top, runs, _ = self._top
        if j == top:
            yield runs
            return
        model = self.model
        p_count = model.data.intervals
        for p in range(p_count):
            for parent in self._levels(j - 1):
                x, y = _branch_image(model, p, parent.x, parent.y, parent.base, ends=True)
                yield _Runs(p * p_count ** (j - 1) + parent.start, x, y, model.base(x))

    def _chunks(self) -> Iterator[tuple[_Runs, tuple[np.ndarray, ...] | None]]:
        """Level depth - 1 in x order, each chunk with the last point, and
        the base there, of the run before it (None for the first chunk)."""
        before = None
        for runs in self._levels(self.depth - 1):
            yield runs, before
            before = runs.x[-1:], runs.y[-1:], runs.base[-1:]

    def _firsts(
        self, runs: _Runs, p: int, before: tuple[np.ndarray, ...] | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The first point the stream keeps from the branch-p image of each
        run: node p for the block's first, else the seam twin that
        ``_drop_seam_twins`` keeps."""
        lx, ly = _branch_image(self.model, p, runs.x, runs.y, runs.base)
        kept_x, kept_y = _drop_seam_twins(lx.reshape(-1, 2), ly.reshape(-1, 2))
        if before is None:
            data = self.model.data
            kept_x[0, 0], kept_y[0, 0] = data.x[p], data.y[p]
        else:
            twin_x, twin_y = _branch_image(self.model, p, *before)
            if twin_x[0] <= kept_x[0, 0]:
                kept_x[0, 0], kept_y[0, 0] = twin_x[0], twin_y[0]
        return kept_x[:, 0], kept_y[:, 0]

    def _interiors(
        self, runs: np.ndarray, level: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Points 1..P-1 of the given runs of ``level``, at most a piece of
        them, and the base there, as grids of one run a row: the held
        level's interior points sent through the maps the runs' addresses
        add to it."""
        model = self.model
        p_count = model.data.intervals
        held_level, held = self._held
        x, y, base = (v[runs % p_count**held_level, 1:-1] for v in held)
        address = runs // p_count**held_level
        for _ in range(held_level, level):
            x, y = _branch_image(model, (address % p_count)[:, None], x, y, base)
            base = model.base(x)
            address //= p_count
        return x, y, base

    def _ends(self, runs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The first and last point of each given run of level depth - 1,
        and the base there, along a new last axis: the top level's sent
        through the maps the runs' addresses add to it."""
        model = self.model
        p_count = model.data.intervals
        top, held, _ = self._top
        x, y, base = (v.reshape(-1, 2)[runs % p_count**top] for v in held[1:])
        address = runs // p_count**top
        for _ in range(top, self.depth - 1):
            x, y = _branch_image(model, (address % p_count)[..., None], x, y, base, ends=True)
            base = model.base(x)
            address //= p_count
        return x, y, base

    def _kept_firsts(self, runs: np.ndarray, kept: np.ndarray) -> Iterator[np.ndarray]:
        """The y of the first point the stream keeps from the branch-p
        image of each given run r of level depth - 1, for each branch p
        that ``kept`` marks, a branch at a time; none for r = 0, whose
        block starts at a node. Each is the seam twin ``_drop_seam_twins``
        keeps from the images of runs r - 1 and r."""
        inner = runs > 0
        runs, kept = runs[inner], kept[inner]
        x, y, base = self._ends(runs[:, None] + np.arange(-1, 1))
        for p in np.flatnonzero(kept.any(axis=0)):
            rows = kept[:, p]
            image = _branch_image(self.model, p, x[rows], y[rows], base[rows])
            yield _drop_seam_twins(*image)[1][:, 1, 0]

    def _group_ends(
        self, i: int, groups: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The first and last x, as a row, and bounds on y - base, as
        columns, of each given group of P^i consecutive runs of level
        depth - 1: those of the group of level max(i, top) it comes from,
        sent through the maps its address adds to that level with
        ``_image_ranges``. The x-ends are exact, since the maps never
        decrease in x."""
        model = self.model
        p_count = model.data.intervals
        level, ends, d_lo, d_hi = self._top[2][i]
        address, group = np.divmod(groups, len(ends))
        x, d_lo, d_hi = ends[group], d_lo[group], d_hi[group]
        for _ in range(level, self.depth - 1):
            p = (address % p_count)[:, None]
            x = model.a[p] * x + model.b[p]
            _, d_lo, d_hi = self._image_ranges(p, x, d_lo, d_hi)
            address //= p_count
        return x, d_lo, d_hi

    def _judge(
        self,
        test: Callable[..., np.ndarray],
        kept: np.ndarray,
        x_first: np.ndarray,
        x_last: np.ndarray,
        d_lo: np.ndarray,
        d_hi: np.ndarray,
    ) -> np.ndarray:
        """``kept``, less the boxes ``test`` drops. Row r, column p of
        ``kept`` marks the box of the branch-p images of points whose x lie
        between x_first[r] and x_last[r] and whose y - base lies in
        [d_lo[r], d_hi[r]]; its x-ends are the images' own, computed as the
        stream's."""
        model = self.model
        rows, p = np.nonzero(kept)
        x_lo = model.a[p] * x_first[rows] + model.b[p]
        x_hi = model.a[p] * x_last[rows] + model.b[p]
        y_lo, y_hi = self._image_box(p, d_lo[rows], d_hi[rows], x_lo, x_hi)
        keep = test(x_lo, x_hi, y_lo, y_hi)
        judged = np.zeros_like(kept)
        judged[rows[keep], p[keep]] = True
        return judged

    def _descend(
        self, test: Callable[..., np.ndarray], i: int, groups: np.ndarray, kept: np.ndarray
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The runs of level depth - 1 in the given groups of P^i runs, with
        the branches (columns of ``kept``) under which their boxes, and
        those of every group between, ``test`` keeps, in x order. The
        groups split from kept ones are judged a piece of runs at a time,
        or P at a time when a piece holds fewer runs."""
        p_count = self.model.data.intervals
        x, d_lo, d_hi = self._group_ends(i, groups)
        kept = self._judge(test, kept, x[:, 0], x[:, 1], d_lo[:, 0], d_hi[:, 0])
        held = kept.any(axis=1)
        groups, kept = groups[held], kept[held]
        if not i:
            if groups.size:
                yield groups, kept
            return
        width = max(1, self._step() // p_count)
        for start in range(0, groups.size, width):
            children = (groups[start : start + width, None] * p_count + np.arange(p_count)).ravel()
            below = np.repeat(kept[start : start + width], p_count, axis=0)
            yield from self._descend(test, i - 1, children, below)

    def _kept(self, test: Callable[..., np.ndarray]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The runs of level depth - 1, in x order and sets of at most a
        piece (or P), each with the branches under which their boxes
        ``test`` keeps.

        ``test(x_lo, x_hi, y_lo, y_hi)`` judges boxes that hold every point
        of the branch-p image of a group of P^i consecutive runs, from the
        whole level down to single runs, each only if the group it splits
        was kept under that branch (``_group_ends``, ``_judge``).
        """
        every_branch = np.ones((1, self.model.data.intervals), dtype=bool)
        return self._descend(test, self.depth - 1, np.zeros(1, dtype=np.intp), every_branch)

    def _exact(
        self, runs: np.ndarray, kept: np.ndarray, test: Callable[..., np.ndarray]
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The interior points of the stream runs, the branch-p images of
        the given runs of level depth - 1 for the branches ``kept`` marks,
        whose exact boxes ``test`` keeps, as grids of one run a row, a piece
        at a time. A run's exact box holds its interior points: the range
        of y - base over their preimages, sent through its branch."""
        x, y, base = self._interiors(runs, self.depth - 1)
        rest = y - base
        keep = self._judge(test, kept, x[:, 0], x[:, -1], rest.min(axis=1), rest.max(axis=1))
        rows, branches = np.nonzero(keep)
        step = self._step()
        for start in range(0, rows.size, step):
            row, p = rows[start : start + step], branches[start : start + step, None]
            yield _branch_image(self.model, p, x[row], y[row], base[row])

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        data = self.model.data
        if self.depth == 0:
            yield data.x, data.y
            return
        step = self._step()
        inner = None
        for p in range(data.intervals):
            for runs, before in self._chunks():
                # the chunk's interior points and the base there, kept across
                # branches while level depth - 1 is one chunk
                if inner is None or inner[0] != runs.start:
                    rows = np.arange(runs.start, runs.start + runs.x.size // 2)
                    level = self.depth - 1
                    pieces = (rows[start : start + step] for start in range(0, rows.size, step))
                    inner = runs.start, [self._interiors(piece, level) for piece in pieces]
                kept_x, kept_y = self._firsts(runs, p, before)
                for start, piece in zip(range(0, kept_x.size, step), inner[1]):
                    x, y = _branch_image(self.model, p, *piece)
                    kept = slice(start, start + len(x))
                    yield np.column_stack((kept_x[kept], x)), np.column_stack((kept_y[kept], y))
        yield data.x[-1:], data.y[-1:]

    @functools.cached_property
    def bounds(self) -> tuple[float, float, float, float]:
        """(x_min, x_max, y_min, y_max) of the stream, bit for bit, without
        generating it or walking any level.

        The stream is sorted by x, so the x-bounds are nodes 0 and P. For y,
        the descent keeps a group of runs only while its box can reach past
        the extremes seen so far, stream points found included. A run's box
        holds its end points' images too, and a run's first kept point is
        its own first point's image or, as a seam twin a few ulps away, the
        last one of the run before: either lies in the run's box. So for
        each run the descent keeps, its first kept point is generated
        exactly, and its interior points if its exact box still can reach
        past the extremes.
        """
        data = self.model.data
        x_min, x_max = float(data.x[0]), float(data.x[-1])
        y_min, y_max = data.y.min(), data.y.max()
        if self.depth == 0:
            return x_min, x_max, float(y_min), float(y_max)
        # every run keeps interior points of its own, so the extremes are at
        # least as far out as every group's inner bound and every node
        y_floor, y_ceil = y_max, y_min

        def wanted(x_lo, x_hi, y_lo, y_hi):
            nonlocal y_floor, y_ceil
            y_floor = np.fmax(y_floor, np.fmax.reduce(y_lo))
            y_ceil = np.fmin(y_ceil, np.fmin.reduce(y_hi))
            return (y_hi >= y_floor) | (y_lo <= y_ceil) | ~(np.isfinite(y_lo) & np.isfinite(y_hi))

        for runs, kept in self._kept(wanted):
            interiors = (y for _, y in self._exact(runs, kept, wanted))
            for y in [*self._kept_firsts(runs, kept), *interiors]:
                y_min, y_max = np.min(y, initial=y_min), np.max(y, initial=y_max)
            # stream points found bound the extremes as well as any box
            y_floor, y_ceil = max(y_floor, y_max), min(y_ceil, y_min)
        return x_min, x_max, float(y_min), float(y_max)

    def occupancy(
        self, cells: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]], m: int
    ) -> np.ndarray:
        """The m x m bitmap, indexed [column, row], of the cells that hold a
        stream point, bit for bit, without generating every point.

        ``cells(x, y)`` gives each point's column and row, each
        non-decreasing in its coordinate. One walk of level depth - 1 first
        marks exactly the first point the stream keeps from every run. The
        other points of a group of runs lie in its box, so a group whose
        box sits in one column with every cell between its quantized ends
        marked can add nothing; the descent (``_kept``, then ``_exact``)
        then generates the interior points of the runs no such box holds,
        through the same branch maps as the stream, and marks them.
        """
        bitmap = np.zeros((m, m), dtype=bool)

        def mark(x: np.ndarray, y: np.ndarray) -> None:
            bitmap[cells(x, y)] = True

        data = self.model.data
        if self.depth == 0:
            mark(data.x, data.y)
            return bitmap
        mark(data.x[-1:], data.y[-1:])
        for runs, before in self._chunks():
            for p in range(data.intervals):
                mark(*self._firsts(runs, p, before))
        del runs, before  # the last chunk is not held through the descent
        # 1 + the highest empty cell at or below each cell of its column, 0 if none
        gap = np.where(bitmap, 0, np.arange(1, m + 1, dtype=np.min_scalar_type(m)))
        np.maximum.accumulate(gap, axis=1, out=gap)
        y_min, y_max = self.bounds[2:]

        def unknown(x_lo, x_hi, y_lo, y_hi):
            # a box end past the stream's y-range quantizes as that bound, and
            # one lost to overflow bounds nothing: the whole column
            col_lo, row_lo = cells(x_lo, np.minimum(np.fmax(y_lo, y_min), y_max))
            col_hi, row_hi = cells(x_hi, np.maximum(np.fmin(y_hi, y_max), y_min))
            return ~((col_lo == col_hi) & (gap[col_hi, row_hi] <= row_lo))

        for runs, kept in self._kept(unknown):
            for x, y in self._exact(runs, kept, unknown):
                mark(x, y)
        return bitmap


def generate_attractor_points(model: FifModel, depth: int) -> GraphSample:
    """Apply every IFS branch to the node set for ``depth`` rounds.

    Every produced point lies exactly on the attractor graph (up to
    floating-point arithmetic), because the nodes do and the maps send graph
    points to graph points. Output is sorted by x with coincident interval
    endpoints deduplicated; the P+1 data nodes are included exactly. The
    ``AttractorBlocks`` stream is copied into x and y arrays of its declared
    length as it comes, so no block is held past its copy.

    Raises
    ------
    ComputationError
        If the stream yields more or fewer points than it declares.
    """
    blocks = AttractorBlocks(model, depth)
    x, y = np.empty(len(blocks)), np.empty(len(blocks))
    filled = 0
    for block_x, block_y in blocks:
        end = filled + block_x.size
        if end <= len(x):
            x[filled:end] = block_x.ravel()
            y[filled:end] = block_y.ravel()
        filled = end
    if filled != len(x):
        raise ComputationError(
            f"the attractor stream yielded {filled} points, not the {len(x)} it declares"
        )
    return GraphSample(x=x, y=y, generation=depth, max_error_bound=0.0)


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
