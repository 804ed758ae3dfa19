"""Box-counting dimension of planar point clouds.

Algorithm:
    - rescale each axis independently onto the unit square
    - for each level k, partition the square into 2^k x 2^k half-open cells
      and count the cells holding at least one point
    - regress log2(count) on k; the slope estimates the box dimension

Every cloud is a ``StreamedCloud`` over one of two sources of (x, y)
blocks, each of which reports its point count and bounds up front, so the
rescale needs no first pass: ``HeldBlocks`` for an array pair in memory,
read in views of at most ``fif.PIECE_POINTS`` points, and
``fif.AttractorBlocks`` for attractor samples too large to hold. One
quantizer, ``StreamedCloud.cells``, rescales points by the cloud's bounds
and gives their cells, and each source marks its own dense bitmap with it.
``HeldBlocks`` scatters its points a piece at a time. ``fif.AttractorBlocks``
marks the first point kept from every run in one walk of the level above
its points, then descends its IFS address tree from its held top level:
it bounds groups of runs by interval arithmetic, and generates only the
runs that could add a cell. The same descent, with no walk, gives its
bounds. Since the quantizer never decreases in either coordinate, the
bitmap is the point-by-point one, bit for bit. Levels too
fine for a dense bitmap quantize one block at a time into sorted cell keys.
A y-range within ``DEGENERATE_Y_ULPS`` ulps of max|y| is taken as constant
y.

Levels where the sample is too sparse to fill its cells (more occupied
boxes than points / min_points_per_box) are excluded from the regression,
since a finite sample of a curve under-covers at fine scales.

``affine_fif_dimension_oracle`` gives the closed-form dimension of a
uniform-partition affine-base fractal interpolant, used to validate the
counting estimator.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import fif
from .errors import ComputationError, InputError
from .fif import ScalingVector

DEFAULT_K_MIN = 2
DEFAULT_K_MAX = 8
DEFAULT_MIN_POINTS_PER_BOX = 25
MAX_LEVEL = 30
# occupancy is a dense bitmap up to max(points, DENSE_CELLS) cells (1 MB)
DENSE_CELLS = 1 << 20
# y-ranges within this many ulps of max|y| are rounding noise: constant y
DEGENERATE_Y_ULPS = 32


class HeldBlocks:
    """An (x, y) array pair held in memory, with its point count and bounds.

    ``bounds`` may declare the frame instead, such as the unit square for
    coordinates normalized already; every point must then be finite and
    inside it. Iteration yields the pair as views of at most
    ``fif.PIECE_POINTS`` points, so a count's temporaries (the normalized
    copies and the cell indices) stay the size of one piece, not of the
    pair.
    """

    def __init__(
        self, x: np.ndarray, y: np.ndarray, bounds: tuple[float, float, float, float] | None = None
    ) -> None:
        self._x, self._y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if self._x.shape != self._y.shape or self._x.ndim != 1:
            raise InputError("cloud must hold matching 1-D x and y arrays")
        if self._x.size < 2:
            raise InputError("cloud must retain at least 2 points")
        # numpy's min/max propagate nan, so a non-finite point shows in the bounds
        data = tuple(float(f(v)) for v in (self._x, self._y) for f in (np.min, np.max))
        if not all(math.isfinite(b) for b in data):
            raise InputError("cloud coordinates must be finite")
        if bounds is not None:
            x_min, x_max, y_min, y_max = bounds
            if data[0] < x_min or data[1] > x_max or data[2] < y_min or data[3] > y_max:
                raise InputError(f"cloud coordinates must lie within the declared bounds {bounds}")
        self.bounds = data if bounds is None else bounds

    def __len__(self) -> int:
        return self._x.size

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        piece = fif.PIECE_POINTS
        for start in range(0, self._x.size, piece):
            yield self._x[start : start + piece], self._y[start : start + piece]

    def occupancy(
        self, cells: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]], m: int
    ) -> np.ndarray:
        """The m x m bitmap, indexed [column, row], of the cells that
        ``cells(x, y)`` gives the points, scattered a piece at a time."""
        bitmap = np.zeros((m, m), dtype=bool)
        for x, y in self:
            bitmap[cells(x, y)] = True
        return bitmap


class StreamedCloud:
    """A cloud read block by block, each block rescaled onto the unit square
    by the bounds of the whole cloud.

    The point count and the bounds come from ``len(blocks)`` and
    ``blocks.bounds``; every box count reads the blocks, so a streamed
    source stays at one block in memory. A dense count asks the source
    for its bitmap: ``HeldBlocks`` scatters its points, and
    ``fif.AttractorBlocks`` marks boxes on its runs.
    """

    def __init__(self, blocks: HeldBlocks | fif.AttractorBlocks) -> None:
        self._blocks = blocks
        self.original_bounds = tuple(float(v) for v in blocks.bounds)
        self.degenerate_y = _is_y_degenerate(self.original_bounds)

    def __len__(self) -> int:
        return len(self._blocks)

    def _normalize(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x_min, x_max, y_min, y_max = self.original_bounds
        xn = _to_unit(x, x_min, x_max)
        return xn, np.full_like(xn, 0.5) if self.degenerate_y else _to_unit(y, y_min, y_max)

    def cells(self, x: np.ndarray, y: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The column and row of each point's cell on the m x m grid over
        the cloud's bounds; each is non-decreasing in its coordinate."""
        xn, yn = self._normalize(x, y)
        return _cell_index(xn, m), _cell_index(yn, m)

    def occupancy(self, m: int) -> np.ndarray:
        """The m x m bitmap, indexed [column, row], of the occupied cells,
        as the source marks it."""
        return self._blocks.occupancy(functools.partial(self.cells, m=m), m)


class BoxCountLevel(NamedTuple):
    k: int
    epsilon: float
    count: int


@dataclass(frozen=True)
class BoxCountCurve:
    """Occupied-cell counts per dyadic level, finest last."""

    levels: tuple[BoxCountLevel, ...]

    def __post_init__(self) -> None:
        for prev, cur in zip(self.levels, self.levels[1:]):
            if cur.k != prev.k + 1:
                continue
            if cur.count < prev.count:
                raise InputError("box counts must be non-decreasing as cells shrink")
            if cur.count > 4 * prev.count:
                raise InputError("a cell splits into 4: count(k+1) <= 4 count(k)")


@dataclass(frozen=True, eq=False)
class DimensionEstimate:
    """Regression slope over the usable levels, with fit quality and exclusions.

    Values outside [0, 2] (impossible for planar sets) or outside [1, 2]
    (expected for curve graphs) are flagged in ``warnings``, never clamped.
    """

    dimension: float
    r_squared: float
    levels_used: tuple[int, int]
    curve: BoxCountCurve
    excluded_levels: tuple[int, ...] = ()
    warnings: tuple[str, ...] = ()


def _is_y_degenerate(bounds: tuple[float, float, float, float]) -> bool:
    """Refuse bounds that cannot be normalized; True for a constant-y cloud,
    one whose y-range is at most ``DEGENERATE_Y_ULPS`` ulps of max|y|."""
    if not all(math.isfinite(b) for b in bounds):
        raise InputError("cloud coordinates must be finite")
    x_min, x_max, y_min, y_max = bounds
    if x_min == x_max and y_min == y_max:
        raise ComputationError("all points are identical: nothing to normalize")
    if x_min == x_max:
        raise ComputationError("degenerate x-range: cloud is a vertical segment")
    return y_max - y_min <= DEGENERATE_Y_ULPS * math.ulp(max(abs(y_min), abs(y_max)))


def _to_unit(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """clip((v - lo) / (hi - lo), 0, 1), computed in place."""
    out = v - lo
    out /= hi - lo
    return np.clip(out, 0.0, 1.0, out=out)


def normalize_to_unit_square(x: np.ndarray, y: np.ndarray) -> StreamedCloud:
    """The two arrays as a one-pair cloud, rescaled per axis onto
    [0, 1] x [0, 1] whenever a count reads it.

    A constant-y input maps to y = 0.5 everywhere and is flagged; constant
    x (or a single repeated point) cannot be normalized.
    """
    return StreamedCloud(HeldBlocks(x, y))


def _cell_index(v: np.ndarray, m: int) -> np.ndarray:
    """Half-open cell index of unit coordinates on an m-cell axis (1.0 goes to the last)."""
    index = (v * m).astype(np.int64)
    return np.minimum(index, m - 1, out=index)


def _level_counts(cloud: StreamedCloud, k_min: int, k_max: int) -> dict[int, int]:
    """Occupied cells per level from one quantization at ``k_max``.

    Coarser levels merge each 2x2 block of cells. Occupancy is the dense
    2^k x 2^k bitmap of ``StreamedCloud.occupancy`` while that has no more
    cells than max(points, DENSE_CELLS), and sorted unique cell keys
    xi * 2^k + yi above that.
    """
    m = 1 << k_max
    counts = {}
    if 4**k_max <= max(len(cloud), DENSE_CELLS):
        bitmap = cloud.occupancy(m)
        for k in range(k_max, k_min - 1, -1):
            counts[k] = int(np.count_nonzero(bitmap))
            if k > k_min:
                half = 1 << (k - 1)
                bitmap = bitmap.reshape(half, 2, half, 2).any(axis=(1, 3))
        return counts
    keys = []
    for x, y in cloud._blocks:
        cell, row = cloud.cells(x, y, m)
        cell *= m
        cell += row
        keys.append(np.unique(cell))
    cells = np.unique(np.concatenate(keys))
    for k in range(k_max, k_min - 1, -1):
        counts[k] = int(cells.size)
        if k > k_min:
            xi, yi = cells >> k, cells & ((1 << k) - 1)
            cells = np.unique(((xi >> 1) << (k - 1)) + (yi >> 1))
    return counts


def count_boxes(cloud: StreamedCloud, k: int) -> int:
    """Number of occupied cells in the 2^k x 2^k half-open grid."""
    if not 0 <= k <= MAX_LEVEL:
        raise InputError(f"level k must be in [0, {MAX_LEVEL}], got {k}")
    return _level_counts(cloud, k, k)[k]


def check_levels(k_min: int, k_max: int, min_points_per_box: int) -> None:
    """Refuse a level range or sparsity guard ``estimate_dimension`` cannot use."""
    if k_min >= k_max:
        raise InputError(f"k_min must be below k_max, got [{k_min}, {k_max}]")
    if not (0 <= k_min and k_max <= MAX_LEVEL):
        raise InputError(f"levels must lie in [0, {MAX_LEVEL}]")
    if min_points_per_box < 1:
        raise InputError("min_points_per_box must be >= 1")


def estimate_dimension(
    cloud: StreamedCloud,
    k_min: int = DEFAULT_K_MIN,
    k_max: int = DEFAULT_K_MAX,
    min_points_per_box: int = DEFAULT_MIN_POINTS_PER_BOX,
) -> DimensionEstimate:
    """OLS of log2(occupied cells) against the level k over [k_min, k_max].

    ``k_max`` is lowered automatically (and reported in ``warnings``) when
    the cloud holds fewer than ``min_points_per_box * 4^k_max`` points.
    Sparsity-saturated levels are excluded from the regression but kept in
    the returned curve.

    Raises
    ------
    ComputationError
        If fewer than 3 usable levels remain after exclusions.
    """
    check_levels(k_min, k_max, min_points_per_box)
    warnings: list[str] = []
    n = len(cloud)
    requested_k_max = k_max
    # keep at least 3 candidate levels; the per-level saturation exclusion
    # below handles whatever sparsity remains
    while k_max > k_min + 2 and n < min_points_per_box * 4**k_max:
        k_max -= 1
    if k_max != requested_k_max:
        warnings.append(
            f"k_max lowered from {requested_k_max} to {k_max}: "
            f"{n} points < {min_points_per_box} * 4^{requested_k_max}"
        )

    counts = _level_counts(cloud, k_min, k_max)
    levels = tuple(
        BoxCountLevel(k, 2.0 ** (-k), counts[k]) for k in range(k_min, k_max + 1)
    )
    curve = BoxCountCurve(levels)

    saturation = n / min_points_per_box
    excluded = tuple(lv.k for lv in levels if lv.count > saturation)
    usable = [lv for lv in levels if lv.count <= saturation]
    if excluded:
        warnings.append(
            f"levels {list(excluded)} excluded: more boxes than points/{min_points_per_box}"
        )
    if len(usable) < 3:
        raise ComputationError(
            f"only {len(usable)} usable levels after exclusions; need at least 3"
        )

    ks = np.array([lv.k for lv in usable], dtype=float)
    logs = np.log2([lv.count for lv in usable])
    k_mean = ks.mean()
    slope = float(np.sum((ks - k_mean) * (logs - logs.mean())) / np.sum((ks - k_mean) ** 2))
    intercept = logs.mean() - slope * k_mean
    residuals = logs - (slope * ks + intercept)
    total = np.sum((logs - logs.mean()) ** 2)
    r_squared = float(1.0 - np.sum(residuals**2) / total) if total > 0.0 else 1.0

    if not 0.0 <= slope <= 2.0:
        warnings.append(f"dimension {slope:.4f} outside the planar range [0, 2]")
    if cloud.degenerate_y:
        warnings.append("cloud had a degenerate y-range (flattened to y = 0.5)")

    return DimensionEstimate(
        dimension=slope,
        r_squared=r_squared,
        levels_used=(int(ks[0]), int(ks[-1])),
        curve=curve,
        excluded_levels=excluded,
        warnings=tuple(warnings),
    )


def affine_fif_dimension_oracle(
    alpha: ScalingVector, intervals: int, collinear: bool = False
) -> float:
    """Closed-form box dimension of a uniform-partition affine-base fractal
    interpolant: 1 + log(sum |alpha_p|) / log(P) when the scaling is
    supercritical (sum > 1) and the data are not collinear, else 1."""
    if len(alpha) != intervals:
        raise InputError(f"need {intervals} scaling entries, got {len(alpha)}")
    total = alpha.sum_abs
    if collinear or total <= 1.0:
        return 1.0
    return 1.0 + math.log(total) / math.log(intervals)


def loglog_csv(estimate: DimensionEstimate) -> str:
    """The ``k,epsilon,log2_count`` table of every counted level."""
    lines = ["k,epsilon,log2_count"] + [
        f"{lv.k},{lv.epsilon!r},{float(np.log2(lv.count))!r}" for lv in estimate.curve.levels
    ]
    return "\n".join(lines) + "\n"


def report_json(payload: dict) -> str:
    """A :func:`report_dict` payload as written to disk: sorted keys, indent 2."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def report_dict(estimate: DimensionEstimate, normalized: bool = True) -> dict:
    """JSON-ready report: dimension, fit quality, per-level counts, exclusions."""
    return {
        "dimension": estimate.dimension,
        "r_squared": estimate.r_squared,
        "levels_used": list(estimate.levels_used),
        "levels": [
            {"k": lv.k, "epsilon": lv.epsilon, "count": lv.count}
            for lv in estimate.curve.levels
        ],
        "excluded_levels": list(estimate.excluded_levels),
        "normalized": normalized,
        "warnings": list(estimate.warnings),
    }
