"""Per-layer spans and counts, recorded from outside the program.

The tracer replaces fractalmark's public functions with timing wrappers
wherever a caller looks them up: as module attributes of ``report``,
``cli``, ``fif``, ``boxdim``, ``market_data`` and the other package modules.
Nothing under ``src/`` changes. Spans stay in memory; ``layer_metrics``
turns them into the per-layer numbers once the timed pass is over.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from types import ModuleType
from typing import Callable


def _arg(fn: Callable, args: tuple, kwargs: dict, name: str):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _count_generate(counts, fn, args, kwargs, result) -> None:
    # The generator maps the P+1 nodes through P branches, depth times.
    model = _arg(fn, args, kwargs, "model")
    depth = _arg(fn, args, kwargs, "depth")
    p = model.data.intervals
    counts["fif.points_generated"] += (p + 1) * p**depth
    counts["fif.points_kept"] += len(result)


def _count_fixed_point(counts, fn, args, kwargs, result) -> None:
    counts["fif.fixed_point_iters"] += result.generation


def _count_estimate(counts, fn, args, kwargs, result) -> None:
    counts["boxdim.cells_kmax"] += result.curve.levels[-1].count
    counts["boxdim.points_counted"] += len(_arg(fn, args, kwargs, "cloud"))


def _count_parse(counts, fn, args, kwargs, result) -> None:
    counts["market_data.rows"] += len(result.bars)


def _count_panel(counts, fn, args, kwargs, result) -> None:
    counts["event_study.securities"] += result[0].n_securities


def _count_write(counts, fn, args, kwargs, result) -> None:
    counts["csvio.rows_written"] += len(_arg(fn, args, kwargs, "x"))
    counts["csvio.bytes_written"] += os.path.getsize(_arg(fn, args, kwargs, "path"))


def _count_read(counts, fn, args, kwargs, result) -> None:
    counts["csvio.rows_read"] += len(result[0])


def _count_svg(counts, fn, args, kwargs, result) -> None:
    counts["svgplot.bytes"] += len(result.encode("utf-8"))


# (span name, public function name, counter run after the span closes)
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("fif.generate", "generate_attractor_points", _count_generate),
    ("fif.fixed_point", "evaluate_fif_fixed_point", _count_fixed_point),
    ("boxdim.normalize", "normalize_to_unit_square", None),
    ("boxdim.estimate", "estimate_dimension", _count_estimate),
    ("market_data.parse", "parse_price_csv", _count_parse),
    ("market_data.returns", "daily_returns", None),
    ("event_study.panel", "compute_abnormal_panel", _count_panel),
    ("event_study.capm", "estimate_capm", None),
    ("csvio.write", "write_xy_csv", _count_write),
    ("csvio.read", "read_xy_csv", _count_read),
    ("svgplot.render", "line_plot_svg", _count_svg),
    ("svgplot.render", "grouped_bar_svg", _count_svg),
    ("report", "run_report", None),
)

TIMED_SPANS = (
    "fif.generate", "fif.fixed_point", "boxdim.normalize", "boxdim.estimate",
    "market_data.parse", "market_data.returns", "event_study.panel",
    "event_study.capm", "csvio.write", "csvio.read", "svgplot.render",
)
SELF_SPANS = ("report", "cli")
COUNTS = (
    "fif.points_generated", "fif.fixed_point_iters", "boxdim.cells_kmax",
    "market_data.rows", "event_study.securities", "csvio.rows_written",
    "csvio.rows_read", "csvio.bytes_written", "svgplot.bytes",
)


class Tracer:
    """Spans (name, start, end, parent) and per-layer counts of one pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.untraced: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[ModuleType, str, Callable]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self.counts, fn, args, kwargs, result)
            return result

        return wrapper

    def install(self, modules: list[ModuleType]) -> None:
        """Wrap every binding of each target function in ``modules``."""
        for name, func_name, counter in TARGETS:
            wrappers: dict[int, Callable] = {}
            for module in modules:
                original = getattr(module, func_name, None)
                if not inspect.isfunction(original):
                    continue
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(name, original, counter)
                setattr(module, func_name, wrappers[id(original)])
                self._restore.append((module, func_name, original))
            if not wrappers:
                self.untraced.append(func_name)

    def uninstall(self) -> None:
        for module, func_name, original in reversed(self._restore):
            setattr(module, func_name, original)
        self._restore.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Inclusive time per layer, self time of ``report`` and ``cli``, counts."""
        inclusive: defaultdict[str, float] = defaultdict(float)
        child_time: defaultdict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            inclusive[name] += end - start
            if parent is not None:
                child_time[parent] += end - start
        self_time: defaultdict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child_time[index]

        out: dict[str, float] = {f"{name}_s": inclusive[name] for name in TIMED_SPANS}
        out.update({f"{name}.self_s": self_time[name] for name in SELF_SPANS})
        out.update({name: self.counts[name] for name in COUNTS})
        generated = self.counts["fif.points_generated"]
        counted = self.counts["boxdim.points_counted"]
        out["fif.kept_ratio"] = self.counts["fif.points_kept"] / generated if generated else 0.0
        out["boxdim.cells_per_point"] = (
            self.counts["boxdim.cells_kmax"] / counted if counted else 0.0
        )
        return out
