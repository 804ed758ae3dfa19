"""Minimal deterministic SVG plots: polylines and grouped bar charts.

Output contains no timestamps, ids or environment-dependent content, so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

WIDTH = 840
HEIGHT = 520
MARGIN_LEFT = 78
MARGIN_RIGHT = 24
MARGIN_TOP = 46
MARGIN_BOTTOM = 58

_AXIS_STYLE = 'stroke="#333333" stroke-width="1"'
_GRID_STYLE = 'stroke="#dddddd" stroke-width="1"'
_FONT = 'font-family="Helvetica, Arial, sans-serif"'
BAR_COLORS = ("#34558b", "#7fa9d4", "#b5542d", "#e5a57c")
# polyline points formatted per chunk
POLYLINE_CHUNK = 512


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _tick_values(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _tick_label(value: float) -> str:
    return f"{value:.4g}"


_X_AXIS = (
    f'<line x1="{MARGIN_LEFT}" y1="{HEIGHT - MARGIN_BOTTOM}" '
    f'x2="{WIDTH - MARGIN_RIGHT}" y2="{HEIGHT - MARGIN_BOTTOM}" {_AXIS_STYLE}/>'
)


def _y_ticks(lo: float, hi: float, py: Callable[[float], float]) -> list[str]:
    """A grid line and a label at each y tick from ``lo`` to ``hi``; ``py`` maps y to pixels."""
    parts = []
    for tv in _tick_values(lo, hi):
        ty = py(tv)
        parts.append(
            f'<line x1="{MARGIN_LEFT}" y1="{_fmt(ty)}" x2="{WIDTH - MARGIN_RIGHT}" '
            f'y2="{_fmt(ty)}" {_GRID_STYLE}/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(ty + 4)}" text-anchor="end" '
            f'{_FONT} font-size="12">{_tick_label(tv)}</text>'
        )
    return parts


def _frame(title: str, ylabel: str, body: list[str]) -> str:
    """The document: white canvas, centred title, ``body``, rotated y-label."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH / 2:.0f}" y="26" text-anchor="middle" {_FONT} '
        f'font-size="16">{_escape(title)}</text>',
        *body,
        f'<text x="20" y="{HEIGHT / 2:.0f}" text-anchor="middle" {_FONT} font-size="13" '
        f'transform="rotate(-90 20 {HEIGHT / 2:.0f})">{_escape(ylabel)}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def line_plot_svg(
    x: np.ndarray,
    y: np.ndarray,
    title: str,
    xlabel: str = "x",
    ylabel: str = "value",
) -> str:
    """Polyline plot of (x, y) with axes, ticks and labels."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(y.min()), float(y.max())
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(v: float | np.ndarray) -> float | np.ndarray:
        return MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float | np.ndarray) -> float | np.ndarray:
        return MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts: list[str] = []
    for tv in _tick_values(x_lo, x_hi):
        tx = px(tv)
        parts.append(
            f'<line x1="{_fmt(tx)}" y1="{MARGIN_TOP}" x2="{_fmt(tx)}" '
            f'y2="{HEIGHT - MARGIN_BOTTOM}" {_GRID_STYLE}/>'
        )
        parts.append(
            f'<text x="{_fmt(tx)}" y="{HEIGHT - MARGIN_BOTTOM + 20}" text-anchor="middle" '
            f'{_FONT} font-size="12">{_tick_label(tv)}</text>'
        )
    parts += _y_ticks(y_lo, y_hi, py)
    parts.append(_X_AXIS)
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{HEIGHT - MARGIN_BOTTOM}" {_AXIS_STYLE}/>'
    )
    # formatted from Python floats, a chunk at a time to bound the transient lists
    plot_x, plot_y = px(x), py(y)
    coords = " ".join(
        " ".join(
            map(
                "{:.2f},{:.2f}".format,
                plot_x[i : i + POLYLINE_CHUNK].tolist(),
                plot_y[i : i + POLYLINE_CHUNK].tolist(),
            )
        )
        for i in range(0, min(len(plot_x), len(plot_y)), POLYLINE_CHUNK)
    )
    parts.append(
        f'<polyline points="{coords}" fill="none" stroke="#34558b" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{WIDTH / 2:.0f}" y="{HEIGHT - 12}" text-anchor="middle" {_FONT} '
        f'font-size="13">{_escape(xlabel)}</text>'
    )
    return _frame(title, ylabel, parts)


def grouped_bar_svg(
    groups: Sequence[str],
    series: Sequence[tuple[str, Sequence[float]]],
    title: str,
    ylabel: str = "box dimension",
    y_max: float | None = None,
) -> str:
    """Grouped bar chart: one cluster per group, one bar per series entry."""
    n_groups = len(groups)
    n_series = len(series)
    values = [v for _, vals in series for v in vals]
    top = y_max if y_max is not None else max(values) * 1.15
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    group_w = plot_w / n_groups
    bar_w = group_w * 0.8 / n_series

    def py(v: float) -> float:
        return MARGIN_TOP + (top - v) / top * plot_h

    parts = _y_ticks(0.0, top, py)
    for g, group in enumerate(groups):
        x0 = MARGIN_LEFT + g * group_w + group_w * 0.1
        for s, (label, vals) in enumerate(series):
            v = vals[g]
            bx = x0 + s * bar_w
            by = py(v)
            parts.append(
                f'<rect x="{_fmt(bx)}" y="{_fmt(by)}" width="{_fmt(bar_w * 0.92)}" '
                f'height="{_fmt(HEIGHT - MARGIN_BOTTOM - by)}" '
                f'fill="{BAR_COLORS[s % len(BAR_COLORS)]}"/>'
            )
            parts.append(
                f'<text x="{_fmt(bx + bar_w * 0.46)}" y="{_fmt(by - 4)}" '
                f'text-anchor="middle" {_FONT} font-size="9">{v:.3f}</text>'
            )
        parts.append(
            f'<text x="{_fmt(MARGIN_LEFT + (g + 0.5) * group_w)}" '
            f'y="{HEIGHT - MARGIN_BOTTOM + 20}" text-anchor="middle" {_FONT} '
            f'font-size="12">{_escape(group)}</text>'
        )
    parts.append(_X_AXIS)
    legend_x = MARGIN_LEFT + 10
    for s, (label, _) in enumerate(series):
        ly = MARGIN_TOP + 8 + s * 18
        parts.append(
            f'<rect x="{legend_x}" y="{ly}" width="12" height="12" '
            f'fill="{BAR_COLORS[s % len(BAR_COLORS)]}"/>'
        )
        parts.append(
            f'<text x="{legend_x + 18}" y="{ly + 10}" {_FONT} '
            f'font-size="12">{_escape(label)}</text>'
        )
    return _frame(title, ylabel, parts)


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
