"""Minimal static SVG line plots: axes, ticks, legend, one polyline per series."""

from __future__ import annotations

import math

_COLORS = ("#1f6feb", "#d1242f", "#1a7f37", "#9a6700", "#8250df", "#bf3989")
_WIDTH, _HEIGHT = 640, 440
_MAX_TICKS = 6


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick values across [lo, hi]; ``line_plot`` passes hi > lo."""
    raw = (hi - lo) / (_MAX_TICKS - 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    step = 10 * magnitude
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if (hi - lo) / (mult * magnitude) <= _MAX_TICKS - 1 + 1e-9:
            step = mult * magnitude
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(value) < 1e-12 else value)
        value += step
    return ticks


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def line_plot(path, series, *, title: str, xlabel: str, ylabel: str) -> None:
    """Write a line plot; ``series`` is a list of (label, xs, ys) triples."""
    if not series:
        raise ValueError("nothing to plot")
    for label, xs, ys in series:
        if len(xs) != len(ys):
            raise ValueError(f"series {label!r}: {len(xs)} x values vs {len(ys)} y values")
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("series hold no points")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi <= x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi <= y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    y_pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    left, right, top, bottom = 64, 18, 34, 50
    plot_w = _WIDTH - left - right
    plot_h = _HEIGHT - top - bottom

    def px(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return top + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    axis = "#444444"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="{axis}"/>',
    ]
    for tick in _nice_ticks(x_lo, x_hi):
        if not x_lo <= tick <= x_hi:
            continue
        x = px(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{top + plot_h}" x2="{x:.1f}" '
            f'y2="{top + plot_h + 5}" stroke="{axis}"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{top + plot_h + 18}" '
            f'text-anchor="middle">{_fmt(tick)}</text>'
        )
    for tick in _nice_ticks(y_lo, y_hi):
        if not y_lo <= tick <= y_hi:
            continue
        y = py(tick)
        parts.append(
            f'<line x1="{left - 5}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" stroke="{axis}"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end">{_fmt(tick)}</text>'
        )
    parts += [
        f'<text x="{left + plot_w / 2:.1f}" y="{_HEIGHT - 10}" '
        f'text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.1f})">{ylabel}</text>',
    ]
    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        points = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3" fill="{color}"/>')
        legend_y = top + 14 + 16 * i
        parts.append(
            f'<line x1="{left + plot_w - 110}" y1="{legend_y - 4}" '
            f'x2="{left + plot_w - 90}" y2="{legend_y - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{left + plot_w - 84}" y="{legend_y}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
