"""Minimal self-contained SVG line plots for quick inspection of CSV output.

Not a plotting library: one axes box, one polyline per series, no text
shaping beyond labels.  Rendering for publication is out of process.
"""

from __future__ import annotations

import math

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_WIDTH, _HEIGHT = 640, 420
_TICKS = 5


def _ticks(lo: float, hi: float) -> list[float]:
    step = (hi - lo) / (_TICKS - 1)
    return [lo + step * i for i in range(_TICKS)]


def write_line_plot(path, x, series: dict[str, list[float]], title: str = "") -> None:
    """Write one 640x420 SVG with a linear-axis line per entry of ``series``
    against finite shared x; non-finite y values are left out of their line."""
    width, height, margin = _WIDTH, _HEIGHT, 56
    xs = [float(v) for v in x]
    curves = {name: [float(v) for v in ys] for name, ys in series.items()}
    finite = [v for ys in curves.values() for v in ys if math.isfinite(v)]
    if not xs or not finite:
        raise ValueError("nothing to plot")
    if not all(math.isfinite(v) for v in xs):
        raise ValueError("x values must be finite")
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(finite), max(finite)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def px(v):
        return margin + (v - x0) / (x1 - x0) * (width - 2 * margin)

    def py(v):
        return height - margin - (v - y0) / (y1 - y0) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}"'
        f' height="{height - 2 * margin}" fill="none" stroke="#444"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="{margin / 2:.1f}" text-anchor="middle"'
            f' font-family="monospace" font-size="14">{title}</text>'
        )
    for tick in _ticks(x0, x1):
        parts.append(
            f'<text x="{px(tick):.1f}" y="{height - margin / 3:.1f}" text-anchor="middle"'
            f' font-family="monospace" font-size="10">{tick:.4g}</text>'
        )
    for tick in _ticks(y0, y1):
        parts.append(
            f'<text x="{margin - 6:.1f}" y="{py(tick):.1f}" text-anchor="end"'
            f' font-family="monospace" font-size="10">{tick:.4g}</text>'
        )
    for idx, (name, ys) in enumerate(curves.items()):
        color = _COLORS[idx % len(_COLORS)]
        points = " ".join(
            f"{px(xv):.2f},{py(yv):.2f}" for xv, yv in zip(xs, ys) if math.isfinite(yv)
        )
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width - margin + 4:.1f}" y="{margin + 14 * (idx + 1):.1f}"'
            f' font-family="monospace" font-size="11" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
