"""Tiny hand-rolled SVG line plots; enough for the benchmark reports.

Figures carry every plotted number in their sibling CSV files, so this
renderer only needs axes, ticks, polylines, and a legend.
"""

from __future__ import annotations

import math
from pathlib import Path

from .codec import write_atomic
from .errors import DomainError

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
]

_WIDTH, _HEIGHT = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 40, 55


class Series:
    def __init__(self, label: str, points: list[tuple[float, float]], dashed: bool = False):
        self.label = label
        self.points = points
        self.dashed = dashed


def _ticks_linear(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(round(t, 12))
        t += step
    return ticks


def _ticks_log(lo: float, hi: float, base: float) -> list[float]:
    lo_e = math.floor(math.log(lo, base) + 1e-9)
    hi_e = math.ceil(math.log(hi, base) - 1e-9)
    step = max(1, (hi_e - lo_e) // 6)
    return [base**e for e in range(lo_e, hi_e + 1, step)]


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e7:
        return str(int(v))
    return f"{v:.3g}"


# axis scale -> (coordinate transform, base of its log ticks; None for linear ticks)
_SCALES = {
    "linear": (lambda v: v, None),
    "log10": (math.log10, 10),
    "log2": (math.log2, 2),
}


def _axis_ticks(scale: str, lo: float, hi: float) -> list[tuple[float, str]]:
    """(position, label) of each tick in [lo, hi], in transformed coordinates."""
    base = _SCALES[scale][1]
    if base is None:
        ticks = _ticks_linear(lo, hi)
    else:  # log ticks are placed in data units, then transformed back
        ticks = [math.log(v, base) for v in _ticks_log(base**lo, base**hi, base)]
    return [(t, _fmt(t if base is None else base**t)) for t in ticks if lo <= t <= hi]


def line_plot(
    path: str | Path,
    series: list[Series],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    xscale: str = "linear",  # "linear" | "log10" | "log2"
    yscale: str = "linear",
) -> None:
    """Render all series into one SVG file."""
    pts = [p for s in series for p in s.points]
    if not pts:
        raise DomainError("nothing to plot")

    tx, ty = _SCALES[xscale][0], _SCALES[yscale][0]
    xs = [tx(x) for x, _ in pts]
    ys = [ty(y) for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_x = 0.03 * (x_hi - x_lo)
    pad_y = 0.05 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    plot_w = _WIDTH - _ML - _MR
    plot_h = _HEIGHT - _MT - _MB

    def px(v: float) -> float:
        return _ML + (tx(v) - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return _MT + (y_hi - ty(v)) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333"/>',
    ]
    if title:
        out.append(
            f'<text x="{_WIDTH / 2}" y="{_MT - 15}" text-anchor="middle" '
            f'font-size="14">{title}</text>'
        )

    for t, label in _axis_ticks(xscale, x_lo, x_hi):
        x = _ML + (t - x_lo) / (x_hi - x_lo) * plot_w
        out.append(f'<line x1="{x:.1f}" y1="{_MT + plot_h}" x2="{x:.1f}" '
                   f'y2="{_MT + plot_h + 5}" stroke="#333"/>')
        out.append(f'<text x="{x:.1f}" y="{_MT + plot_h + 18}" '
                   f'text-anchor="middle">{label}</text>')
    for t, label in _axis_ticks(yscale, y_lo, y_hi):
        y = _MT + (y_hi - t) / (y_hi - y_lo) * plot_h
        out.append(f'<line x1="{_ML - 5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" '
                   'stroke="#333"/>')
        out.append(f'<text x="{_ML - 8}" y="{y + 4:.1f}" text-anchor="end">{label}</text>')

    if xlabel:
        out.append(f'<text x="{_ML + plot_w / 2}" y="{_HEIGHT - 12}" '
                   f'text-anchor="middle">{xlabel}</text>')
    if ylabel:
        out.append(f'<text x="18" y="{_MT + plot_h / 2}" text-anchor="middle" '
                   f'transform="rotate(-90 18 {_MT + plot_h / 2})">{ylabel}</text>')

    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in s.points)
        dash = ' stroke-dasharray="6 4"' if s.dashed else ""
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"{dash}/>')
        ly = _MT + 14 + 16 * i
        out.append(f'<line x1="{_ML + plot_w - 150}" y1="{ly - 4}" '
                   f'x2="{_ML + plot_w - 125}" y2="{ly - 4}" stroke="{color}" '
                   f'stroke-width="1.5"{dash}/>')
        out.append(f'<text x="{_ML + plot_w - 120}" y="{ly}">{s.label}</text>')

    out.append("</svg>")
    write_atomic(path, "\n".join(out) + "\n")
