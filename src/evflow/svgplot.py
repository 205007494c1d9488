"""Minimal deterministic SVG rendering: line charts, histograms, quivers.

Byte-for-byte reproducible given identical inputs: coordinates are
formatted with fixed precision and no timestamps or generator metadata are
embedded.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

WIDTH = 720
HEIGHT = 360
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 58, 14, 30, 40


def _f(v: float) -> str:
    return f"{v:.2f}"


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    """Round multiples ``k * step`` across [lo, hi], about ``n`` steps apart;
    ``[lo]`` when no step of at least one ulp resolves the span."""
    raw = (hi - lo) / n
    if not (math.isfinite(lo) and math.isfinite(raw) and raw >= sys.float_info.min):
        return [lo]
    exponent = math.floor(math.log10(raw))
    mag = 10.0 ** exponent
    step = next(mult * mag for mult in (1, 2, 2.5, 5, 10) if raw <= mult * mag)
    # rounded at the step's last decimal place: one below mag's, for 2.5 * mag
    ticks = [round(k * step, 1 - exponent)
             for k in range(math.ceil(lo / step), math.floor(hi / step + 1e-9) + 1)]
    # a step below the ulp of lo and hi makes neighbouring multiples equal
    if len(set(ticks)) < len(ticks):
        return [lo]
    return ticks


@dataclass
class Axes:
    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def sx(self, x: float) -> float:
        span = self.x_hi - self.x_lo or 1.0
        return MARGIN_L + (x - self.x_lo) / span * (WIDTH - MARGIN_L - MARGIN_R)

    def sy(self, y: float) -> float:
        span = self.y_hi - self.y_lo or 1.0
        return HEIGHT - MARGIN_B - (y - self.y_lo) / span * (HEIGHT - MARGIN_T - MARGIN_B)


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="18" font-family="sans-serif" font-size="13" '
        f'text-anchor="middle">{title}</text>',
    ]


def _axes_svg(ax: Axes, x_label: str, y_label: str) -> list[str]:
    parts = [
        f'<rect x="{_f(MARGIN_L)}" y="{_f(MARGIN_T)}" width="{_f(WIDTH - MARGIN_L - MARGIN_R)}" '
        f'height="{_f(HEIGHT - MARGIN_T - MARGIN_B)}" fill="none" stroke="#777" stroke-width="1"/>'
    ]
    for t in _nice_ticks(ax.x_lo, ax.x_hi):
        x = ax.sx(t)
        parts.append(f'<line x1="{_f(x)}" y1="{_f(HEIGHT - MARGIN_B)}" x2="{_f(x)}" '
                     f'y2="{_f(HEIGHT - MARGIN_B + 4)}" stroke="#777"/>')
        parts.append(f'<text x="{_f(x)}" y="{HEIGHT - MARGIN_B + 16}" font-family="sans-serif" '
                     f'font-size="10" text-anchor="middle">{t:g}</text>')
    for t in _nice_ticks(ax.y_lo, ax.y_hi):
        y = ax.sy(t)
        parts.append(f'<line x1="{_f(MARGIN_L - 4)}" y1="{_f(y)}" x2="{_f(MARGIN_L)}" '
                     f'y2="{_f(y)}" stroke="#777"/>')
        parts.append(f'<text x="{MARGIN_L - 7}" y="{_f(y + 3)}" font-family="sans-serif" '
                     f'font-size="10" text-anchor="end">{t:g}</text>')
    parts.append(f'<text x="{WIDTH // 2}" y="{HEIGHT - 8}" font-family="sans-serif" '
                 f'font-size="11" text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="14" y="{HEIGHT // 2}" font-family="sans-serif" font-size="11" '
                 f'text-anchor="middle" transform="rotate(-90 14 {HEIGHT // 2})">{y_label}</text>')
    return parts


def _polyline(ax: Axes, xs, ys, color: str, width: float = 1.3) -> str:
    pts = " ".join(f"{_f(ax.sx(x))},{_f(ax.sy(y))}" for x, y in zip(xs, ys))
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"/>'


def _legend(entries: list[tuple[str, str]]) -> list[str]:
    parts = []
    x = MARGIN_L + 8
    for label, color in entries:
        parts.append(f'<line x1="{x}" y1="{MARGIN_T + 10}" x2="{x + 18}" y2="{MARGIN_T + 10}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{x + 22}" y="{MARGIN_T + 14}" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')
        x += 30 + 7 * len(label)
    return parts


def _data_range(series, pad_frac: float = 0.05) -> tuple[float, float]:
    vals = np.concatenate([np.asarray(v, dtype=np.float64) for v in series if len(v)])
    lo, hi = float(vals.min()), float(vals.max())
    if hi == lo:
        lo -= 0.5
        hi += 0.5
    pad = (hi - lo) * pad_frac
    return lo - pad, hi + pad


def line_chart(title: str, x_label: str, y_label: str,
               series: list[tuple[str, str, np.ndarray, np.ndarray]],
               annotation: str = "") -> str:
    """Overlayed line series; each entry is (label, color, x, y).

    Points with a non-finite coordinate (a speed-0 exposure ceiling is
    ``inf``) are left out of the axis ranges and the lines.
    """
    drawn = []
    for lab, col, x, y in series:
        x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
        finite = np.isfinite(x) & np.isfinite(y)
        if finite.any():
            drawn.append((lab, col, x[finite], y[finite]))
    if drawn:
        x_lo, x_hi = _data_range([x for _, _, x, _ in drawn], 0.0)
        y_lo, y_hi = _data_range([y for _, _, _, y in drawn])
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    ax = Axes(x_lo, x_hi, y_lo, y_hi)
    parts = _header(title)
    parts += _axes_svg(ax, x_label, y_label)
    for label, color, xs, ys in drawn:
        parts.append(_polyline(ax, xs, ys, color))
    parts += _legend([(lab, col) for lab, col, _, _ in drawn])
    if annotation:
        parts.append(f'<text x="{WIDTH // 2}" y="{HEIGHT // 2}" font-family="sans-serif" '
                     f'font-size="13" fill="#b03030" text-anchor="middle">{annotation}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def histogram(title: str, x_label: str, values: np.ndarray, bins: int = 30,
              color: str = "#2c7fb8", annotation: str = "") -> str:
    values = np.asarray(values, dtype=np.float64)
    parts = _header(title)
    if values.size:
        lo, hi = float(values.min()), float(values.max())
        if hi - lo <= 1e-9 * max(1.0, abs(lo)):
            pad = max(0.5, abs(lo) * 0.01)
            lo, hi = lo - pad, hi + pad
        counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
        ax = Axes(float(edges[0]), float(edges[-1]), 0.0, float(counts.max()) * 1.05 or 1.0)
        parts += _axes_svg(ax, x_label, "count")
        for c, e0, e1 in zip(counts, edges[:-1], edges[1:]):
            if c == 0:
                continue
            x0, x1 = ax.sx(float(e0)), ax.sx(float(e1))
            y0, y1 = ax.sy(0.0), ax.sy(float(c))
            parts.append(f'<rect x="{_f(x0)}" y="{_f(y1)}" width="{_f(x1 - x0)}" '
                         f'height="{_f(y0 - y1)}" fill="{color}" stroke="none"/>')
    else:
        ax = Axes(0.0, 1.0, 0.0, 1.0)
        parts += _axes_svg(ax, x_label, "count")
        annotation = annotation or "no data"
    if annotation:
        parts.append(f'<text x="{WIDTH // 2}" y="{HEIGHT // 2}" font-family="sans-serif" '
                     f'font-size="13" fill="#b03030" text-anchor="middle">{annotation}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def quiver(title: str, width_px: int, height_px: int,
           p: np.ndarray, q: np.ndarray, arrow_scale: float = 1.0) -> str:
    """Flow arrows over the pixel frame, y axis pointing down as in images."""
    scale = min((WIDTH - MARGIN_L - MARGIN_R) / max(width_px, 1),
                (HEIGHT - MARGIN_T - MARGIN_B) / max(height_px, 1))
    ox, oy = MARGIN_L, MARGIN_T
    parts = _header(title)
    parts.append(f'<rect x="{ox}" y="{oy}" width="{_f(width_px * scale)}" '
                 f'height="{_f(height_px * scale)}" fill="#f4f4f4" stroke="#777"/>')
    for (px, py), (qx, qy) in zip(np.asarray(p), np.asarray(q)):
        x0 = ox + px * scale
        y0 = oy + py * scale
        x1 = ox + (px + (qx - px) * arrow_scale) * scale
        y1 = oy + (py + (qy - py) * arrow_scale) * scale
        parts.append(f'<line x1="{_f(x0)}" y1="{_f(y0)}" x2="{_f(x1)}" y2="{_f(y1)}" '
                     f'stroke="#d95f02" stroke-width="1"/>')
        ang = math.atan2(y1 - y0, x1 - x0)
        for rot in (ang + 2.6, ang - 2.6):
            parts.append(f'<line x1="{_f(x1)}" y1="{_f(y1)}" '
                         f'x2="{_f(x1 + 3 * math.cos(rot))}" y2="{_f(y1 + 3 * math.sin(rot))}" '
                         f'stroke="#d95f02" stroke-width="1"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
