"""Schematic SVG 1.1 line charts for sweep and composition results.

Deliberately minimal: axes, one polyline per series, tick labels at the
range ends, optional background tint and end-of-axis labels. Not a plotting
library; just enough to eyeball a sweep.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

_WIDTH = 640
_HEIGHT = 420
_MARGIN = 56.0


def _spread(lo: float, hi: float) -> tuple[float, float]:
    if hi <= lo:
        pad = 0.5 if lo == 0 else abs(lo) * 0.5
        return lo - pad, hi + pad
    return lo, hi


def line_chart(
    series,
    *,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    background: str | None = None,
    x_end_labels: tuple[str, str] | None = None,
) -> str:
    """Render (label, xs, ys) series to an SVG document string.

    The y axis uses a log10 scale when every value is positive; otherwise
    it falls back to linear.
    """
    if not series:
        raise ValueError("no series to plot")
    all_x = [float(x) for _, xs, _ in series for x in xs]
    all_y = [float(y) for _, _, ys in series for y in ys]
    if not all_x:
        raise ValueError("series contain no points")
    use_log = all(y > 0.0 for y in all_y)
    ys_t = [math.log10(y) for y in all_y] if use_log else all_y
    x_lo, x_hi = _spread(min(all_x), max(all_x))
    y_lo, y_hi = _spread(min(ys_t), max(ys_t))

    plot_w = _WIDTH - 2 * _MARGIN
    plot_h = _HEIGHT - 2 * _MARGIN

    def px(x: float) -> float:
        return _MARGIN + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        t = math.log10(y) if use_log else y
        return _HEIGHT - _MARGIN - (t - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    if background:
        parts.append(
            f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{plot_w}" height="{plot_h}" '
            f'fill="{background}"/>'
        )
    axis = 'stroke="#000000" stroke-width="1"'
    parts.append(
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" '
        f'x2="{_WIDTH - _MARGIN}" y2="{_HEIGHT - _MARGIN}" {axis}/>'
    )
    parts.append(
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{_HEIGHT - _MARGIN}" {axis}/>'
    )
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2}" y="{_MARGIN / 2}" text-anchor="middle" '
            f'font-size="15">{escape(title)}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{_WIDTH / 2}" y="{_HEIGHT - 12}" text-anchor="middle" '
            f'font-size="12">{escape(x_label)}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="16" y="{_HEIGHT / 2}" text-anchor="middle" font-size="12" '
            f'transform="rotate(-90 16 {_HEIGHT / 2})">{escape(y_label)}</text>'
        )

    y_tick = _HEIGHT - _MARGIN + 18
    if x_end_labels is not None:
        left, right = x_end_labels
        parts.append(
            f'<text x="{_MARGIN}" y="{y_tick}" text-anchor="middle" '
            f'font-size="13">{escape(left)}</text>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN}" y="{y_tick}" text-anchor="middle" '
            f'font-size="13">{escape(right)}</text>'
        )
    else:
        parts.append(
            f'<text x="{_MARGIN}" y="{y_tick}" text-anchor="middle" '
            f'font-size="11">{min(all_x):g}</text>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN}" y="{y_tick}" text-anchor="middle" '
            f'font-size="11">{max(all_x):g}</text>'
        )
    lo_txt = f"{10 ** y_lo:.3g}" if use_log else f"{y_lo:.3g}"
    hi_txt = f"{10 ** y_hi:.3g}" if use_log else f"{y_hi:.3g}"
    parts.append(
        f'<text x="{_MARGIN - 6}" y="{_HEIGHT - _MARGIN}" text-anchor="end" '
        f'font-size="11">{lo_txt}</text>'
    )
    parts.append(
        f'<text x="{_MARGIN - 6}" y="{_MARGIN + 4}" text-anchor="end" '
        f'font-size="11">{hi_txt}</text>'
    )

    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{px(float(x)):.2f},{py(float(y)):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN + 6}" y="{_MARGIN + 14 * idx + 10}" '
            f'font-size="11" fill="{color}">{escape(str(label))}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
