"""Tiny dependency-free SVG scatter plots.

Figures are written as standalone SVG with inline styling only, so they
render anywhere without a plotting runtime.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

_WIDTH, _HEIGHT = 640, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 24, 42, 58


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi] with a 1/2/5 step, about five."""
    if not np.isfinite(lo) or not np.isfinite(hi):
        return []
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 5
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = np.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else float(t))
        t += step
    return ticks


def _escape(text: str) -> str:
    """XML character data: `&`, then `<` and `>`, replaced by entities.

    The bytes of `xml.sax.saxutils.escape`, whose import pulls in urllib,
    http and email.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:g}"


def scatter_svg(
    path,
    series: list,
    xlabel: str = "",
    ylabel: str = "",
    title: str = "",
) -> None:
    """Write a scatter figure.

    `series` is a list of (label, xs, ys, color) tuples; all points share
    one pair of linear axes. Empty series still produce a valid figure.
    """
    xs_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series]) if series else np.array([])
    ys_all = np.concatenate([np.asarray(s[2], dtype=float) for s in series]) if series else np.array([])
    keep = np.isfinite(xs_all) & np.isfinite(ys_all) if xs_all.size else np.array([], bool)
    if keep.any():
        x_lo, x_hi = float(xs_all[keep].min()), float(xs_all[keep].max())
        y_lo, y_hi = float(ys_all[keep].min()), float(ys_all[keep].max())
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_x = 0.04 * (x_hi - x_lo)
    pad_y = 0.04 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15" fill="#222">'
            f"{_escape(title)}</text>"
        )

    axis_y = _MARGIN_T + plot_h
    for t in _nice_ticks(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_MARGIN_T}" x2="{x:.1f}" y2="{axis_y}" '
            'stroke="#ddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{axis_y + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11" fill="#444">{_fmt(t)}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        y = py(t)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{y:.1f}" x2="{_MARGIN_L + plot_w}" '
            f'y2="{y:.1f}" stroke="#ddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="#444">{_fmt(t)}</text>'
        )
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333" stroke-width="1"/>'
    )

    for label, xs, ys, color in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        for x, y in zip(xs, ys):
            if np.isfinite(x) and np.isfinite(y):
                parts.append(
                    f'<circle cx="{px(float(x)):.1f}" cy="{py(float(y)):.1f}" '
                    f'r="3" fill="{color}" fill-opacity="0.6"/>'
                )

    legend_x = _MARGIN_L + plot_w - 150
    legend_y = _MARGIN_T + 10
    for i, (label, _, _, color) in enumerate(series):
        y = legend_y + 18 * i
        parts.append(
            f'<circle cx="{legend_x}" cy="{y}" r="4" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{legend_x + 10}" y="{y + 4}" font-family="sans-serif" '
            f'font-size="12" fill="#222">{_escape(str(label))}</text>'
        )

    if xlabel:
        parts.append(
            f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 14}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="13" '
            f'fill="#222">{_escape(xlabel)}</text>'
        )
    if ylabel:
        cx, cy = 20, _MARGIN_T + plot_h / 2
        parts.append(
            f'<text x="{cx}" y="{cy:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" fill="#222" '
            f'transform="rotate(-90 {cx} {cy:.1f})">{_escape(ylabel)}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
