"""Minimal dependency-free SVG line charts for report figures.

Text is escaped by ``escape`` here, not by ``xml.sax.saxutils.escape``: that
module imports ``urllib.request`` and with it the network stack (``http``,
``email``, ``ssl``, ``socket``), about 3.5 MiB of every ``seqpol`` process for
three string replacements.
"""

from __future__ import annotations

import math

_W, _H = 640, 400
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 160, 40, 50
_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


def escape(text: str) -> str:
    """Escape ``&``, ``>`` and ``<`` as ``xml.sax.saxutils.escape`` does by
    default, in its order (``&`` first)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _drawn(x: float, y: float | None, log_y: bool) -> bool:
    """Whether a point is drawn, and so counts towards the axis spans."""
    return (
        y is not None and math.isfinite(x) and math.isfinite(y) and (not log_y or y > 0)
    )


def line_chart(
    series: list[tuple[str, list[float], list[float]]],
    path: str,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    log_y: bool = False,
) -> None:
    """Write a line chart with one polyline per (label, xs, ys) series.

    Points with a missing or non-finite coordinate, and on a log axis those
    with y <= 0, are left out, and the axes span the points drawn: an inf
    value cannot stretch an axis to inf.
    """
    points = [
        (x, y) for _, xs, ys in series for x, y in zip(xs, ys) if _drawn(x, y, log_y)
    ]
    if not points:
        points = [(0.0, 1.0), (1.0, 2.0)]
    xs_all = [p[0] for p in points]
    ys_all = [math.log10(p[1]) if log_y else p[1] for p in points]
    # A flat axis spans 1; adding 1 to a huge bound would round back to it.
    x_lo, y_lo = min(xs_all), min(ys_all)
    x_span = (max(xs_all) - x_lo) or 1.0
    y_span = (max(ys_all) - y_lo) or 1.0

    plot_w = _W - _MARGIN_L - _MARGIN_R
    plot_h = _H - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / x_span * plot_w

    def sy(y: float) -> float:
        v = math.log10(y) if log_y else y
        return _MARGIN_T + plot_h - (v - y_lo) / y_span * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{escape(title)}</text>',
    ]
    # axes
    x0, y0 = _MARGIN_L, _MARGIN_T + plot_h
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{_MARGIN_T}" x2="{x0}" y2="{y0}" stroke="black"/>'
    )
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * x_span
        yv = y_lo + frac * y_span
        y_text = f"1e{yv:.2f}" if log_y else f"{yv:.3g}"
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.3g}</text>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{_MARGIN_T + plot_h * (1 - frac) + 4:.1f}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11">'
            f"{escape(y_text)}</text>"
        )
    parts.append(
        f'<text x="{x0 + plot_w / 2:.1f}" y="{_H - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{escape(x_label)}</text>'
    )
    label = y_label + (" (log scale)" if log_y else "")
    parts.append(
        f'<text x="16" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.1f})">'
        f"{escape(label)}</text>"
    )
    for i, (name, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(
            f"{sx(x):.1f},{sy(y):.1f}"
            for x, y in zip(xs, ys)
            if _drawn(x, y, log_y)
        )
        if pts:
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>'
            )
        ly = _MARGIN_T + 14 + 16 * i
        parts.append(
            f'<line x1="{x0 + plot_w + 10}" y1="{ly - 4}" '
            f'x2="{x0 + plot_w + 30}" y2="{ly - 4}" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{x0 + plot_w + 35}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{escape(name)}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", errors="backslashreplace") as fh:
        fh.write("\n".join(parts) + "\n")
