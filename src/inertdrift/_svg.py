"""Static SVG histogram figures, written without plotting dependencies.

Output is deterministic: no timestamps, fixed float formatting, fixed
layout.  Bars are drawn in density units (count / (total * bin width))
so an analytic density overlay is directly comparable.
"""

from html import escape

import numpy as np

WIDTH, HEIGHT = 640, 400
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 20, 42, 52


def _fmt(v):
    return "%.6g" % float(v)


def _ticks(lo, hi, count=5):
    return np.linspace(lo, hi, count)


def histogram_svg(path, edges, counts, overlay=None, title="", x_label=""):
    """Write a density-scaled histogram with an optional overlay curve.

    ``edges``/``counts`` come from ``numpy.histogram``; ``overlay`` is an
    optional (grid, density) pair drawn as a polyline.  Returns ``path``.
    """
    edges = np.asarray(edges, float)
    counts = np.asarray(counts, float)
    if edges.size != counts.size + 1 or counts.size < 2:
        raise ValueError("need at least 2 bins and matching edges")
    widths = np.diff(edges)
    total = counts.sum()
    density = counts / (total * widths) if total > 0 else counts * 0.0

    x_lo, x_hi = float(edges[0]), float(edges[-1])
    y_hi = float(density.max()) if density.size else 0.0
    if overlay is not None:
        o_x = np.asarray(overlay[0], float)
        o_y = np.asarray(overlay[1], float)
        y_hi = max(y_hi, float(o_y.max(initial=0.0)))
    y_hi = 1.08 * y_hi if y_hi > 0 else 1.0
    span_x = x_hi - x_lo if x_hi > x_lo else 1.0

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(v):
        return MARGIN_L + (v - x_lo) / span_x * plot_w

    def sy(v):
        return MARGIN_T + plot_h - v / y_hi * plot_h

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (WIDTH, HEIGHT, WIDTH, HEIGHT),
        '<rect width="%d" height="%d" fill="white"/>' % (WIDTH, HEIGHT),
        '<text x="%d" y="24" font-family="sans-serif" font-size="16" '
        'text-anchor="middle">%s</text>'
        % (WIDTH // 2, escape(title, quote=False)),
    ]
    for lo, w, dens in zip(edges[:-1], widths, density):
        parts.append(
            '<rect x="%s" y="%s" width="%s" height="%s" fill="#9ecae1" '
            'stroke="#4292c6" stroke-width="0.5"/>'
            % (_fmt(sx(lo)), _fmt(sy(dens)), _fmt(w / span_x * plot_w),
               _fmt(plot_h - (sy(dens) - MARGIN_T)))
        )
    if overlay is not None:
        pts = " ".join(
            "%s,%s" % (_fmt(sx(xv)), _fmt(sy(min(yv, y_hi))))
            for xv, yv in zip(o_x, o_y)
        )
        parts.append(
            '<polyline points="%s" fill="none" stroke="#d95f02" '
            'stroke-width="1.8"/>' % pts
        )
    # axes
    x0, y0 = MARGIN_L, MARGIN_T + plot_h
    parts.append(
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
        % (x0, y0, x0 + plot_w, y0)
    )
    parts.append(
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
        % (x0, MARGIN_T, x0, y0)
    )
    for tv in _ticks(x_lo, x_hi):
        parts.append(
            '<line x1="%s" y1="%d" x2="%s" y2="%d" stroke="black"/>'
            % (_fmt(sx(tv)), y0, _fmt(sx(tv)), y0 + 5)
        )
        parts.append(
            '<text x="%s" y="%d" font-family="sans-serif" font-size="11" '
            'text-anchor="middle">%s</text>'
            % (_fmt(sx(tv)), y0 + 20, _fmt(tv))
        )
    for tv in _ticks(0.0, y_hi, 4):
        parts.append(
            '<line x1="%d" y1="%s" x2="%d" y2="%s" stroke="black"/>'
            % (x0 - 5, _fmt(sy(tv)), x0, _fmt(sy(tv)))
        )
        parts.append(
            '<text x="%d" y="%s" font-family="sans-serif" font-size="11" '
            'text-anchor="end">%s</text>'
            % (x0 - 8, _fmt(sy(tv) + 4), _fmt(tv))
        )
    if x_label:
        parts.append(
            '<text x="%d" y="%d" font-family="sans-serif" font-size="13" '
            'text-anchor="middle">%s</text>'
            % (x0 + plot_w // 2, HEIGHT - 12, escape(x_label, quote=False))
        )
    if overlay is not None:
        parts.append(
            '<text x="%d" y="%d" font-family="sans-serif" font-size="12" '
            'fill="#d95f02">stationary density</text>'
            % (x0 + plot_w - 150, MARGIN_T + 16)
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    return path
