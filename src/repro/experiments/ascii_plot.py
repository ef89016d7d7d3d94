"""Terminal rendering of figure series.

The paper's figures are gnuplot scatter/line plots; the CLI renders the
same series as compact ASCII charts so results can be eyeballed without
leaving the terminal (CSV output remains the machine-readable artifact).
"""

from __future__ import annotations

from typing import Mapping

__all__ = ["line_chart"]

# A data range narrower than this renders as flat: widen it to a unit span
# so every point lands on one row/column instead of dividing by ~0.
_FLAT_RANGE = 1e-12


def line_chart(series: Mapping[str, Mapping[float, float]],
               width: int = 60, height: int = 16,
               x_label: str = "x", y_label: str = "y",
               title: str = "") -> str:
    """Multi-series ASCII chart.

    Each series is a mapping ``x -> y``; x positions are merged across
    series and mapped onto ``width`` columns, y values onto ``height``
    rows.  Series are drawn with distinct glyphs, listed in the legend.
    """
    glyphs = "ox+*#@%&"
    names = list(series)
    if not names:
        return "(no data)"
    xs = sorted({x for curve in series.values() for x in curve})
    ys = [y for curve in series.values() for y in curve.values()]
    if not xs or not ys:
        return "(no data)"
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_hi - y_lo < _FLAT_RANGE:
        y_hi = y_lo + 1.0
    if x_hi - x_lo < _FLAT_RANGE:
        x_hi = x_lo + 1.0

    grid = [[" "] * width for _ in range(height)]
    for s_idx, name in enumerate(names):
        glyph = glyphs[s_idx % len(glyphs)]
        for x, y in series[name].items():
            col = int((x - x_lo) / (x_hi - x_lo) * (width - 1))
            row = int((y - y_lo) / (y_hi - y_lo) * (height - 1))
            row = height - 1 - row
            current = grid[row][col]
            # Overlapping points from different series render as '?'.
            grid[row][col] = glyph if current in (" ", glyph) else "?"

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_hi:8.3f} ┐")
    for row in grid:
        lines.append(" " * 9 + "│" + "".join(row))
    lines.append(f"{y_lo:8.3f} ┴" + "─" * width)
    lines.append(" " * 10 + f"{x_lo:<10.3f}{x_label:^{max(0, width - 20)}}"
                 f"{x_hi:>10.3f}")
    legend = "   ".join(f"{glyphs[i % len(glyphs)]} {name}"
                        for i, name in enumerate(names))
    lines.append(f"legend: {legend}   (overlap: ?)")
    return "\n".join(lines)
