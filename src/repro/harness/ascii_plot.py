"""Dependency-free ASCII charts for the ``repro analyze`` report: bar
charts, sparklines and mesh heat maps."""

from __future__ import annotations

from typing import Mapping, Sequence


def bar_chart(title: str, values: Mapping[str, float], *,
              width: int = 50, unit: str = "") -> str:
    """Horizontal bar chart of labeled values."""
    if not values:
        raise ValueError("nothing to plot")
    peak = max(abs(v) for v in values.values()) or 1.0
    label_w = max(len(k) for k in values)
    lines = [title]
    for name, v in values.items():
        bar = "#" * max(round(abs(v) / peak * width), 0)
        lines.append(f"{name:>{label_w}} |{bar} {v:.3g}{unit}")
    return "\n".join(lines)


#: intensity ramp shared by :func:`sparkline` and :func:`heat_grid`
BLOCKS = " .:-=+*#%@"


def sparkline(values: Sequence[float]) -> str:
    """One-line trend rendering with block glyphs."""
    if not values:
        return ""
    blocks = BLOCKS
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    return "".join(blocks[round((v - lo) / span * (len(blocks) - 1))]
                   for v in values)


def heat_grid(title: str, values: Mapping[int, float],
              width: int, height: int) -> str:
    """Render per-node values as a ``width x height`` mesh heat map.

    ``values`` maps node id (``y * width + x``) to intensity; missing
    nodes render as zero.  Row ``y = height-1`` prints first so the
    mesh appears in the usual orientation (origin bottom-left).  Each
    cell is two glyphs wide for a roughly square aspect ratio.
    """
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
    peak = max(values.values(), default=0.0)
    scale = peak or 1.0
    top = len(BLOCKS) - 1
    lines = [title]
    for y in range(height - 1, -1, -1):
        cells = []
        for x in range(width):
            v = values.get(y * width + x, 0.0)
            cells.append(BLOCKS[min(round(v / scale * top), top)] * 2)
        lines.append(f"y={y:<2d} " + "".join(cells))
    lines.append("     " + "".join(f"{x % 10} " for x in range(width)))
    lines.append(f"scale: ' '=0 .. '{BLOCKS[-1]}'={peak:g}")
    return "\n".join(lines)
