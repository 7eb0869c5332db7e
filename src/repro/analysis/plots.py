"""ASCII bar charts for terminal-friendly result rendering.

:func:`bar_chart` draws one labelled series of horizontal bars; the
examples use it to show per-benchmark results next to their tables.
"""

from __future__ import annotations

from typing import Mapping

from ..common.errors import AnalysisError

__all__ = ["bar_chart"]

_BAR = "#"
_NEG = "-"


def bar_chart(
    title: str,
    values: Mapping[str, float],
    width: int = 50,
    unit: str = "%",
) -> str:
    """Render one series of labelled horizontal bars.

    Negative values are drawn with a distinct fill so slowdowns (e.g.
    175.vpr under ``orig`` parallel execution) stand out.
    """
    if not values:
        raise AnalysisError("bar chart with no values")
    max_abs = max(abs(v) for v in values.values()) or 1.0
    label_w = max(len(k) for k in values)
    lines = [title]
    for label, v in values.items():
        n = int(round(abs(v) / max_abs * width))
        fill = (_NEG if v < 0 else _BAR) * n
        lines.append(f"  {label.ljust(label_w)} |{fill} {v:+.1f}{unit}")
    return "\n".join(lines)
