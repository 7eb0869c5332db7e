"""Result analysis: the suite-average speedup and ASCII bar charts."""

from .plots import bar_chart
from .speedup import suite_average_speedup_pct

__all__ = [
    "bar_chart",
    "suite_average_speedup_pct",
]
