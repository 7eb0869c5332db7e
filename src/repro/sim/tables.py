"""Plain-text table rendering for experiment output.

``repro list``, the figure tables ``repro fidelity run`` prints and the
examples go through :class:`TextTable`, so the output is uniform and
diffable.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

from ..common.errors import AnalysisError

__all__ = ["TextTable"]

Cell = Union[str, int, float, None]


class TextTable:
    """A simple right-aligned monospace table with a title."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        if not columns:
            raise AnalysisError("table needs at least one column")
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, cells: Iterable[Cell]) -> None:
        """Append a row; cells are stringified, None renders as '-'."""
        rendered = []
        for c in cells:
            if c is None:
                rendered.append("-")
            elif isinstance(c, float):
                rendered.append(f"{c:.2f}")
            else:
                rendered.append(str(c))
        if len(rendered) != len(self.columns):
            raise AnalysisError(
                f"row has {len(rendered)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(rendered)

    def render(self) -> str:
        """The complete table as a string."""
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        # First column left-aligned (row labels), the rest right-aligned.
        def fmt_row(cells: Sequence[str]) -> str:
            parts = [cells[0].ljust(widths[0])]
            parts.extend(c.rjust(w) for c, w in zip(cells[1:], widths[1:]))
            return "  ".join(parts)

        sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
        lines = [self.title, sep, fmt_row(self.columns), sep]
        lines.extend(fmt_row(r) for r in self.rows)
        lines.append(sep)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
