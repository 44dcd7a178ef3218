"""Plain-text table rendering for analysis reports and benchmark output.

Every benchmark prints the same rows the paper's tables report; this module
renders them with aligned columns so paper-vs-measured comparisons are
readable in a terminal and in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence


def format_si(value: float, digits: int = 3) -> str:
    """Format a number compactly: SI-ish with a sensible precision.

    Integers print without a decimal point; large values get thousands
    separators; small values keep ``digits`` significant figures.
    """
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 1:
        return f"{value:.{digits}g}"
    return f"{value:.{digits}g}"


@dataclass
class TextTable:
    """A simple column-aligned text table.

    >>> t = TextTable(["app", "MB/s"])
    >>> t.add_row(["venus", 44.1])
    >>> print(t.render())  # doctest: +SKIP
    """

    headers: Sequence[str]
    rows: list[list[str]] = field(default_factory=list)
    title: str | None = None

    def add_row(self, cells: Iterable[Any]) -> None:
        row = [c if isinstance(c, str) else format_si(c) for c in cells]
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(row)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def fmt_row(cells: Sequence[str]) -> str:
            return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(fmt_row(list(self.headers)))
        lines.append("  ".join("-" * w for w in widths))
        lines.extend(fmt_row(row) for row in self.rows)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
