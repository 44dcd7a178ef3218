"""Minimal dependency-free SVG charts.

matplotlib is unavailable offline, so the figure experiments render
their curves to standalone SVG files with this tiny writer: enough for a
time-series line chart with axes, ticks and labels.  The output is plain
SVG 1.1, viewable in any browser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence
from xml.sax.saxutils import escape

_COLORS = ("#1f6fb2", "#c23b22", "#3a923a", "#8436a8", "#b8860b")


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    """Round tick positions covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(1, n)
    magnitude = 10 ** math.floor(math.log10(raw))
    for multiple in (1, 2, 2.5, 5, 10):
        step = multiple * magnitude
        if span / step <= n:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9:
        ticks.append(round(t, 10))
        t += step
    return ticks


@dataclass
class SVGChart:
    """One chart canvas with margins and data-space scaling."""

    width: int = 720
    height: int = 360
    margin_left: int = 64
    margin_right: int = 16
    margin_top: int = 36
    margin_bottom: int = 48
    title: str = ""
    x_label: str = ""
    y_label: str = ""
    _elements: list[str] = field(default_factory=list)
    _x_range: tuple[float, float] = (0.0, 1.0)
    _y_range: tuple[float, float] = (0.0, 1.0)

    # -- geometry ---------------------------------------------------------
    @property
    def plot_width(self) -> int:
        return self.width - self.margin_left - self.margin_right

    @property
    def plot_height(self) -> int:
        return self.height - self.margin_top - self.margin_bottom

    def set_ranges(self, xs: Sequence[float], ys: Sequence[float]) -> None:
        if len(xs) == 0 or len(ys) == 0:
            raise ValueError("need data to set ranges")
        x_lo, x_hi = float(min(xs)), float(max(xs))
        y_hi = float(max(ys))
        if x_hi <= x_lo:
            x_hi = x_lo + 1.0
        if y_hi <= 0:
            y_hi = 1.0
        self._x_range = (x_lo, x_hi)
        self._y_range = (0.0, y_hi * 1.05)

    def _sx(self, x: float) -> float:
        lo, hi = self._x_range
        return self.margin_left + (x - lo) / (hi - lo) * self.plot_width

    def _sy(self, y: float) -> float:
        lo, hi = self._y_range
        return (
            self.margin_top
            + (1 - (y - lo) / (hi - lo)) * self.plot_height
        )

    # -- drawing ------------------------------------------------------------
    def add_axes(self) -> None:
        x0, y0 = self.margin_left, self.margin_top
        x1 = self.width - self.margin_right
        y1 = self.height - self.margin_bottom
        self._elements.append(
            f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
            f'fill="none" stroke="#444" stroke-width="1"/>'
        )
        for tick in _nice_ticks(*self._x_range):
            sx = self._sx(tick)
            self._elements.append(
                f'<line x1="{sx:.1f}" y1="{y1}" x2="{sx:.1f}" y2="{y1 + 5}" '
                f'stroke="#444"/>'
            )
            self._elements.append(
                f'<text x="{sx:.1f}" y="{y1 + 18}" font-size="11" '
                f'text-anchor="middle" fill="#333">{tick:g}</text>'
            )
        for tick in _nice_ticks(*self._y_range):
            sy = self._sy(tick)
            self._elements.append(
                f'<line x1="{x0 - 5}" y1="{sy:.1f}" x2="{x0}" y2="{sy:.1f}" '
                f'stroke="#444"/>'
            )
            self._elements.append(
                f'<text x="{x0 - 8}" y="{sy + 4:.1f}" font-size="11" '
                f'text-anchor="end" fill="#333">{tick:g}</text>'
            )
            self._elements.append(
                f'<line x1="{x0}" y1="{sy:.1f}" x2="{x1}" y2="{sy:.1f}" '
                f'stroke="#ddd" stroke-width="0.5"/>'
            )
        if self.title:
            self._elements.append(
                f'<text x="{self.width / 2:.0f}" y="20" font-size="14" '
                f'font-weight="bold" text-anchor="middle" fill="#111">'
                f"{escape(self.title)}</text>"
            )
        if self.x_label:
            self._elements.append(
                f'<text x="{(x0 + x1) / 2:.0f}" y="{self.height - 10}" '
                f'font-size="12" text-anchor="middle" fill="#333">'
                f"{escape(self.x_label)}</text>"
            )
        if self.y_label:
            cy = (y0 + y1) / 2
            self._elements.append(
                f'<text x="16" y="{cy:.0f}" font-size="12" '
                f'text-anchor="middle" fill="#333" '
                f'transform="rotate(-90 16 {cy:.0f})">'
                f"{escape(self.y_label)}</text>"
            )

    def add_line(
        self, xs: Sequence[float], ys: Sequence[float], *, series: int = 0,
        label: str | None = None,
    ) -> None:
        if len(xs) != len(ys):
            raise ValueError("xs and ys must have equal length")
        color = _COLORS[series % len(_COLORS)]
        points = " ".join(
            f"{self._sx(float(x)):.1f},{self._sy(float(y)):.1f}"
            for x, y in zip(xs, ys)
        )
        self._elements.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="1.3"/>'
        )
        if label:
            y = self.margin_top + 14 + 14 * series
            x = self.width - self.margin_right - 8
            self._elements.append(
                f'<text x="{x}" y="{y}" font-size="11" text-anchor="end" '
                f'fill="{color}">{escape(label)}</text>'
            )

    # -- output --------------------------------------------------------------
    def render(self) -> str:
        body = "\n".join(self._elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="{self.width}" height="{self.height}" fill="white"/>\n'
            f"{body}\n</svg>\n"
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())


def line_chart(
    xs: Sequence[float],
    ys: Sequence[float],
    *,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> SVGChart:
    """One-series line chart, ready to render."""
    chart = SVGChart(title=title, x_label=x_label, y_label=y_label)
    chart.set_ranges(xs, ys)
    chart.add_axes()
    chart.add_line(xs, ys)
    return chart
