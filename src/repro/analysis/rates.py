"""Rate-over-time curves from traces (Figures 3, 4, 6, 7).

The paper's application figures plot "MB per CPU second" against *process
CPU time* at one-second resolution, so multiprogramming effects are
filtered out; the simulation figures plot disk traffic against wall
time.  Both reduce to binning record lengths on the chosen clock.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.trace.array import TraceArray
from repro.util.timeseries import BinnedSeries, RateSeries
from repro.util.units import MB, ticks_to_seconds

Clock = Literal["cpu", "wall"]
Direction = Literal["both", "read", "write"]


def _select(trace: TraceArray, direction: Direction) -> TraceArray:
    if direction == "read":
        return trace.reads()
    if direction == "write":
        return trace.writes()
    return trace


def _clock_seconds(trace: TraceArray, clock: Clock) -> np.ndarray:
    ticks = trace.process_clock if clock == "cpu" else trace.start_time
    return ticks.astype(float) * ticks_to_seconds(1)


def data_rate_series(
    trace: TraceArray,
    *,
    clock: Clock = "cpu",
    direction: Direction = "both",
    bin_seconds: float = 1.0,
) -> RateSeries:
    """MB-per-second curve of a trace on the chosen clock.

    ``clock="cpu"`` requires a single-process trace (process CPU clocks
    of different processes are incommensurable); ``clock="wall"`` accepts
    any trace.
    """
    selected = _select(trace, direction)
    if clock == "cpu" and len(trace.process_ids()) > 1:
        raise ValueError(
            "cpu-clock rate series needs a single-process trace; "
            "filter with trace.for_process() first"
        )
    binned = BinnedSeries(bin_seconds)
    times = _clock_seconds(selected, clock)
    weights = selected.length.astype(float) / MB
    binned.add_many(times, weights)
    return RateSeries.from_binned(binned)


def rate_series_csv(series: RateSeries, *, header: str = "seconds,mb_per_sec") -> str:
    """Render a rate series as CSV text (the figures' data dump)."""
    lines = [header]
    for t, r in zip(series.times, series.rates):
        lines.append(f"{t:.3f},{r:.6f}")
    return "\n".join(lines)
