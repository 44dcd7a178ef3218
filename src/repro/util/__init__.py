"""Shared substrate: units, time base, time series, rendering.

The whole reproduction uses two time bases:

* **trace ticks** -- the paper's trace format stores every timestamp in
  10 microsecond units (integer ticks).  All trace-level code
  (:mod:`repro.trace`, :mod:`repro.runtime`, :mod:`repro.workloads`) works
  in integer ticks so that traces round-trip exactly.
* **seconds** -- the buffering simulator (:mod:`repro.sim`) and all
  analysis code report in floating-point seconds.

Conversions live in :mod:`repro.util.units` and are the only place the
``10 us`` constant appears.
"""

from repro.util.units import (
    TICKS_PER_SECOND,
    TICK_SECONDS,
    KB,
    MB,
    seconds_to_ticks,
    ticks_to_seconds,
)
from repro.util.errors import ReproError, TraceFormatError, SimulationError, CalibrationError
from repro.util.rng import derive_rng
from repro.util.timeseries import BinnedSeries, RateSeries
from repro.util.tables import TextTable, format_si
from repro.util.asciiplot import ascii_line_plot, ascii_bar_plot, sparkline

__all__ = [
    "TICKS_PER_SECOND",
    "TICK_SECONDS",
    "KB",
    "MB",
    "seconds_to_ticks",
    "ticks_to_seconds",
    "ReproError",
    "TraceFormatError",
    "SimulationError",
    "CalibrationError",
    "derive_rng",
    "BinnedSeries",
    "RateSeries",
    "TextTable",
    "format_si",
    "ascii_line_plot",
    "ascii_bar_plot",
    "sparkline",
]
