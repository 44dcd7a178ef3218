"""Trace analysis: section 5 of the paper.

* :mod:`repro.analysis.summary` -- Tables 1 and 2.
* :mod:`repro.analysis.rates` -- rate-over-time curves (Figures 3/4 and
  the simulator's disk-traffic figures).
* :mod:`repro.analysis.sequentiality` -- sequential/same-size/regularity
  metrics and file-concentration analysis.
* :mod:`repro.analysis.perfile` -- per-file aggregates and the
  large/small file split.
* :mod:`repro.analysis.classify` -- required/checkpoint/swap I/O classes.
* :mod:`repro.analysis.cycles` -- demand periodicity and cycle
  similarity.
* :mod:`repro.analysis.amdahl` -- Amdahl's I/O metric checks.
* :mod:`repro.analysis.report` -- rendered paper-vs-measured tables.
"""

from repro.analysis.amdahl import (
    amdahl_balance,
    amdahl_io_mb_per_sec,
    paper_swap_example,
)
from repro.analysis.bursts import Burst, BurstReport, analyze_bursts, detect_bursts
from repro.analysis.checkpoint_policy import (
    CheckpointParams,
    checkpoint_cost_seconds,
    expected_overhead_fraction,
    optimal_interval_seconds,
    optimal_iterations,
)
from repro.analysis.classify import (
    ClassificationReport,
    IOClass,
    classify_file,
    classify_trace,
)
from repro.analysis.cycles import CycleReport, analyze_cycles, peak_spacing_regularity
from repro.analysis.perfile import (
    FileStats,
    large_file_io_fraction,
    per_file_stats,
    split_large_small,
    unique_sizes_per_file,
)
from repro.analysis.rates import data_rate_series, rate_series_csv
from repro.analysis.report import render_table1, render_table2, table1_rows, table2_rows
from repro.analysis.sequentiality import (
    FileConcentrationReport,
    SequentialityReport,
    analyze_file_concentration,
    analyze_sequentiality,
)
from repro.analysis.summary import (
    Table1Row,
    Table2Row,
    extrapolate_table1,
    scale_factor_to_full,
    summarize_table1,
    summarize_table2,
    trace_table1,
)

__all__ = [
    "Burst",
    "BurstReport",
    "analyze_bursts",
    "detect_bursts",
    "CheckpointParams",
    "checkpoint_cost_seconds",
    "expected_overhead_fraction",
    "optimal_interval_seconds",
    "optimal_iterations",
    "amdahl_balance",
    "amdahl_io_mb_per_sec",
    "paper_swap_example",
    "ClassificationReport",
    "IOClass",
    "classify_file",
    "classify_trace",
    "CycleReport",
    "analyze_cycles",
    "peak_spacing_regularity",
    "FileStats",
    "large_file_io_fraction",
    "per_file_stats",
    "split_large_small",
    "unique_sizes_per_file",
    "data_rate_series",
    "rate_series_csv",
    "render_table1",
    "render_table2",
    "table1_rows",
    "table2_rows",
    "FileConcentrationReport",
    "SequentialityReport",
    "analyze_file_concentration",
    "analyze_sequentiality",
    "Table1Row",
    "Table2Row",
    "extrapolate_table1",
    "scale_factor_to_full",
    "summarize_table1",
    "summarize_table2",
    "trace_table1",
]
