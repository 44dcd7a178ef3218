"""Parallel experiment execution: sweep runner + memoized result store.

The scaling layer the section-6 experiments run on:

* :mod:`repro.exec.runner` -- :class:`SweepRunner` resolves cache hits
  and per-point deterministic seeding, then delegates execution to a
  backend chosen by the job count (serial == parallel, bit for bit);
* :mod:`repro.exec.executor` -- the two backends: serial for one job,
  and the queue of long-lived workers for more (see docs/EXECUTORS.md);
* :mod:`repro.exec.cache` -- :class:`ResultCache`, a content-addressed
  on-disk memo of :class:`SimulationResult` pickles;
* :mod:`repro.exec.keys` -- stable point keys (exact-float canonical
  JSON + a code-version tag);
* :mod:`repro.exec.grid` -- :class:`GridSpec`, the cross-product spec
  behind the ``sweep`` CLI command and the canned Figure 8 experiments.
"""

from repro.exec.cache import CacheCounters, ResultCache, default_cache_dir
from repro.exec.executor import (
    Executor,
    PointTask,
    QueueExecutor,
    SerialExecutor,
)
from repro.exec.grid import (
    GridSpec,
    parse_floats,
    parse_toggles,
    render_sweep_table,
    sweep_summary,
)
from repro.exec.keys import canonical_json, code_version_tag, point_key
from repro.exec.runner import (
    AppWorkloadSpec,
    PointResult,
    SweepPointSpec,
    SweepRunner,
    TraceFileSpec,
    resolve_jobs,
)

__all__ = [
    "AppWorkloadSpec",
    "CacheCounters",
    "Executor",
    "PointResult",
    "PointTask",
    "QueueExecutor",
    "ResultCache",
    "SerialExecutor",
    "SweepPointSpec",
    "SweepRunner",
    "TraceFileSpec",
    "canonical_json",
    "code_version_tag",
    "default_cache_dir",
    "point_key",
    "resolve_jobs",
    "GridSpec",
    "parse_floats",
    "parse_toggles",
    "render_sweep_table",
    "sweep_summary",
]
