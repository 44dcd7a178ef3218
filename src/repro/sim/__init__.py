"""The buffering/caching simulator (section 6 of the paper).

A discrete-event model of one Cray CPU running several trace-driven
processes over a buffer cache and a simple no-queueing disk:

* :mod:`repro.sim.events` -- event calendar;
* :mod:`repro.sim.scheduler` -- round-robin CPU with quantum, switch
  overhead and interrupt service time;
* :mod:`repro.sim.procmodel` -- trace replay (compute deltas + I/O);
* :mod:`repro.sim.cache` -- buffer cache with read-ahead, write-behind,
  LRU frames, optional per-process caps, and SSD hit penalties;
* :mod:`repro.sim.devices` -- the seek-closeness disk model;
* :mod:`repro.sim.faults` -- seeded fault injection (transient errors,
  latency spikes, crash-at-T, SSD failure);
* :mod:`repro.sim.recovery` -- retry with exponential backoff + jitter,
  timeouts, dirty-block re-flush, degraded mode;
* :mod:`repro.sim.experiments` -- Figures 6-8 and the section 6 claims
  as canned runs, plus the fault-rate sweep.
"""

from repro.sim.cache import BufferCache
from repro.sim.config import (
    CacheConfig,
    DiskConfig,
    FaultConfig,
    RecoveryConfig,
    SchedulerConfig,
    SimConfig,
    ssd_cache,
)
from repro.sim.devices import DiskModel
from repro.sim.events import Engine
from repro.sim.experiments import (
    FIG8_BLOCK_SIZES_KB,
    FIG8_CACHE_SIZES_MB,
    AppSSDRun,
    BufferingRun,
    FaultSweepPoint,
    NPlusOnePoint,
    PagingComparison,
    SweepPoint,
    buffer_cap_ablation,
    cache_size_sweep,
    fault_rate_sweep,
    n_plus_one_rule,
    no_idle_execution_seconds,
    paging_vs_staging,
    readahead_ablation,
    run_two_venus,
    ssd_utilization_per_app,
    writebehind_ablation,
)
from repro.sim.faults import FaultDecision, FaultInjector, FaultKind, FaultPlan
from repro.sim.metrics import (
    CacheStats,
    FaultStats,
    Metrics,
    ProcessStats,
    SimulationResult,
)
from repro.sim.procmodel import TraceProcess, relabel_copies
from repro.sim.recovery import RecoveringDevice, backoff_delay
from repro.sim.scheduler import RoundRobinScheduler
from repro.sim.system import SimulatedSystem, simulate

__all__ = [
    "BufferCache",
    "CacheConfig",
    "DiskConfig",
    "FaultConfig",
    "RecoveryConfig",
    "SchedulerConfig",
    "SimConfig",
    "ssd_cache",
    "DiskModel",
    "Engine",
    "FIG8_BLOCK_SIZES_KB",
    "FIG8_CACHE_SIZES_MB",
    "AppSSDRun",
    "BufferingRun",
    "FaultSweepPoint",
    "NPlusOnePoint",
    "PagingComparison",
    "SweepPoint",
    "buffer_cap_ablation",
    "cache_size_sweep",
    "fault_rate_sweep",
    "n_plus_one_rule",
    "no_idle_execution_seconds",
    "paging_vs_staging",
    "readahead_ablation",
    "run_two_venus",
    "ssd_utilization_per_app",
    "writebehind_ablation",
    "FaultDecision",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "CacheStats",
    "FaultStats",
    "Metrics",
    "ProcessStats",
    "SimulationResult",
    "TraceProcess",
    "relabel_copies",
    "RoundRobinScheduler",
    "RecoveringDevice",
    "backoff_delay",
    "SimulatedSystem",
    "simulate",
]
