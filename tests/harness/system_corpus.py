"""A recorded digest corpus for the whole simulator.

The cache corpus (:mod:`tests.harness.cache_corpus`) pins the buffer
cache under one CPU, default scheduler costs and a main-memory cache.
:func:`build_case` here draws the same kind of traces
(:func:`~tests.harness.cache_corpus.draw_traces`) under every other knob
the simulator has:

* a main-memory cache of 4 or 8 KB blocks, or an SSD cache
  (:func:`~repro.sim.config.ssd_cache`, with hit penalties) of 8 or
  32 KB blocks, 16-256 frames, with the cache corpus's read-ahead,
  write-behind, flush-delay and ownership-cap mix;
* 1-3 CPUs, a 2-50 ms quantum, switch and interrupt costs of 0, the
  default or 10x the default, and 0 or 50 us of file-system CPU per I/O;
* one disk per file, or the files hashed onto 2 shared disks;
* a fault plan: none, transient errors plus slow I/O, retry exhaustion,
  timeouts, a crash at T or an SSD failure at T (degraded mode), with
  T drawn over the run's expected length -- most land inside the run,
  the rest after it drained;
* under delayed flush, a ``cache.discard_file(fid)`` (a file deleted
  before its dirty data reached the disk) scheduled the same way.

Every draw goes through ``random.Random(seed).random()``.  The fixture
next to this module holds the first 16 hex digits of
``SimulationResult.digest()`` for seeds ``0..N-1``.  Check or re-record
it with::

    python -m tests.harness.system_corpus
    python -m tests.harness.system_corpus --record

Re-record only when a change is *meant* to alter the simulation.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from repro.sim.config import (
    CacheConfig, DiskConfig, SchedulerConfig, SimConfig, ssd_cache,
)
from repro.sim.faults import FaultPlan
from repro.sim.system import SimulatedSystem
from repro.trace.array import TraceArray
from repro.util.units import KB
from tests.harness.cache_corpus import (
    FAULT_SPECS as CACHE_FAULT_SPECS, corpus_main, draw_traces, pick,
)

FIXTURE = Path(__file__).with_name("system_corpus.json")
N_CASES = 1000

#: Fault plans by name; ``{seed}`` is the case seed and ``{t}`` a time
#: drawn over the run's expected length.
FAULT_SPECS = {
    **CACHE_FAULT_SPECS,
    "timeout": "slow=0.2,timeout=0.05,seed={seed}",
    "crash": "crash_at={t}",
    "ssd_fail": "ssd_fail_at={t}",
}

_SCHED = SchedulerConfig()

#: Simulated seconds a case's processes take, roughly, per trace record:
#: the horizon that timed faults and file discards are drawn inside.
_SECONDS_PER_RECORD = 0.01


@dataclass(frozen=True)
class Case:
    """One corpus case: what to simulate, plus an optional file discard."""

    traces: list[TraceArray]
    config: SimConfig
    #: ``(time_s, file_id)`` of a scheduled ``cache.discard_file``
    discard: tuple[float, int] | None = None

    def run(self):
        system = SimulatedSystem(self.traces, self.config)
        if self.discard is not None:
            t, fid = self.discard
            system.engine.schedule_at(t, system.cache.discard_file, fid)
        return system.run()


def build_case(seed: int) -> Case:
    """The traces, config and discard of corpus case ``seed``."""
    u = random.Random(seed).random
    ssd = u() < 0.35
    block = pick(u, (8 * KB, 32 * KB) if ssd else (4 * KB, 8 * KB))
    write_behind = u() < 0.7
    policy = dict(
        size_bytes=pick(u, (16, 32, 64, 128, 256)) * block,
        block_bytes=block,
        read_ahead=u() < 0.6,
        read_ahead_depth=pick(u, (None, 2, 4)),
        write_behind=write_behind,
        flush_delay_s=pick(u, (0.0, 0.5)) if write_behind else 0.0,
        max_blocks_per_process=pick(u, (None, None, 8, 24)),
    )
    cache = ssd_cache(**policy) if ssd else CacheConfig(**policy)
    scheduler = SchedulerConfig(
        n_cpus=1 + int(u() * 3),
        quantum_s=0.002 + 0.048 * u(),
        switch_overhead_s=pick(u, (0.0, 1.0, 10.0)) * _SCHED.switch_overhead_s,
        interrupt_service_s=(
            pick(u, (0.0, 1.0, 10.0)) * _SCHED.interrupt_service_s
        ),
        fs_overhead_s=pick(u, (0.0, 50e-6)),
    )
    config = SimConfig(
        cache=cache,
        disk=DiskConfig(n_disks=pick(u, (0, 2))),
        scheduler=scheduler,
        seed=seed,
    )
    fault = pick(u, tuple(FAULT_SPECS))
    traces = draw_traces(u, block)
    horizon = _SECONDS_PER_RECORD * sum(len(t) for t in traces)
    spec = FAULT_SPECS[fault]
    if spec is not None:
        spec = spec.format(seed=seed, t=repr(horizon * u()))
        config = FaultPlan.from_spec(spec).apply(config)
    discard = None
    if cache.flush_delay_s > 0:
        fids = sorted({int(f) for t in traces for f in t.file_ids()})
        discard = (horizon * u(), pick(u, fids))
    return Case(traces, config, discard)


@dataclass(frozen=True)
class CaseOutcome:
    """What one case produced: its digest prefix plus coverage fields."""

    seed: int
    digest: str
    crashed: bool = False
    degraded: bool = False
    multi_cpu: bool = False
    ssd: bool = False
    writes_cancelled: int = 0
    timeouts: int = 0
    scheduler_costs: bool = False


def run_case(seed: int) -> CaseOutcome:
    """Simulate case ``seed``; an exception becomes the digest text, so a
    crashing case is reported like any other mismatch."""
    case = build_case(seed)
    try:
        result = case.run()
    except Exception as exc:  # reported as a mismatch, not swallowed
        return CaseOutcome(seed, f"raised {type(exc).__name__}: {exc}")
    sched = case.config.scheduler
    return CaseOutcome(
        seed=seed,
        digest=result.digest()[:16],
        crashed=result.faults.crashed,
        degraded=result.faults.degraded_at_s is not None,
        multi_cpu=result.n_cpus > 1,
        ssd=case.config.cache.hit_setup_s > 0,
        writes_cancelled=result.cache.writes_cancelled,
        timeouts=result.faults.timeouts,
        scheduler_costs=(
            replace(sched, n_cpus=_SCHED.n_cpus, quantum_s=_SCHED.quantum_s)
            != _SCHED
        ),
    )


def run_corpus() -> list[CaseOutcome]:
    return [run_case(seed) for seed in range(N_CASES)]


def main(argv: list[str] | None = None) -> int:
    return corpus_main(
        argv,
        run=run_corpus,
        fixture=FIXTURE,
        about="SimulationResult.digest()[:16] of "
              "tests.harness.system_corpus.build_case(seed).run(), by seed",
        description="Check (or re-record) the whole-simulator digest corpus.",
    )


if __name__ == "__main__":
    sys.exit(main())
