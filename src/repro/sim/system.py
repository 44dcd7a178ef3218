"""Wiring: traces + config -> one simulated CPU with a cache and a disk.

"We constructed a cache simulator that models the behavior of a single
CPU with multiple processes making I/O requests."
"""

from __future__ import annotations

from typing import Sequence

from repro.obs.registry import get_registry
from repro.sim.cache import BufferCache
from repro.sim.config import SimConfig
from repro.sim.devices import DiskModel
from repro.sim.events import Engine
from repro.sim.faults import FaultInjector
from repro.sim.metrics import Metrics, SimulationResult
from repro.sim.recovery import RecoveringDevice
from repro.sim.procmodel import TraceProcess
from repro.sim.scheduler import RoundRobinScheduler
from repro.trace.array import TraceArray
from repro.util.errors import SimulationError
from repro.util.timeseries import RateSeries


class SimulatedSystem:
    """One runnable simulation instance."""

    def __init__(
        self,
        traces: Sequence[TraceArray],
        config: SimConfig | None = None,
        *,
        obs=None,
    ):
        self.config = config if config is not None else SimConfig()
        if not traces:
            raise SimulationError("need at least one trace")
        self.obs = obs if obs is not None else get_registry()
        self.engine = Engine(obs=self.obs)
        self.metrics = Metrics(traffic_bin_s=self.config.traffic_bin_s)
        self.disk = DiskModel(self.config.disk, seed=self.config.seed, obs=self.obs)
        # The file system knows each file's size (its inode); the
        # prefetcher uses it to stop at end-of-file.  Derive sizes from
        # the traces' furthest accessed offsets.
        file_sizes: dict[int, int] = {}
        for trace in traces:
            if len(trace) == 0:
                continue
            ends = trace.offset + trace.length
            for fid in trace.file_ids():
                size = int(ends[trace.file_id == fid].max())
                key = int(fid)
                if size > file_sizes.get(key, 0):
                    file_sizes[key] = size
        self.injector = FaultInjector(self.config.faults, seed=self.config.seed)
        self.device = RecoveringDevice(
            self.disk,
            self.engine,
            self.injector,
            self.config.recovery,
            self.metrics,
            obs=self.obs,
        )
        self.cache = BufferCache(
            self.config.cache, self.engine, self.disk, self.metrics,
            file_sizes=file_sizes, device=self.device, obs=self.obs,
        )
        self.scheduler = RoundRobinScheduler(
            self.engine,
            self.config.scheduler,
            self.metrics,
            n_cpus=self.config.scheduler.n_cpus,
            obs=self.obs,
        )
        self.processes: list[TraceProcess] = []
        seen_pids: set[int] = set()
        for k, trace in enumerate(traces):
            pids = trace.process_ids()
            pid = int(pids[0]) if len(pids) else k + 1
            if pid in seen_pids:
                raise SimulationError(
                    f"duplicate process id {pid}; relabel the traces "
                    "(see relabel_copies)"
                )
            seen_pids.add(pid)
            self.processes.append(
                TraceProcess(
                    pid,
                    trace,
                    engine=self.engine,
                    scheduler=self.scheduler,
                    cache=self.cache,
                    metrics=self.metrics,
                    sched_config=self.config.scheduler,
                )
            )

    def run(self, *, max_events: int | None = None) -> SimulationResult:
        """Run to completion (all processes done, all flushes drained).

        With timed faults configured the run is segmented at each cut
        time: the engine runs up to the cut, the fault is applied (SSD
        failure -> degraded mode; crash -> stop, dirty bytes lost), and
        the run continues.  ``max_events`` is a cumulative budget, so
        segmenting does not change the runaway guard.
        """
        for proc in self.processes:
            self.scheduler.add(proc)
        faults = self.config.faults
        cuts: list[tuple[float, str]] = []
        if faults.ssd_fail_at_s is not None:
            cuts.append((faults.ssd_fail_at_s, "degrade"))
        if faults.crash_at_s is not None:
            cuts.append((faults.crash_at_s, "crash"))
        cuts.sort()
        crashed = False
        for t, kind in cuts:
            # Probe without the final clock jump: if the simulation
            # drained before the cut, the fault never happens and the
            # clock must stay at the last real event.
            self.engine.run(max_events=max_events, until=t, advance_clock=False)
            if not self.engine.pending and all(p.finished for p in self.processes):
                break
            self.engine.run(max_events=max_events, until=t)  # now == t
            if kind == "crash":
                fs = self.metrics.faults
                fs.crashed = True
                fs.crash_time_s = self.engine.now
                fs.lost_bytes += self.cache.dirty_bytes()
                crashed = True
                break
            self.cache.enter_degraded()
        if not crashed:
            self.engine.run(max_events=max_events)
            unfinished = [p.process_id for p in self.processes if not p.finished]
            if unfinished:
                raise SimulationError(
                    f"simulation drained with unfinished processes: {unfinished}"
                )
        finish_times = [
            p.finish_time
            for p in self.metrics.processes.values()
            if p.finish_time is not None
        ]
        if crashed:
            # The machine stopped at the crash; nothing completes after.
            completion = self.engine.now
        else:
            completion = max(finish_times) if finish_times else self.engine.now
        self._publish_obs()
        return SimulationResult(
            wall_seconds=self.engine.now,
            completion_seconds=completion,
            n_cpus=self.config.scheduler.n_cpus,
            busy_seconds=self.metrics.busy_seconds,
            switch_seconds=self.metrics.switch_seconds,
            interrupt_seconds=self.metrics.interrupt_seconds,
            cache=self.metrics.cache,
            processes=dict(self.metrics.processes),
            disk_read_rate=RateSeries.from_binned(self.metrics.disk_read_series),
            disk_write_rate=RateSeries.from_binned(self.metrics.disk_write_series),
            demand_rate=RateSeries.from_binned(self.metrics.demand_series),
            busy_rate=RateSeries.from_binned(self.metrics.busy_series),
            disk_sequential_fraction=self.disk.sequential_fraction,
            disk_busy_seconds=self.disk.busy_seconds,
            events_run=self.engine.events_run,
            faults=self.metrics.faults,
        )


    def _publish_obs(self) -> None:
        """Mirror end-of-run accounting into the observability registry.

        Counters accumulate across runs sharing one registry (a sweep
        profiled as a whole); derived fractions are recomputed from the
        accumulated counters so they stay aggregate-correct.
        """
        reg = self.obs
        if not reg.enabled:
            return
        c = self.metrics.cache
        for name in (
            "read_requests", "read_bytes", "write_requests", "write_bytes",
            "block_hits", "block_misses", "block_inflight_hits",
            "readahead_hits", "prefetch_issued", "prefetch_blocks",
            "writes_absorbed", "writes_cancelled", "frame_stalls",
            "bypass_requests",
        ):
            reg.counter(f"sim.cache.{name}").add(getattr(c, name))
        hits = reg.counter("sim.cache.block_hits").value
        inflight = reg.counter("sim.cache.block_inflight_hits").value
        misses = reg.counter("sim.cache.block_misses").value
        total = hits + inflight + misses
        reg.gauge("sim.cache.hit_fraction").set(
            (hits + inflight) / total if total else 0.0
        )
        reg.counter("sim.disk.requests").add(self.disk.requests)
        reg.counter("sim.disk.sequential_requests").add(
            self.disk.sequential_requests
        )
        reg.counter("sim.disk.busy_s").add(self.disk.busy_seconds)
        for device, busy in sorted(self.disk.busy_by_device.items()):
            reg.counter(f"sim.disk.device.{device}.busy_s").add(busy)
        fs = self.metrics.faults
        for name in ("injected_errors", "injected_slowdowns", "degraded_requests"):
            reg.counter(f"sim.faults.{name}").add(getattr(fs, name))
        reg.counter("sim.faults.lost_bytes").add(fs.lost_bytes)
        if fs.crashed:
            reg.counter("sim.faults.crashes").inc()
        for name in (
            "timeouts", "retries", "recovered",
            "failed_reads", "failed_writes", "reflushes",
        ):
            reg.counter(f"sim.recovery.{name}").add(getattr(fs, name))
        reg.gauge("sim.recovery.max_attempts").set_max(fs.max_attempts)
        reg.counter("sim.sched.busy_s").add(self.metrics.busy_seconds)
        reg.counter("sim.sched.switch_overhead_s").add(self.metrics.switch_seconds)
        reg.counter("sim.sched.interrupt_s").add(self.metrics.interrupt_seconds)
        for pid in sorted(self.metrics.processes):
            p = self.metrics.processes[pid]
            reg.counter(f"sim.proc.{pid}.cpu_s").add(p.cpu_seconds)
            reg.counter(f"sim.proc.{pid}.blocked_s").add(p.blocked_seconds)
            reg.counter(f"sim.proc.{pid}.ios").add(p.n_ios)
        reg.emit(
            "simulation",
            wall_seconds=self.engine.now,
            events_run=self.engine.events_run,
            hit_fraction=c.hit_fraction,
            disk_busy_s=self.disk.busy_seconds,
        )


def simulate(
    traces: Sequence[TraceArray],
    config: SimConfig | None = None,
    *,
    max_events: int | None = None,
    obs=None,
) -> SimulationResult:
    """One-shot: build and run a :class:`SimulatedSystem`."""
    return SimulatedSystem(traces, config, obs=obs).run(max_events=max_events)
