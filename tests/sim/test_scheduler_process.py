"""Round-robin scheduler and trace-replay processes."""

import gc
import weakref

import numpy as np
import pytest

from repro.sim.config import SimConfig, ssd_cache
from repro.sim.procmodel import relabel_copies
from repro.sim.system import SimulatedSystem, simulate
from repro.trace import flags as F
from repro.trace.array import TraceArray
from repro.util.errors import SimulationError
from repro.util.units import KB, MB, seconds_to_ticks
from repro.workloads.base import generate_workload


def make_trace(
    n_ios=10,
    *,
    compute_ticks=1000,
    length=32 * KB,
    write=False,
    pid=1,
    asynchronous=False,
    fid=1,
):
    """A simple sequential single-process trace."""
    rt = F.make_record_type(write=write, logical=True, asynchronous=asynchronous)
    clock = np.cumsum(np.full(n_ios, compute_ticks))
    return TraceArray.from_columns(
        record_type=np.full(n_ios, rt),
        file_id=np.full(n_ios, fid),
        process_id=np.full(n_ios, pid),
        operation_id=np.arange(n_ios),
        offset=np.arange(n_ios) * length,
        length=np.full(n_ios, length),
        start_time=clock,  # wall ~ cpu for generation purposes
        duration=np.zeros(n_ios),
        process_clock=clock,
    )


class TestSingleProcess:
    def test_cpu_time_conserved(self):
        trace = make_trace(20, compute_ticks=5000)
        result = simulate([trace])
        p = result.processes[1]
        # 20 x 5000 ticks = 1.0 s of compute
        assert p.cpu_seconds == pytest.approx(1.0, abs=1e-6)
        assert p.n_ios == 20
        assert p.finished

    def test_sync_reads_block(self):
        trace = make_trace(5, write=False)
        result = simulate(
            [trace], SimConfig().with_cache(read_ahead=False, size_bytes=1 * MB)
        )
        p = result.processes[1]
        assert p.blocked_seconds > 0
        assert result.wall_seconds > p.cpu_seconds

    def test_write_behind_absorbs_writes(self):
        trace = make_trace(5, write=True)
        result = simulate([trace], SimConfig().with_cache(write_behind=True))
        p = result.processes[1]
        assert p.blocked_seconds == 0.0
        assert result.utilization > 0.99

    def test_write_through_blocks(self):
        trace = make_trace(5, write=True)
        result = simulate([trace], SimConfig().with_cache(write_behind=False))
        assert result.processes[1].blocked_seconds > 0

    def test_async_never_blocks(self):
        trace = make_trace(5, write=False, asynchronous=True)
        result = simulate(
            [trace], SimConfig().with_cache(read_ahead=False)
        )
        assert result.processes[1].blocked_seconds == 0.0

    def test_wall_covers_flush_drain(self):
        trace = make_trace(3, write=True)
        result = simulate([trace], SimConfig().with_cache(write_behind=True))
        # the flush tail extends past process completion
        assert result.wall_seconds >= result.completion_seconds
        assert result.disk_write_rate.total == pytest.approx(
            3 * 32 * KB / MB, rel=1e-6
        )

    def test_empty_trace_rejected_gracefully(self):
        with pytest.raises(SimulationError):
            simulate([])


class TestMultiProcess:
    def test_two_processes_share_cpu(self):
        t1 = make_trace(10, pid=1, fid=1)
        t2 = make_trace(10, pid=2, fid=2)
        result = simulate([t1, t2], SimConfig().with_cache(read_ahead=False))
        assert result.processes[1].finished
        assert result.processes[2].finished
        total_cpu = sum(p.cpu_seconds for p in result.processes.values())
        assert result.busy_seconds == pytest.approx(total_cpu, abs=1e-9)

    def test_overlap_reduces_idle(self):
        # One I/O-bound process leaves idle gaps a second can fill.
        t1 = make_trace(20, pid=1, fid=1, compute_ticks=100)
        solo = simulate([t1], SimConfig().with_cache(read_ahead=False))
        t2 = make_trace(20, pid=2, fid=2, compute_ticks=100)
        both = simulate(
            [make_trace(20, pid=1, fid=1, compute_ticks=100), t2],
            SimConfig().with_cache(read_ahead=False),
        )
        assert both.utilization > solo.utilization

    def test_duplicate_pids_rejected(self):
        t1 = make_trace(3, pid=1)
        t2 = make_trace(3, pid=1)
        with pytest.raises(SimulationError):
            SimulatedSystem([t1, t2])

    def test_quantum_preemption(self):
        # A single long compute block against a tiny quantum: many
        # preemptions, same total CPU.
        trace = make_trace(2, compute_ticks=seconds_to_ticks(1.0))
        config = SimConfig().with_scheduler(quantum_s=0.01)
        system = SimulatedSystem([trace], config)
        result = system.run()
        assert system.scheduler.preemptions >= 90
        assert result.processes[1].cpu_seconds == pytest.approx(2.0, abs=1e-6)

    def test_switch_overhead_accounted(self):
        t1 = make_trace(10, pid=1, fid=1)
        t2 = make_trace(10, pid=2, fid=2)
        config = SimConfig().with_scheduler(switch_overhead_s=1e-3)
        result = simulate([t1, t2], config)
        assert result.switch_seconds > 0
        assert result.accounted_busy_seconds > result.busy_seconds


#: Two venus copies cut by a crash with events still on the calendar.
CRASH_CONFIG = SimConfig().with_cache(size_bytes=16 * MB).with_faults(crash_at_s=1.0)


class TestLifetime:
    """A finished simulation is freed by reference counting alone.

    The scheduler remembers the last process on each CPU by id, not by
    reference: a process refers to its scheduler, and that cycle would
    keep every component of a finished point alive until the cyclic
    collector ran.  A crash drops the events left on the calendar, each
    of which holds a bound method of a component.
    """

    @pytest.mark.parametrize(
        "app, copies, config",
        [
            ("venus", 2, SimConfig().with_cache(size_bytes=16 * MB)),
            ("les", 1, SimConfig(cache=ssd_cache(256 * MB))),
            ("bvi", 1, SimConfig(cache=ssd_cache(256 * MB))),
            ("venus", 2, CRASH_CONFIG),
        ],
        ids=["2x-venus-memory", "les-ssd", "bvi-ssd", "2x-venus-crash"],
    )
    def test_finished_system_freed_without_the_collector(self, app, copies, config):
        trace = generate_workload(app, scale=0.02, seed=1).trace
        traces = relabel_copies(trace, copies)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            system = SimulatedSystem(traces, config)
            system.run()
            names = ("engine", "cache", "scheduler", "metrics", "disk", "device")
            components = {name: getattr(system, name) for name in names}
            components.update(
                (f"process {p.process_id}", p) for p in system.processes
            )
            refs = {name: weakref.ref(obj) for name, obj in components.items()}
            del system, components
            alive = sorted(name for name, ref in refs.items() if ref() is not None)
        finally:
            if enabled:
                gc.enable()
        assert alive == []

    def test_the_crash_case_stops_mid_run(self):
        trace = generate_workload("venus", scale=0.02, seed=1).trace
        system = SimulatedSystem(relabel_copies(trace, 2), CRASH_CONFIG)
        result = system.run()
        assert result.faults.crashed and result.wall_seconds == 1.0
        assert not all(p.finished for p in system.processes)
        assert system.engine.pending == 0


class TestHelpers:
    def test_relabel_copies(self):
        trace = make_trace(5, pid=7)
        copies = relabel_copies(trace, 3)
        assert [int(c.process_id[0]) for c in copies] == [1, 2, 3]
        fids = {int(c.file_id[0]) for c in copies}
        assert len(fids) == 3  # disjoint file spaces

    def test_relabel_rejects_multiprocess(self):
        t = TraceArray.concatenate([make_trace(2, pid=1), make_trace(2, pid=2)])
        with pytest.raises(SimulationError):
            relabel_copies(t, 2)

    def test_trace_process_rejects_multiprocess(self):
        t = TraceArray.concatenate([make_trace(2, pid=1), make_trace(2, pid=2)])
        with pytest.raises(SimulationError):
            simulate([t])
