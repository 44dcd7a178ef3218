"""Round-robin CPU scheduler (section 6.1).

"The simulator uses a simple round-robin scheduler with a quantum that
can be specified each time it is run."

A FIFO ready queue feeding ``n_cpus`` identical processors (the paper's
simulator models one CPU; the Y-MP had eight, and section 2.2's "n+1
jobs resident in main memory will keep n processors busy" rule is an
experiment in :mod:`repro.sim.experiments`, so the scheduler generalizes
to n).  A running process either exhausts its compute demand (and asks
to issue its next I/O) or is preempted at quantum expiry.  Context
switches cost ``switch_overhead_s``; I/O completions cost
``interrupt_service_s`` of CPU.  Idle time is whatever processor-time is
left uncovered -- exactly the quantity Figure 8 plots.
"""

from __future__ import annotations

from collections import deque
from typing import Protocol

from repro.obs.registry import get_registry
from repro.sim.config import SchedulerConfig
from repro.sim.events import Engine
from repro.sim.metrics import Metrics, ProcessStats
from repro.util.errors import SimulationError


class Runnable(Protocol):
    """What the scheduler needs from a process."""

    process_id: int
    #: the process's entry in the run's :class:`Metrics`; CPU time is
    #: charged to it on every slice
    stats: ProcessStats

    def compute_remaining(self) -> float:
        """Seconds of CPU wanted before the next I/O (0 = issue now)."""
        ...

    def consume_compute(self, seconds: float) -> None:
        ...

    def on_cpu_available(self) -> bool:
        """Called when compute is exhausted; the process issues I/Os.

        Returns True if the process wants more CPU (stays ready), False
        if it blocked or finished.
        """
        ...


class RoundRobinScheduler:
    """Round-robin dispatch over ``n_cpus`` identical processors."""

    def __init__(
        self,
        engine: Engine,
        config: SchedulerConfig,
        metrics: Metrics,
        *,
        n_cpus: int = 1,
        obs=None,
    ):
        if n_cpus < 1:
            raise SimulationError("need at least one CPU")
        self.engine = engine
        self.config = config
        self.metrics = metrics
        self.n_cpus = n_cpus
        reg = obs if obs is not None else get_registry()
        self._observed = reg.enabled
        self._c_dispatches = reg.counter("sim.sched.dispatches")
        self._c_expiries = reg.counter("sim.sched.quantum_expiries")
        self._c_switches = reg.counter("sim.sched.context_switches")
        self._c_unblocks = reg.counter("sim.sched.io_unblocks")
        self._g_ready = reg.gauge("sim.sched.ready_depth")
        self._ready: deque[Runnable] = deque()
        self._running: dict[int, Runnable] = {}  # cpu index -> process
        self._free_cpus: list[int] = list(range(n_cpus))
        # The id of the process that ran last on each CPU, not the
        # process: a process refers to its scheduler, and an id keeps a
        # finished simulation free of that reference cycle.  Process ids
        # are unique within a system.
        self._last_on_cpu: list[int | None] = [None] * n_cpus
        self._blocked: set[int] = set()
        self.dispatches = 0
        self.preemptions = 0

    # -- process lifecycle -------------------------------------------------
    def add(self, proc: Runnable) -> None:
        """Admit a process (initially ready)."""
        self._ready.append(proc)
        self._maybe_dispatch()

    def unblock(self, proc: Runnable) -> None:
        """I/O completed: charge interrupt service and make ready."""
        if proc.process_id not in self._blocked:
            raise SimulationError(
                f"process {proc.process_id} was not blocked"
            )
        self._blocked.discard(proc.process_id)
        if self._observed:
            self._c_unblocks.inc()
        self.metrics.interrupt_seconds += self.config.interrupt_service_s
        self.metrics.record_busy_point(
            self.engine.now, self.config.interrupt_service_s
        )
        self._ready.append(proc)
        self._maybe_dispatch()

    # -- dispatch loop ---------------------------------------------------
    def _maybe_dispatch(self) -> None:
        observed = self._observed
        if observed:
            self._g_ready.set_max(len(self._ready))
        while self._free_cpus and self._ready:
            cpu = self._free_cpus.pop()
            proc = self._ready.popleft()
            self._running[cpu] = proc
            self.dispatches += 1
            if observed:
                self._c_dispatches.inc()
            pid = proc.process_id
            switch = (
                self.config.switch_overhead_s
                if self._last_on_cpu[cpu] != pid
                else 0.0
            )
            self._last_on_cpu[cpu] = pid
            if switch:
                if observed:
                    self._c_switches.inc()
                self.metrics.switch_seconds += switch
                self.metrics.record_busy_point(self.engine.now, switch)
            self.engine.schedule(switch, self._run_slice, proc, cpu)

    def _run_slice(self, proc: Runnable, cpu: int) -> None:
        slice_s = self._start_slice(proc, cpu)
        if slice_s is not None:
            self._slice_done(proc, cpu, slice_s)

    def _start_slice(self, proc: Runnable, cpu: int) -> float | None:
        """The length of ``proc``'s next slice if it ends now or its end
        was taken (the caller runs ``_slice_done`` at once); None once
        the end is scheduled."""
        remaining = proc.compute_remaining()
        quantum = self.config.quantum_s
        slice_s = remaining if remaining < quantum else quantum
        if slice_s > 0:
            engine = self.engine
            when = engine.now + slice_s
            if not engine.take(when):
                engine.schedule_at(when, self._slice_done, proc, cpu, slice_s)
                return None
        return slice_s

    def _slice_done(self, proc: Runnable, cpu: int, slice_s: float) -> None:
        # One pass per slice: while the calendar lets this process's next
        # dispatch and slice end be taken (``Engine.take``), they run in
        # this loop; the first one refused is scheduled instead.
        engine = self.engine
        metrics = self.metrics
        while True:
            if slice_s > 0:
                proc.consume_compute(slice_s)
                now = engine.now
                metrics.busy_seconds += slice_s
                metrics.record_busy(now - slice_s, now)
                proc.stats.cpu_seconds += slice_s
            if proc.compute_remaining() > 0:
                # Quantum expired mid-compute: rotate to the queue tail.
                self.preemptions += 1
                if self._observed:
                    self._c_expiries.inc()
                wants_more = True
            else:
                wants_more = proc.on_cpu_available()
            if not wants_more or self._ready:
                break
            # The only ready process keeps its CPU.  This is what release,
            # append and ``_maybe_dispatch`` do here: the free-CPU stack
            # pops the CPU just released, and no switch is charged since
            # this process ran on it last.
            self.dispatches += 1
            if self._observed:
                self._g_ready.set_max(1)
                self._c_dispatches.inc()
            now = engine.now
            if not engine.take(now):
                engine.schedule_at(now, self._run_slice, proc, cpu)
                return
            # The dispatch, taken: ``_run_slice`` without the recursion.
            slice_s = self._start_slice(proc, cpu)
            if slice_s is None:
                return
        self._release(cpu)
        if wants_more:
            self._ready.append(proc)
        self._maybe_dispatch()

    def _release(self, cpu: int) -> None:
        del self._running[cpu]
        self._free_cpus.append(cpu)

    # -- used by processes --------------------------------------------------
    def mark_blocked(self, proc: Runnable) -> None:
        """The running process blocked (called from on_cpu_available)."""
        self._blocked.add(proc.process_id)

    def mark_done(self, proc: Runnable) -> None:
        """The running process finished its trace."""
        proc.stats.finish_time = self.engine.now
