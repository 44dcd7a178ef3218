"""Discrete-event engine.

A minimal calendar: callbacks scheduled at absolute times, executed in
nondecreasing time order with FIFO tie-breaking (a monotonically
increasing sequence number).  Everything in the simulator -- quantum
expiry, disk completion, flusher progress -- is one of these events.

Clock contract
--------------
``run(until=t)`` always leaves ``now == t`` (unless an event callback
raised), even when the calendar drained early or the next event lies
beyond ``t``.  Callers that interleave ``run(until=...)`` with
``schedule(delay, ...)`` therefore compute delays from a fresh clock; an
earlier version left ``now`` stuck at the last executed event, silently
shifting every subsequently scheduled event backwards.

Event times are floats.  Chains of ``schedule(self.now + delay)``
accumulate floating-point error relative to the trace's 10 microsecond
integer tick base -- after millions of events the accumulated time can
drift past an exact ``until`` boundary and drop the event that should
land on it.  Passing ``tick_s`` snaps every scheduled time to the
nearest multiple of the tick, which resets the error at every event
instead of letting it accumulate.  Grid multiples are fixed points of
the snap, so times never move backwards.  ``run(until=t)`` can leave the
clock between grid points, where the nearest point may lie behind it; a
time that would snap there runs at ``now`` instead.

Allocation discipline
---------------------
The calendar runs millions of events per simulation, so the per-event
cost is kept to one preallocated tuple: callbacks take their arguments
through ``schedule(delay, fn, *args)`` instead of capturing them in a
closure (callers previously allocated a fresh lambda per event, which
dominated the scheduler's profile).  The heap entry is ``(when, seq,
fn, args)``; ``seq`` is unique, so ``fn``/``args`` never take part in
heap comparisons.  Observation is bound at wiring time: with a disabled
registry the calendar makes no instrument call at all.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.obs.registry import get_registry
from repro.util.errors import SimulationError


class Engine:
    """Event calendar and simulated clock."""

    def __init__(self, *, tick_s: float | None = None, obs=None) -> None:
        if tick_s is not None and tick_s <= 0:
            raise SimulationError(f"tick_s must be positive, got {tick_s}")
        self.now: float = 0.0
        self.tick_s = tick_s
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = 0
        self._events_run = 0
        reg = obs if obs is not None else get_registry()
        self._observed = reg.enabled
        self._c_events = reg.counter("sim.engine.events_run")
        self._c_advanced = reg.counter("sim.engine.time_advanced_s")
        self._g_heap = reg.gauge("sim.engine.heap_depth")

    def schedule_at(self, when: float, fn: Callable[..., None], *args) -> None:
        """Run ``fn(*args)`` at absolute time ``when`` (>= now)."""
        if self.tick_s is not None:
            snapped = round(when / self.tick_s) * self.tick_s
            # An off-grid clock (after ``run(until=)``) may have its
            # nearest grid point behind it.
            when = self.now if snapped < self.now <= when else snapped
        if when < self.now:
            raise SimulationError(
                f"cannot schedule event at {when} before now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (when, seq, fn, args))
        if self._observed:
            self._g_heap.set_max(len(self._heap))

    def schedule(self, delay: float, fn: Callable[..., None], *args) -> None:
        """Run ``fn(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.schedule_at(self.now + delay, fn, *args)

    @property
    def pending(self) -> int:
        return len(self._heap)

    @property
    def events_run(self) -> int:
        return self._events_run

    def run(
        self,
        *,
        max_events: int | None = None,
        until: float | None = None,
        advance_clock: bool = True,
    ) -> None:
        """Drain the calendar.

        Stops when empty, after ``max_events`` (a runaway guard), or when
        the next event lies beyond ``until``.  On a normal return with
        ``until`` given, the clock is advanced to ``until`` even if no
        event landed there (see the module docstring's clock contract).
        ``advance_clock=False`` suppresses that final jump: segmented
        callers (the crash/degrade cuts in ``SimulatedSystem.run``) probe
        whether the simulation drained *before* the cut without moving
        ``now`` past the last real event.
        """
        t0 = self.now
        e0 = self._events_run
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap:
                if max_events is not None and self._events_run >= max_events:
                    raise SimulationError(
                        f"event budget exhausted after {self._events_run} events"
                    )
                item = heap[0]
                when = item[0]
                if until is not None and when > until:
                    break
                heappop(heap)
                if when < self.now:
                    raise SimulationError("event queue went backwards")
                self.now = when
                self._events_run += 1
                item[2](*item[3])
            if until is not None and advance_clock and self.now < until:
                self.now = until
        finally:
            if self._observed:
                self._c_events.inc(self._events_run - e0)
                self._c_advanced.add(self.now - t0)
