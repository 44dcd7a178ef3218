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

Allocation discipline
---------------------
The calendar runs millions of events per simulation, so the per-event
cost is kept to one preallocated tuple: callbacks take their arguments
through ``schedule(delay, fn, *args)`` instead of capturing them in a
closure (callers previously allocated a fresh lambda per event, which
dominated the scheduler's profile).  The heap entry is ``(when, seq,
fn, args)``; ``seq`` is unique, so ``fn``/``args`` never take part in
heap comparisons.  ``run`` pops each event once; one that lies beyond
``until`` is pushed back as it was, keeping its ``(when, seq)`` slot.
Observation is bound at wiring time: with a disabled registry the
calendar makes no instrument call at all.

Fast-forward
------------
Every event is counted and runs in time order, but not every event
passes through the heap.  A callback about to schedule its own
continuation as its last act may ask ``take(when)`` instead: when
``run`` would pop that event next anyway -- it lies strictly before
every pending event, not beyond the running ``until``, and the
``max_events`` budget is not spent -- ``take`` moves the clock and
counts the event exactly as a pop would, and the caller runs the
continuation in its own frame.  A process alone on its CPU thus runs
slice after slice without a heap round trip.  A taken event consumes no
sequence number; sequence numbers only break ties between pending
events, and a tie is never taken, so the order of every event is the
one the heap would give.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from repro.obs.registry import get_registry
from repro.util.errors import SimulationError


class Engine:
    """Event calendar and simulated clock."""

    def __init__(self, *, obs=None) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = 0
        self._events_run = 0
        # The running ``run``'s horizon and event budget; outside ``run``
        # ``take`` refuses every time.
        self._until = -math.inf
        self._budget = 0.0
        reg = obs if obs is not None else get_registry()
        self._observed = reg.enabled
        self._c_events = reg.counter("sim.engine.events_run")
        self._c_advanced = reg.counter("sim.engine.time_advanced_s")
        self._g_heap = reg.gauge("sim.engine.heap_depth")

    def schedule_at(self, when: float, fn: Callable[..., None], *args) -> None:
        """Run ``fn(*args)`` at absolute time ``when`` (>= now)."""
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

    def take(self, when: float) -> bool:
        """Claim the event due at ``when`` for the caller to run itself.

        For a callback whose last act would be ``schedule_at(when, ...)``:
        True when ``run`` would pop that event next -- ``when`` lies
        strictly before every pending event (a tie goes to the heap,
        whose entry is older), not beyond the running ``until``, and the
        ``max_events`` budget is not spent; outside ``run`` it is False.
        The clock then moves to ``when`` and the event is counted,
        exactly as a pop would; the caller runs the continuation at once
        and schedules nothing.  On False nothing changed and the caller
        schedules as usual.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot take event at {when} before now={self.now}"
            )
        heap = self._heap
        if (
            when > self._until
            or self._events_run >= self._budget
            or (heap and heap[0][0] <= when)
        ):
            return False
        self.now = when
        self._events_run += 1
        if self._observed:
            # Pending for this instant, as a scheduled event would be.
            self._g_heap.set_max(len(heap) + 1)
        return True

    @property
    def pending(self) -> int:
        return len(self._heap)

    def drop_pending(self) -> None:
        """Discard every pending event unrun, as a crashed machine does.

        Each heap entry holds a bound method of a component that refers
        back to this engine, so a calendar left with events keeps the
        whole simulation alive until the cyclic collector runs.
        """
        self._heap.clear()

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
        limit = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        self._until = limit
        self._budget = budget
        try:
            while heap:
                if self._events_run >= budget:
                    raise SimulationError(
                        f"event budget exhausted after {self._events_run} events"
                    )
                item = heappop(heap)
                when, _, fn, args = item
                if when > limit:
                    heapq.heappush(heap, item)
                    break
                if when < self.now:
                    raise SimulationError("event queue went backwards")
                self.now = when
                self._events_run += 1
                fn(*args)
            if until is not None and advance_clock and self.now < until:
                self.now = until
        finally:
            self._until = -math.inf
            if self._observed:
                self._c_events.inc(self._events_run - e0)
                self._c_advanced.add(self.now - t0)
