"""Regression tests for the engine's clock contract.

``run(until=t)`` used to leave ``now`` stuck at the last executed event,
so delays scheduled between bounded runs were silently measured from the
wrong origin.  A bounded run also pops the first event beyond ``until``
and pushes it back: it must keep its place among later schedules.
Event times are plain floats, so chained ``now + delay`` drifts off the
trace's 10 microsecond tick base.  ``take`` runs a continuation off the
heap only when ``run`` would pop it next, counted as a pop would.
"""

import pytest

from repro.obs import MetricsRegistry
from repro.sim.events import Engine
from repro.util.errors import SimulationError
from repro.util.units import TICK_SECONDS


def drive_chain(engine, n, delay=TICK_SECONDS):
    """Run a self-rearming event ``n`` times; return the final clock."""
    count = [0]

    def rearm():
        count[0] += 1
        if count[0] < n:
            engine.schedule(delay, rearm)

    engine.schedule(delay, rearm)
    engine.run()
    assert count[0] == n
    return engine.now


class TestUntilClockContract:
    def test_until_advances_clock_past_last_event(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.run(until=2.0)
        assert engine.now == 2.0

    def test_until_advances_clock_on_empty_calendar(self):
        engine = Engine()
        engine.run(until=3.0)
        assert engine.now == 3.0

    def test_until_with_pending_future_event(self):
        engine = Engine()
        engine.schedule(5.0, lambda: None)
        engine.run(until=2.0)
        assert engine.now == 2.0
        assert engine.pending == 1

    def test_delays_between_bounded_runs_measure_from_until(self):
        # The original bug: after run(until=2.0) the clock sat at the
        # last event (0.5), so a subsequent schedule(1.0, ...) fired at
        # 1.5 instead of 3.0.
        engine = Engine()
        log = []
        engine.schedule(0.5, lambda: log.append(engine.now))
        engine.run(until=2.0)
        engine.schedule(1.0, lambda: log.append(engine.now))
        engine.run()
        assert log == [0.5, 3.0]

    def test_event_beyond_until_keeps_its_slot(self):
        # Each bounded run pops the old 5.0 event and pushes it back; it
        # still runs before a 5.0 event scheduled after it, even when
        # the push-back comes later than that schedule (until=4.0).
        engine = Engine()
        log = []
        engine.schedule(5.0, lambda: log.append("old 5.0"))
        engine.run(until=2.0)
        assert engine.pending == 1
        engine.schedule_at(5.0, lambda: log.append("new 5.0"))
        engine.schedule_at(3.0, lambda: log.append("3.0"))
        engine.run(until=4.0)
        assert log == ["3.0"] and engine.pending == 2
        engine.run()
        assert log == ["3.0", "old 5.0", "new 5.0"]
        assert engine.now == 5.0

    def test_event_at_exact_until_boundary_runs(self):
        engine = Engine()
        log = []
        engine.schedule(2.0, lambda: log.append(engine.now))
        engine.run(until=2.0)
        assert log == [2.0]
        assert engine.now == 2.0


class TestTickSnapping:
    """Event times are exact floats: no grid, no rounding."""

    def test_accumulation_drifts_without_snapping(self):
        # Chained float delays drift: 100k chained 10us delays land
        # short of the exact product 100_000 * TICK_SECONDS (which is
        # exactly 1.0).
        final = drive_chain(Engine(), 100_000)
        assert final != 1.0
        assert abs(final - 1.0) < 1e-9  # drift, not a gross error

    def test_unsnapped_default_behavior_unchanged(self):
        engine = Engine()
        log = []
        engine.schedule(0.123456789, lambda: log.append(engine.now))
        engine.run()
        assert log == [0.123456789]


def chain(engine, n, delay, *, fast, log):
    """Schedule an ``n``-step chain; with ``fast`` each step takes the next."""

    def step(k):
        log.append((k, engine.now))
        if k + 1 < n:
            when = engine.now + delay
            if fast and engine.take(when):
                step(k + 1)
            else:
                engine.schedule_at(when, step, k + 1)

    engine.schedule(delay, step, 0)


class TestTake:
    """``take(when)``: run a tail-position continuation in the caller's
    frame, but only when ``run`` would pop that event next."""

    def test_taken_events_are_counted_in_order(self):
        runs = {}
        for fast in (False, True):
            engine, log = Engine(), []
            chain(engine, 6, 0.25, fast=fast, log=log)
            engine.schedule_at(0.6, log.append, "other")
            engine.run()
            runs[fast] = (log, engine.events_run, engine.now)
        assert runs[True] == runs[False]
        assert runs[True][1] == 7

    def test_refuses_a_tie_with_a_pending_event(self):
        engine, got = Engine(), []
        engine.schedule_at(1.0, got.append, "pending 1.0")
        engine.schedule_at(0.5, lambda: got.append(engine.take(1.0)))
        engine.run()
        assert got == [False, "pending 1.0"]

    def test_takes_just_before_a_pending_event(self):
        engine, got = Engine(), []
        engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(0.5, lambda: got.append(engine.take(0.75)))
        engine.run()
        assert got == [True] and engine.events_run == 3

    def test_refuses_past_until_and_keeps_the_clock_contract(self):
        engine, got = Engine(), []
        engine.schedule_at(0.5, lambda: got.append(engine.take(2.5)))
        engine.run(until=2.0)
        assert got == [False]
        assert engine.now == 2.0 and engine.events_run == 1

    def test_takes_at_exactly_until(self):
        engine, got = Engine(), []
        engine.schedule_at(0.5, lambda: got.append(engine.take(2.0)))
        engine.run(until=2.0)
        assert got == [True]
        assert engine.now == 2.0 and engine.events_run == 2

    def test_refuses_outside_run(self):
        engine = Engine()
        assert not engine.take(0.0)
        engine.run(until=1.0)
        assert not engine.take(1.0)
        assert engine.events_run == 0 and engine.now == 1.0

    def test_refuses_a_time_before_now(self):
        engine, errors = Engine(), []

        def late():
            try:
                engine.take(0.25)
            except SimulationError as exc:
                errors.append(str(exc))

        engine.schedule_at(0.5, late)
        engine.run()
        assert errors == ["cannot take event at 0.25 before now=0.5"]

    def test_budget_is_spent_the_same_way(self):
        errors = {}
        for fast in (False, True):
            engine, log = Engine(), []
            chain(engine, 10, 0.25, fast=fast, log=log)
            with pytest.raises(SimulationError) as exc:
                engine.run(max_events=4)
            errors[fast] = (str(exc.value), log, engine.events_run)
        assert errors[True] == errors[False]
        assert errors[True][0] == "event budget exhausted after 4 events"

    def test_enabled_registry_counts_taken_events(self):
        # The taken event is pending for its instant, on top of the two
        # others: the heap's peak depth is 3 either way.
        snaps = {}
        for fast in (False, True):
            reg = MetricsRegistry()
            engine = Engine(obs=reg)
            log = []

            def first():
                engine.schedule_at(5.0, log.append, 5.0)
                if fast and engine.take(1.0):
                    log.append(1.0)
                else:
                    engine.schedule_at(1.0, log.append, 1.0)

            engine.schedule_at(3.0, log.append, 3.0)
            engine.schedule_at(0.5, first)
            engine.run()
            snap = reg.snapshot()
            snaps[fast] = (
                log,
                snap["sim.engine.events_run"],
                snap["sim.engine.heap_depth"]["peak"],
            )
        assert snaps[True] == snaps[False] == ([1.0, 3.0, 5.0], 4, 3)
