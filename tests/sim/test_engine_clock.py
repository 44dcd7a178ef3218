"""Regression tests for the engine's clock contract.

``run(until=t)`` used to leave ``now`` stuck at the last executed event,
so delays scheduled between bounded runs were silently measured from the
wrong origin.  A bounded run also pops the first event beyond ``until``
and pushes it back: it must keep its place among later schedules.
Event times are plain floats, so chained ``now + delay`` drifts off the
trace's 10 microsecond tick base.
"""

from repro.sim.events import Engine
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
