"""Regression tests for the engine's clock contract and tick snapping.

Two bugs are pinned here:

* ``run(until=t)`` used to leave ``now`` stuck at the last executed
  event, so delays scheduled between bounded runs were silently measured
  from the wrong origin;
* event times built by chained ``now + delay`` accumulate float error
  relative to the 10 microsecond tick base -- after 100k ticks the
  accumulated clock is off the grid by ~2e-12 s and misses exact
  boundaries.  ``tick_s`` snapping makes event times a pure function of
  the tick index.
"""

import pytest

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

    def test_event_at_exact_until_boundary_runs(self):
        engine = Engine()
        log = []
        engine.schedule(2.0, lambda: log.append(engine.now))
        engine.run(until=2.0)
        assert log == [2.0]
        assert engine.now == 2.0


class TestTickSnapping:
    def test_rejects_nonpositive_tick(self):
        with pytest.raises(SimulationError):
            Engine(tick_s=0.0)
        with pytest.raises(SimulationError):
            Engine(tick_s=-1e-5)

    def test_accumulation_drifts_without_snapping(self):
        # The bug being fixed, demonstrated: 100k chained 10us delays
        # land short of the exact product 100_000 * TICK_SECONDS (which
        # is exactly 1.0).
        final = drive_chain(Engine(), 100_000)
        assert final != 1.0
        assert abs(final - 1.0) < 1e-9  # drift, not a gross error

    def test_snapping_keeps_the_chain_on_the_grid(self):
        final = drive_chain(Engine(tick_s=TICK_SECONDS), 100_000)
        assert final == 1.0

    def test_snapped_chain_is_path_independent(self):
        # Time is a function of the tick index, not of how the chain
        # got there: every prefix length lands on k * tick exactly.
        for n in (1, 7, 1000):
            assert drive_chain(Engine(tick_s=TICK_SECONDS), n) == n * TICK_SECONDS

    def test_snapped_chain_hits_exact_until_boundary(self):
        # Without snapping the 100_000th tick lands at 0.999...98 and an
        # event nominally at t=1.0 never coincides with until=1.0.
        engine = Engine(tick_s=TICK_SECONDS)
        count = [0]

        def rearm():
            count[0] += 1
            engine.schedule(TICK_SECONDS, rearm)

        engine.schedule(TICK_SECONDS, rearm)
        engine.run(until=1.0)
        assert count[0] == 100_000
        assert engine.now == 1.0

    def test_snapping_rounds_to_nearest_tick(self):
        engine = Engine(tick_s=TICK_SECONDS)
        log = []
        engine.schedule_at(3.4 * TICK_SECONDS, lambda: log.append(engine.now))
        engine.schedule_at(3.6 * TICK_SECONDS, lambda: log.append(engine.now))
        engine.run()
        assert log == [3 * TICK_SECONDS, 4 * TICK_SECONDS]

    def test_snapping_never_moves_times_before_now(self):
        # A delay smaller than half a tick snaps back onto `now` itself
        # (a fixed point of the snap), which is legal, not "in the past".
        engine = Engine(tick_s=TICK_SECONDS)
        engine.schedule(TICK_SECONDS, lambda: engine.schedule(0.4 * TICK_SECONDS, lambda: None))
        engine.run()
        assert engine.now == TICK_SECONDS

    def test_off_grid_clock_never_snaps_before_now(self):
        # run(until=) leaves the clock between grid points; the grid point
        # nearest to `now` lies behind it, and an event there runs at now.
        engine = Engine(tick_s=TICK_SECONDS)
        engine.schedule(TICK_SECONDS, lambda: None)
        until = 1.49 * TICK_SECONDS
        engine.run(until=until)
        log = []
        engine.schedule(0.0, lambda: log.append(engine.now))
        engine.run()
        assert log == [until]

    def test_unsnapped_default_behavior_unchanged(self):
        # tick_s=None is the default: exact float times, no rounding.
        engine = Engine()
        log = []
        engine.schedule(0.123456789, lambda: log.append(engine.now))
        engine.run()
        assert log == [0.123456789]
