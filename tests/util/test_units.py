"""Unit conversions: the 10 us tick base."""

import pytest

from repro.util import units


def test_tick_base_is_10_microseconds():
    assert units.TICKS_PER_SECOND == 100_000
    assert units.TICK_SECONDS == pytest.approx(1e-5)


def test_seconds_ticks_round_trip():
    assert units.seconds_to_ticks(1.0) == 100_000
    assert units.ticks_to_seconds(100_000) == pytest.approx(1.0)
    assert units.seconds_to_ticks(units.ticks_to_seconds(12345)) == 12345


def test_seconds_to_ticks_rounds_to_nearest():
    # 1.5 ticks of seconds rounds to 2 ticks
    assert units.seconds_to_ticks(1.5e-5) == 2
    assert units.seconds_to_ticks(1.4e-5) == 1


def test_trace_block_size_matches_header():
    assert units.TRACE_BLOCK_SIZE == 512
