"""Units used throughout the reproduction.

The paper's trace format expresses all times in 10 microsecond ticks
(section 4.1: "this value was converted to 10 us units, as we believed this
was sufficient time resolution for I/O traces").  The Cray Y-MP is a
word-addressed machine with 8-byte words; memory and SSD sizes in the paper
are quoted in megawords (MW), e.g. the NASA system's 128 MW of main memory
and 256 MW SSD.
"""

from __future__ import annotations

#: Number of trace ticks per second.  One tick is 10 microseconds.
TICKS_PER_SECOND: int = 100_000

#: Duration of one trace tick in seconds.
TICK_SECONDS: float = 1.0 / TICKS_PER_SECOND

#: Binary kilobyte.  The paper uses KB = 1024 bytes for access sizes.
KB: int = 1024

#: Binary megabyte.
MB: int = 1024 * 1024

#: Block size the trace format's *_IN_BLOCKS compression flags use.
TRACE_BLOCK_SIZE: int = 512


def seconds_to_ticks(seconds: float) -> int:
    """Convert seconds to integer trace ticks (rounded to nearest tick)."""
    return int(round(seconds * TICKS_PER_SECOND))


def ticks_to_seconds(ticks: int) -> float:
    """Convert integer trace ticks to floating-point seconds."""
    return ticks * TICK_SECONDS
