"""Nominal device latency models for trace *generation*.

While a traced application runs, its synchronous I/O calls stall for
however long the real I/O system takes.  When generating synthetic traces
we need a nominal stall model so the recorded ``completionTime`` values
and wall-clock gaps are plausible.  These models are intentionally simple
and are **not** the buffering simulator's device models
(:mod:`repro.sim.devices`) -- the simulator recomputes service times from
the trace's offsets and sizes under its own configuration.

Two profiles match the paper's hardware:

* ``DISK_PROFILE`` -- a Cray DD-49-class disk: milliseconds of seek and
  rotation plus 9.6 MB/s transfer.
* ``SSD_PROFILE`` -- the Y-MP SSD: "approximately 1 us per kilobyte
  transferred (at 1 GB/sec), with some additional overhead to set up the
  transfer"; I/Os complete "without suspending the process".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.units import MB, seconds_to_ticks


@dataclass(frozen=True)
class DeviceLatencyModel:
    """Fixed overhead plus linear transfer time.

    ``overhead_ticks`` covers the operating-system and device setup cost;
    ``bandwidth_bytes_per_sec`` is the streaming rate.  ``suspends`` says
    whether a synchronous request puts the process to sleep (disk) or
    completes in-line (SSD).
    """

    name: str
    overhead_ticks: int
    bandwidth_bytes_per_sec: float
    suspends: bool = True

    def service_ticks(self, nbytes: int) -> int:
        """Ticks from request issue until completion for ``nbytes``."""
        if nbytes < 0:
            raise ValueError("nbytes must be nonnegative")
        transfer = seconds_to_ticks(nbytes / self.bandwidth_bytes_per_sec)
        return self.overhead_ticks + transfer


#: A Cray Y-MP disk: ~15 ms average positioning ("might take as long as
#: 15 ms (the Cray Y-MP disks seek relatively slowly)") at 9.6 MB/s.
DISK_PROFILE = DeviceLatencyModel(
    name="disk",
    overhead_ticks=seconds_to_ticks(15e-3),
    bandwidth_bytes_per_sec=9.6 * MB,
    suspends=True,
)

#: The Y-MP SSD: zero seek, 1 GB/s, small setup cost, non-suspending.
SSD_PROFILE = DeviceLatencyModel(
    name="ssd",
    overhead_ticks=5,  # 50 us of setup + system-call path
    bandwidth_bytes_per_sec=1024 * MB,
    suspends=False,
)
