"""Structural validation of decoded traces.

These checks codify the format's implicit invariants; the tests use them
as a property-test oracle over generated, reconstructed and decoded
traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.trace.array import TraceArray
from repro.util.errors import TraceFormatError


@dataclass
class ValidationReport:
    """Outcome of a validation pass."""

    n_records: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def raise_if_failed(self) -> None:
        if self.problems:
            shown = "; ".join(self.problems[:5])
            more = f" (+{len(self.problems) - 5} more)" if len(self.problems) > 5 else ""
            raise TraceFormatError(f"trace validation failed: {shown}{more}")


def validate_array(trace: TraceArray) -> ValidationReport:
    """Check ordering and range invariants over a columnar trace.

    Invariants:

    * wall-clock start times are nondecreasing;
    * per-process CPU clocks never decrease and never run ahead of wall
      time elapsed since the process's first record (a process cannot
      accumulate more CPU than wall time on one CPU);
    * lengths are positive, offsets nonnegative, durations nonnegative.
    """
    report = ValidationReport(n_records=len(trace))
    if len(trace) == 0:
        return report
    if np.any(trace.length <= 0):
        n = int((trace.length <= 0).sum())
        report.problems.append(f"{n} record(s) with non-positive length")
    if np.any(trace.offset < 0):
        report.problems.append("negative offsets present")
    if np.any(trace.duration < 0):
        report.problems.append("negative durations present")
    if np.any(np.diff(trace.start_time) < 0):
        report.problems.append("start times are not nondecreasing")
    for pid in trace.process_ids():
        mask = trace.process_id == pid
        clock = trace.process_clock[mask]
        if np.any(np.diff(clock) < 0):
            report.problems.append(f"process {pid}: CPU clock decreases")
            continue
        wall = trace.start_time[mask]
        elapsed = wall - wall[0]
        # clock[0] is the CPU burned before the first traced I/O (the
        # allowed slack), so compare growth beyond it against wall time.
        overrun = clock - clock[0] > elapsed
        if np.any(overrun):
            report.problems.append(
                f"process {pid}: CPU clock runs ahead of wall clock at "
                f"{int(overrun.sum())} record(s)"
            )
    return report
