"""Exception hierarchy for the reproduction."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class TraceFormatError(ReproError):
    """A trace file or record violates the trace format.

    Raised by the decoder when a line cannot be parsed, when a compression
    flag references state that does not exist (e.g. "same file as previous
    record" on the first record), or when field values are out of range.
    """

    def __init__(self, message: str, *, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class SimulationError(ReproError):
    """The buffering simulator reached an inconsistent state."""


class CalibrationError(ReproError):
    """A workload generator failed to meet its catalog targets."""


class SweepError(ReproError):
    """A parallel sweep failed.

    Wraps the first failing point's error with its label so callers see
    *which* configuration broke; the original exception is chained as
    ``__cause__``.
    """


class SweepCancelled(SweepError):
    """A sweep stopped because its ``should_cancel`` hook fired.

    Raised by :class:`~repro.exec.runner.SweepRunner` between points
    (serial) or between point completions (queue) once cancellation is
    requested; queued points are abandoned and the queue's worker
    processes terminated before this propagates.
    """


class RuntimeAPIError(ReproError):
    """Misuse of the simulated application runtime's file API.

    E.g. reading a closed file descriptor or waiting on an unknown
    asynchronous request.
    """
