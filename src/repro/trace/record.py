"""In-memory trace records.

A :class:`TraceRecord` is one I/O event with *absolute* semantics: the
start time is an absolute wall-clock tick, the completion time is a
duration, and the process time is the CPU-time delta since the process's
previous I/O started (exactly the value the trace format stores).  The
encoder (:mod:`repro.trace.encode`) turns sequences of these into the
paper's delta-compressed ASCII lines and the decoder reverses it.

Comment records (``recordType == 0xff``) are represented by
:class:`CommentRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

from repro.trace import flags as F


class _TraceRecordFields(NamedTuple):
    record_type: int
    offset: int
    length: int
    start_time: int
    duration: int
    operation_id: int
    file_id: int
    process_id: int
    process_time: int


class TraceRecord(_TraceRecordFields):
    """One I/O event.

    Attributes mirror ``struct traceRecord`` in the paper's appendix, with
    times held absolutely where the on-disk format holds deltas:

    * ``start_time`` -- absolute wall-clock time of the I/O start, in
      10 us ticks.
    * ``duration`` -- ticks from I/O start until completion was reported
      to the process (the format's ``completionTime`` delta).
    * ``process_time`` -- process CPU ticks elapsed since this process's
      previous I/O started (the format stores this directly).
    * ``offset``/``length`` -- byte offset into the file and request
      length for logical records; 512-byte block address and block count
      times 512 for physical records (the decoder normalizes blocks to
      bytes).

    A named tuple: immutable, hashed and compared by value (it equals
    the plain tuple of its fields), iterable in field order.  Every way
    to build one -- the constructor, :meth:`make`, :meth:`replaced`,
    ``_make``, ``_replace``, unpickling -- checks its fields.  Bulk
    producers check columns instead:
    :func:`~repro.trace.reconstruct.reconstruct_records` returns its
    records as the rows of one checked table
    (:class:`~repro.trace.array.RecordRows`), which builds a record with
    ``tuple.__new__`` only when one is read.
    """

    __slots__ = ()

    def __new__(
        cls,
        record_type: int,
        offset: int,
        length: int,
        start_time: int,
        duration: int,
        operation_id: int,
        file_id: int,
        process_id: int,
        process_time: int,
    ) -> "TraceRecord":
        if record_type == F.TRACE_COMMENT:
            raise ValueError("use CommentRecord for comment records")
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        if length < 0:
            raise ValueError(f"negative length {length}")
        if duration < 0:
            raise ValueError(f"negative duration {duration}")
        if process_time < 0:
            raise ValueError(f"negative process_time {process_time}")
        return tuple.__new__(
            cls,
            (
                record_type, offset, length, start_time, duration,
                operation_id, file_id, process_id, process_time,
            ),
        )

    # The named tuple's own _make (and _replace, which calls it), and
    # unpickling at protocols 0 and 1, would skip the checks.
    @classmethod
    def _make(cls, iterable) -> "TraceRecord":
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)

    # -- structured views of record_type ---------------------------------
    @property
    def is_write(self) -> bool:
        return F.is_write(self.record_type)

    @property
    def is_read(self) -> bool:
        return not F.is_write(self.record_type)

    @property
    def is_logical(self) -> bool:
        return F.is_logical(self.record_type)

    @property
    def is_async(self) -> bool:
        return F.is_async(self.record_type)

    @property
    def data_kind(self) -> F.DataKind:
        return F.data_kind(self.record_type)

    @property
    def end_offset(self) -> int:
        """First byte past this access (``offset + length``)."""
        return self.offset + self.length

    @property
    def completion_time(self) -> int:
        """Absolute wall-clock tick at which completion was reported."""
        return self.start_time + self.duration

    def replaced(self, **changes) -> "TraceRecord":
        """A copy with some fields replaced."""
        return self._replace(**changes)

    @classmethod
    def make(
        cls,
        *,
        write: bool,
        offset: int,
        length: int,
        start_time: int,
        duration: int = 0,
        operation_id: int = 0,
        file_id: int = 0,
        process_id: int = 0,
        process_time: int = 0,
        logical: bool = True,
        asynchronous: bool = False,
        kind: F.DataKind = F.DataKind.FILE_DATA,
    ) -> "TraceRecord":
        """Convenience constructor composing ``record_type`` from keywords."""
        return cls(
            record_type=F.make_record_type(
                write=write, logical=logical, asynchronous=asynchronous, kind=kind
            ),
            offset=offset,
            length=length,
            start_time=start_time,
            duration=duration,
            operation_id=operation_id,
            file_id=file_id,
            process_id=process_id,
            process_time=process_time,
        )


@dataclass(frozen=True, slots=True)
class CommentRecord:
    """A human-readable comment embedded in a trace.

    The paper used comment records to record the correspondence between
    file ids and file names and to identify each trace.  Comments carry no
    timing information and are ignored by simulations.
    """

    text: str

    @property
    def record_type(self) -> int:
        return F.TRACE_COMMENT


AnyRecord = Union[TraceRecord, CommentRecord]


def file_name_comment(file_id: int, name: str) -> CommentRecord:
    """The conventional comment mapping a file id to a path."""
    return CommentRecord(f"file {file_id} = {name}")
