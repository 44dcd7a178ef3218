"""Delta/omission compression encoder for the ASCII trace format.

The format (paper appendix) compresses records two ways:

1. **Time fields are always deltas**: ``startTime`` relative to the
   previous record's start, ``completionTime`` relative to this record's
   start, ``processTime`` relative to the same process's previous I/O
   start.
2. **Other fields may be omitted**, signalled by compression flags, and
   reconstructed from earlier records: process id from the previous record
   in the trace, file id from the previous record by this process, length
   and operation id from the previous record of this file, and offset by
   sequential extension of the previous access to this file.

Records whose offset/length are multiples of 512 are further shrunk with
the ``*_IN_BLOCKS`` flags.

A line is the decimal fields in struct order, space separated::

    recordType compression [offset] [length] startTime completionTime
    [operationId] [fileId] [processId] processTime

Comment records are ``255`` followed by the comment text.

Two encoders share this grammar.  :class:`TraceEncoder` is the
streaming, per-record one.  :func:`encode_columns` encodes a whole trace
over columns: the five omission flags and the two ``*_IN_BLOCKS`` flags
come from grouped previous-row gathers (previous record of the same
file, of the same process, of the trace), and
:func:`~repro.trace.digits.format_rows` writes every digit in one pass.
It accepts only nonnegative values below
:data:`~repro.trace.array.SAFE_INT`, nondecreasing start times and no
comment mid-stream, and returns None otherwise: the callers in
:mod:`repro.trace.io` then run :class:`TraceEncoder` over the same
records, so every error it raises, and the lines written before it,
stay as they are.  Where both run, their bytes and
:class:`EncoderStats` are identical.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.trace import flags as F
from repro.trace.array import SAFE_INT, RecordRows, int_table, previous_in_group
from repro.trace.digits import format_rows
from repro.trace.record import AnyRecord, CommentRecord, TraceRecord
from repro.util.errors import TraceFormatError


@dataclass
class _FileState:
    """Per-file compression context."""

    next_offset: int  # previous access's offset + length
    length: int
    operation_id: int


@dataclass
class EncoderStats:
    """Counts of how often each compression opportunity fired."""

    records: int = 0
    comments: int = 0
    omitted_offset: int = 0
    omitted_length: int = 0
    omitted_file_id: int = 0
    omitted_process_id: int = 0
    omitted_operation_id: int = 0
    offset_in_blocks: int = 0
    length_in_blocks: int = 0
    bytes_written: int = 0

    def omission_rate(self) -> float:
        """Mean omitted optional fields per record (0-5)."""
        if self.records == 0:
            return 0.0
        omitted = (
            self.omitted_offset
            + self.omitted_length
            + self.omitted_file_id
            + self.omitted_process_id
            + self.omitted_operation_id
        )
        return omitted / self.records

    def add(self, other: "EncoderStats") -> None:
        """Count ``other``'s records and bytes in too."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


class TraceEncoder:
    """Stateful record-to-line encoder.

    Feed records in the order they should appear in the trace (start times
    must be nondecreasing).  The encoder is streaming: it holds only the
    per-file/per-process context, never the whole trace.

    ``omit_operation_ids=True`` reproduces the paper's note that for
    logical-only traces the operation id "is useless and should be
    disregarded": after a file's first record the id is dropped even when
    it differs from the previous one.
    """

    def __init__(self, *, omit_operation_ids: bool = False):
        self.omit_operation_ids = omit_operation_ids
        self.stats = EncoderStats()
        self._prev_start: int | None = None
        self._prev_process: int | None = None
        self._file_of_process: dict[int, int] = {}
        self._files: dict[int, _FileState] = {}

    def encode(self, record: AnyRecord) -> str:
        """Encode one record to its trace line (no trailing newline)."""
        if isinstance(record, CommentRecord):
            if "\n" in record.text:
                raise TraceFormatError("comment text must not contain newlines")
            self.stats.comments += 1
            line = f"{F.TRACE_COMMENT} {record.text}".rstrip()
            self.stats.bytes_written += len(line) + 1
            return line
        return self._encode_io(record)

    def encode_all(self, records: Iterable[AnyRecord]) -> Iterator[str]:
        for record in records:
            yield self.encode(record)

    def _encode_io(self, r: TraceRecord) -> str:
        compression = 0
        fields: list[int] = []

        fstate = self._files.get(r.file_id)

        # offset
        if fstate is not None and r.offset == fstate.next_offset:
            compression |= F.TRACE_NO_BLOCK
            self.stats.omitted_offset += 1
        else:
            value = r.offset
            if value % F.TRACE_BLOCK_SIZE == 0:
                compression |= F.TRACE_OFFSET_IN_BLOCKS
                value //= F.TRACE_BLOCK_SIZE
                self.stats.offset_in_blocks += 1
            fields.append(value)

        # length
        if fstate is not None and r.length == fstate.length:
            compression |= F.TRACE_NO_LENGTH
            self.stats.omitted_length += 1
        else:
            value = r.length
            if value % F.TRACE_BLOCK_SIZE == 0:
                compression |= F.TRACE_LENGTH_IN_BLOCKS
                value //= F.TRACE_BLOCK_SIZE
                self.stats.length_in_blocks += 1
            fields.append(value)

        # times (always present, always deltas)
        prev_start = self._prev_start if self._prev_start is not None else 0
        start_delta = r.start_time - prev_start
        if start_delta < 0:
            raise TraceFormatError(
                f"start times must be nondecreasing "
                f"(got {r.start_time} after {prev_start})"
            )
        fields.append(start_delta)
        fields.append(r.duration)

        # operationId
        tail: list[int] = []
        if fstate is not None and (
            self.omit_operation_ids or r.operation_id == fstate.operation_id
        ):
            compression |= F.TRACE_NO_OPERATIONID
            self.stats.omitted_operation_id += 1
        else:
            tail.append(r.operation_id)

        # fileId
        if self._file_of_process.get(r.process_id) == r.file_id:
            compression |= F.TRACE_NO_FILEID
            self.stats.omitted_file_id += 1
        else:
            tail.append(r.file_id)

        # processId
        if self._prev_process == r.process_id:
            compression |= F.TRACE_NO_PROCESSID
            self.stats.omitted_process_id += 1
        else:
            tail.append(r.process_id)

        tail.append(r.process_time)

        # update state
        self._prev_start = r.start_time
        self._prev_process = r.process_id
        self._file_of_process[r.process_id] = r.file_id
        self._files[r.file_id] = _FileState(
            next_offset=r.offset + r.length,
            length=r.length,
            operation_id=r.operation_id,
        )

        self.stats.records += 1
        parts = [str(r.record_type), str(compression)]
        parts.extend(str(v) for v in fields)
        parts.extend(str(v) for v in tail)
        line = " ".join(parts)
        self.stats.bytes_written += len(line) + 1
        return line


#: The fields of a :class:`TraceRecord`, in its order: the columns
#: :func:`encode_columns` takes.
RECORD_FIELDS = TraceRecord._fields


def record_columns(records: Sequence[AnyRecord]) -> list[np.ndarray] | None:
    """The records' fields as :data:`RECORD_FIELDS` int64 columns.

    A :class:`~repro.trace.array.RecordRows`' columns are its table's;
    other records are read in one pass (:func:`~repro.trace.array.int_table`).
    None if one of them is a comment or holds a value beyond
    :data:`~repro.trace.array.SAFE_INT`: :func:`encode_columns` would
    refuse those anyway.
    """
    if isinstance(records, RecordRows):
        table = records.rows
    elif set(map(type, records)) - {TraceRecord}:
        return None
    else:
        table = int_table(records, len(RECORD_FIELDS))
    if table.dtype == object:
        return None
    return [table[:, j] for j in range(len(RECORD_FIELDS))]


def encode_columns(
    columns: Sequence[np.ndarray], *, omit_operation_ids: bool = False
) -> tuple[bytes, EncoderStats] | None:
    """Encode a whole trace at once: its lines and the encoder's stats.

    ``columns`` are int64 arrays in :data:`RECORD_FIELDS` order, rows in
    trace order, exactly what :class:`TraceEncoder` would be fed record
    by record from a fresh state.  Returns None -- the caller runs
    :class:`TraceEncoder` instead -- when a value is negative or not
    below :data:`~repro.trace.array.SAFE_INT`, a start time decreases
    or a record type is the comment marker.
    """
    (record_type, offset, length, start, duration, operation, file_id,
     process_id, process_time) = columns
    n = record_type.size
    stats = EncoderStats(records=n)
    if n == 0:
        return b"", stats
    if any(col.min() < 0 or col.max() >= SAFE_INT for col in columns):
        return None
    if (record_type == F.TRACE_COMMENT).any():
        return None
    start_delta = np.diff(start, prepend=0)
    if (start_delta < 0).any():
        return None

    # Compression context: the previous record of this file, of this
    # process, and of the trace.
    prev_file = previous_in_group(file_id)
    seen = prev_file >= 0
    prev = prev_file[seen]
    omit_offset = np.zeros(n, dtype=bool)
    omit_offset[seen] = offset[seen] == offset[prev] + length[prev]
    omit_length = np.zeros(n, dtype=bool)
    omit_length[seen] = length[seen] == length[prev]
    if omit_operation_ids:
        omit_operation = seen
    else:
        omit_operation = np.zeros(n, dtype=bool)
        omit_operation[seen] = operation[seen] == operation[prev]
    prev_proc = previous_in_group(process_id)
    omit_file = (prev_proc >= 0) & (file_id[prev_proc] == file_id)
    omit_process = np.zeros(n, dtype=bool)
    omit_process[1:] = process_id[1:] == process_id[:-1]

    block = F.TRACE_BLOCK_SIZE
    offset_in_blocks = ~omit_offset & (offset % block == 0)
    length_in_blocks = ~omit_length & (length % block == 0)
    compression = (
        offset_in_blocks * F.TRACE_OFFSET_IN_BLOCKS
        | length_in_blocks * F.TRACE_LENGTH_IN_BLOCKS
        | omit_length * F.TRACE_NO_LENGTH
        | omit_process * F.TRACE_NO_PROCESSID
        | omit_operation * F.TRACE_NO_OPERATIONID
        | omit_offset * F.TRACE_NO_BLOCK
        | omit_file * F.TRACE_NO_FILEID
    )
    document = format_rows(
        [
            record_type,
            compression,
            np.where(offset_in_blocks, offset // block, offset),
            np.where(length_in_blocks, length // block, length),
            start_delta,
            duration,
            operation,
            file_id,
            process_id,
            process_time,
        ],
        [
            None, None, ~omit_offset, ~omit_length, None, None,
            ~omit_operation, ~omit_file, ~omit_process, None,
        ],
    )
    stats.omitted_offset = int(omit_offset.sum())
    stats.omitted_length = int(omit_length.sum())
    stats.omitted_file_id = int(omit_file.sum())
    stats.omitted_process_id = int(omit_process.sum())
    stats.omitted_operation_id = int(omit_operation.sum())
    stats.offset_in_blocks = int(offset_in_blocks.sum())
    stats.length_in_blocks = int(length_in_blocks.sum())
    stats.bytes_written = len(document)
    return document, stats
