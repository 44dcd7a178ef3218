"""Decoder for the ASCII trace format (inverse of :mod:`repro.trace.encode`).

The decoder maintains the same per-file / per-process reconstruction state
the appendix specifies.  It raises :class:`TraceFormatError`, with the
line number, on any line that references state which does not exist
(e.g. an omitted file id before the process has touched any file), on a
field :class:`TraceRecord` rejects (a negative offset, length,
completionTime or processTime), and on a value no
:class:`~repro.trace.array.TraceArray` column can hold (see
:meth:`TraceDecoder.decode`).

:meth:`TraceDecoder.decode` turns one line into a :class:`TraceRecord`:
the one scalar decoding path.  :func:`decode_array` decodes a whole
document (a trace file's bytes) into columns, with the NumPy fast path
of :mod:`repro.trace.decode_fast` where the document is in the encoder's
strict grammar, and otherwise as :meth:`TraceArray.from_records` over
the records of :meth:`TraceDecoder.decode_all`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.obs.registry import get_registry
from repro.trace import decode_fast as _fast
from repro.trace import flags as F
from repro.trace.array import ID_END, INT64_END, OPERATION_ID_END, TraceArray
from repro.trace.record import AnyRecord, CommentRecord, TraceRecord
from repro.util.errors import TraceFormatError


@dataclass
class _FileState:
    next_offset: int
    length: int
    operation_id: int


class TraceDecoder:
    """Stateful line-to-record decoder.

    Lines must be fed in file order; the decoder is streaming and holds
    only the reconstruction context.
    """

    def __init__(self) -> None:
        self._prev_start: int = 0
        self._prev_process: int | None = None
        self._file_of_process: dict[int, int] = {}
        self._files: dict[int, _FileState] = {}
        self._clocks: dict[int, int] = {}
        self._line_number = 0

    def decode(self, line: str) -> AnyRecord | None:
        """Decode one line; returns None for blank lines.

        Besides the format's own errors, a record raises when a
        :class:`TraceArray` column could not hold it: a file or process
        id outside ``[0, 2**32)``, an operation id outside
        ``[0, 2**64)``, or an offset, length, startTime, completionTime
        or process clock (the sum of the process's processTimes) of
        ``2**63`` or more.
        """
        self._line_number += 1
        stripped = line.strip()
        if not stripped:
            return None
        head, _, rest = stripped.partition(" ")
        try:
            record_type = int(head)
        except ValueError as exc:
            raise TraceFormatError(
                f"bad recordType field {head!r}", line_number=self._line_number
            ) from exc
        if record_type == F.TRACE_COMMENT:
            return CommentRecord(rest)
        return self._decode_io(record_type, rest)

    def decode_all(self, lines: Iterable[str]) -> Iterator[AnyRecord]:
        for line in lines:
            record = self.decode(line)
            if record is not None:
                yield record

    def _fail(self, message: str) -> TraceFormatError:
        return TraceFormatError(message, line_number=self._line_number)

    def _decode_io(self, record_type: int, rest: str) -> TraceRecord:
        """Parse one I/O line and update reconstruction state."""
        if record_type > 0xFF or record_type < 0:
            raise self._fail(f"recordType {record_type} out of range")
        try:
            values = [int(tok) for tok in rest.split()]
        except ValueError as exc:
            raise self._fail(f"non-integer field in {rest!r}") from exc
        if not values:
            raise self._fail("record has no compression field")
        compression = values[0]
        if compression & ~F.TRACE_COMPRESSION_MASK:
            raise self._fail(f"unknown compression bits in {compression:#x}")
        it = iter(values[1:])

        def take(field_name: str) -> int:
            try:
                return next(it)
            except StopIteration:
                raise self._fail(f"record truncated before {field_name}") from None

        # -- fields in struct order --------------------------------------
        offset: int | None = None
        if not compression & F.TRACE_NO_BLOCK:
            offset = take("offset")
            if compression & F.TRACE_OFFSET_IN_BLOCKS:
                offset *= F.TRACE_BLOCK_SIZE
        elif compression & F.TRACE_OFFSET_IN_BLOCKS:
            raise self._fail("TRACE_OFFSET_IN_BLOCKS set on omitted offset")

        length: int | None = None
        if not compression & F.TRACE_NO_LENGTH:
            length = take("length")
            if compression & F.TRACE_LENGTH_IN_BLOCKS:
                length *= F.TRACE_BLOCK_SIZE
        elif compression & F.TRACE_LENGTH_IN_BLOCKS:
            raise self._fail("TRACE_LENGTH_IN_BLOCKS set on omitted length")

        start_delta = take("startTime")
        if start_delta < 0:
            raise self._fail(f"negative startTime delta {start_delta}")
        duration = take("completionTime")

        operation_id: int | None = None
        if not compression & F.TRACE_NO_OPERATIONID:
            operation_id = take("operationId")

        file_id: int | None = None
        if not compression & F.TRACE_NO_FILEID:
            file_id = take("fileId")

        process_id: int | None = None
        if not compression & F.TRACE_NO_PROCESSID:
            process_id = take("processId")

        process_time = take("processTime")
        extra = list(it)
        if extra:
            raise self._fail(f"{len(extra)} trailing field(s): {extra}")

        # -- reconstruct omitted fields -----------------------------------
        if process_id is None:
            if self._prev_process is None:
                raise self._fail("processId omitted on first record")
            process_id = self._prev_process

        if file_id is None:
            if process_id not in self._file_of_process:
                raise self._fail(
                    f"fileId omitted but process {process_id} has no prior record"
                )
            file_id = self._file_of_process[process_id]

        fstate = self._files.get(file_id)
        if offset is None:
            if fstate is None:
                raise self._fail(
                    f"offset omitted but file {file_id} has no prior record"
                )
            offset = fstate.next_offset
        if length is None:
            if fstate is None:
                raise self._fail(
                    f"length omitted but file {file_id} has no prior record"
                )
            length = fstate.length
        if operation_id is None:
            if fstate is None:
                raise self._fail(
                    f"operationId omitted but file {file_id} has no prior record"
                )
            operation_id = fstate.operation_id

        start_time = self._prev_start + start_delta
        try:
            record = TraceRecord(
                record_type, offset, length, start_time, duration,
                operation_id, file_id, process_id, process_time,
            )
        except ValueError as exc:
            raise self._fail(str(exc)) from None
        for name, value, end in (
            ("fileId", file_id, ID_END),
            ("processId", process_id, ID_END),
            ("operationId", operation_id, OPERATION_ID_END),
            ("offset", offset, INT64_END),
            ("length", length, INT64_END),
            ("startTime", start_time, INT64_END),
            ("completionTime", duration, INT64_END),
        ):
            if not 0 <= value < end:
                raise self._fail(f"{name} {value} out of range")
        clock = self._clocks.get(process_id, 0) + process_time
        if clock >= INT64_END:
            raise self._fail(f"process {process_id} clock {clock} out of range")

        # -- update state ---------------------------------------------------
        self._prev_start = start_time
        self._prev_process = process_id
        self._file_of_process[process_id] = file_id
        self._files[file_id] = _FileState(
            next_offset=offset + length,
            length=length,
            operation_id=operation_id,
        )
        self._clocks[process_id] = clock
        return record


def decode_lines(lines: Iterable[str]) -> list[AnyRecord]:
    """One-shot helper: decode all lines and return the records."""
    return list(TraceDecoder().decode_all(lines))


def decode_array(document: bytes) -> TraceArray:
    """Batch-decode a whole trace document (a file's bytes) into columns.

    Comment records and blank lines are skipped; the format's
    per-process ``processTime`` deltas are integrated into absolute
    ``process_clock`` ticks.  The columns, and every
    :class:`TraceFormatError` (message and line number), are those of
    :meth:`TraceArray.from_records` over :func:`decode_lines`.

    Strictly-formatted input (the encoder's own output grammar) is
    decoded by the NumPy fast path in :mod:`repro.trace.decode_fast`.
    Only when it declines is the document split into lines and decoded
    record by record.
    """
    registry = get_registry()
    trace = _fast.decode_document(document)
    if trace is not None:
        n_lines = document.count(b"\n")
        if document and not document.endswith(b"\n"):
            n_lines += 1
        registry.counter("trace.decode.vectorized_lines").add(n_lines)
        return trace
    lines = document.decode("latin-1").split("\n")
    if lines[-1] == "":
        lines.pop()
    records = [
        r for r in TraceDecoder().decode_all(lines) if isinstance(r, TraceRecord)
    ]
    registry.counter("trace.decode.scalar_fallback_lines").add(len(lines))
    return TraceArray.from_records(records)
