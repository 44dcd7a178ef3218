"""Decoder for the ASCII trace format (inverse of :mod:`repro.trace.encode`).

The decoder maintains the same per-file / per-process reconstruction state
the appendix specifies and raises :class:`TraceFormatError` on any line
that references state which does not exist (e.g. an omitted file id before
the process has touched any file).

Two consumption styles share one field parser:

* :meth:`TraceDecoder.decode` yields a :class:`TraceRecord` per line --
  the right shape for streaming filters and the format round-trip tests;
* :func:`decode_array` batch-decodes a whole document (a trace file's
  bytes) straight into :class:`~repro.trace.array.TraceArray` columns,
  skipping the per-record object entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.obs.registry import get_registry
from repro.trace import decode_fast as _fast
from repro.trace import flags as F
from repro.trace.array import TraceArray, TraceArrayBuilder
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
        self._line_number = 0

    def decode(self, line: str) -> AnyRecord | None:
        """Decode one line; returns None for blank lines."""
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

    def _decode_columns(self, lines: list[str]) -> TraceArray:
        """The scalar batch loop: every line of a document, in order, into
        columns via :class:`~repro.trace.array.TraceArrayBuilder`."""
        builder = TraceArrayBuilder()
        append = builder.append
        clocks: dict[int, int] = {}
        for line in lines:
            self._line_number += 1
            stripped = line.strip()
            if not stripped:
                continue
            head, _, rest = stripped.partition(" ")
            try:
                record_type = int(head)
            except ValueError as exc:
                raise TraceFormatError(
                    f"bad recordType field {head!r}",
                    line_number=self._line_number,
                ) from exc
            if record_type == F.TRACE_COMMENT:
                continue
            fields = self._decode_fields(record_type, rest)
            process_id = fields[7]
            clock = clocks.get(process_id, 0) + fields[8]
            clocks[process_id] = clock
            append(
                record_type,
                fields[6],  # file_id
                process_id,
                fields[5],  # operation_id
                fields[0],  # offset
                fields[1],  # length
                fields[2],  # start_time
                fields[3],  # duration
                clock,
            )
        return builder.build()

    def _fail(self, message: str) -> TraceFormatError:
        return TraceFormatError(message, line_number=self._line_number)

    def _decode_io(self, record_type: int, rest: str) -> TraceRecord:
        fields = self._decode_fields(record_type, rest)
        return TraceRecord(
            record_type=record_type,
            offset=fields[0],
            length=fields[1],
            start_time=fields[2],
            duration=fields[3],
            operation_id=fields[5],
            file_id=fields[6],
            process_id=fields[7],
            process_time=fields[8],
        )

    def _decode_fields(
        self, record_type: int, rest: str
    ) -> tuple[int, int, int, int, int, int, int, int, int]:
        """Parse one I/O line and update reconstruction state.

        Returns ``(offset, length, start_time, duration, record_type,
        operation_id, file_id, process_id, process_time)`` as plain ints
        -- the shared backend for both the record path and the batch
        array path.
        """
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

        # -- update state ---------------------------------------------------
        self._prev_start = start_time
        self._prev_process = process_id
        self._file_of_process[process_id] = file_id
        self._files[file_id] = _FileState(
            next_offset=offset + length,
            length=length,
            operation_id=operation_id,
        )
        return (
            offset,
            length,
            start_time,
            duration,
            record_type,
            operation_id,
            file_id,
            process_id,
            process_time,
        )


def decode_lines(lines: Iterable[str]) -> list[AnyRecord]:
    """One-shot helper: decode all lines and return the records."""
    return list(TraceDecoder().decode_all(lines))


def decode_array(document: bytes) -> TraceArray:
    """Batch-decode a whole trace document (a file's bytes) into columns.

    Comment records and blank lines are skipped; the format's
    per-process ``processTime`` deltas are integrated into absolute
    ``process_clock`` ticks exactly as :meth:`TraceArray.from_records`
    would.  Raises the same :class:`TraceFormatError` diagnostics (with
    line numbers) as the per-record path.

    Strictly-formatted input (the encoder's own output grammar) is
    decoded by the NumPy fast path in :mod:`repro.trace.decode_fast`.
    Only when it declines is the document split into lines and run
    through a fresh decoder's scalar loop, which is the behavioural
    contract.
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
    trace = TraceDecoder()._decode_columns(lines)
    registry.counter("trace.decode.scalar_fallback_lines").add(len(lines))
    return trace
