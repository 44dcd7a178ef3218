"""Trace packets: the `procstat` wire format.

On the Cray, the instrumented I/O libraries did not emit one trace record
per call -- "the trace record headers are large compared to the amount of
data recorded per call".  Instead, operations on each file were batched
into *packets*: one header (8 words) serving hundreds of per-I/O entries
(3-5 words each), sent to the ``procstat`` collector process.  Packets
were force-flushed every hundred thousand I/Os so that a quiet file's
events could not be delayed indefinitely.

This module defines the packet objects and their text serialization, the
*packet log*; the collector lives in :mod:`repro.trace.procstat` and the
stream reconstruction in :mod:`repro.trace.reconstruct`.

As on the Cray, a packet's entries are fixed-width integers, not objects:
:attr:`TracePacket.events` is an :class:`EventRows`, the rows of an
``(n, 9)`` integer table in :class:`IOEvent` field order.  It reads as a
sequence of events, but an :class:`IOEvent` is built only when one is
read.  The reconstructed records are rows too
(:class:`~repro.trace.array.RecordRows`), so the collection path --
collector, packet log, merge, trace writer -- builds no Python object
per event.  The packets :func:`load_packets` returns view consecutive
slices of one table for the whole log.

The packet log is written and parsed as one document, with NumPy
(:mod:`repro.trace.digits`), not a ``str()`` or ``int()`` per field.
:func:`dump_packets` writes only the strict grammar -- every value an
unsigned decimal of at most :data:`~repro.trace.digits.MAX_DIGITS`
digits -- and refuses any other value, so every log it writes parses as
one document.  The parse accepts only that grammar; any other input --
blank lines, extra tokens, signs, tabs, an unknown tag, a truncated
packet -- goes wholesale to the per-line loader, so its result and its
every error, with its line number, are the per-line loader's.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from repro.trace.array import TableRows, int_table
from repro.trace.digits import MAX_DIGITS, format_rows, parse_digits
from repro.util.errors import TraceFormatError

#: Packet header size, in 8-byte Cray words ("an 8 word header").
PACKET_HEADER_WORDS = 8

#: Per-I/O entry size in words ("between three and five words").
ENTRY_WORDS = 4


class IOEvent(NamedTuple):
    """One raw I/O event as seen by the library tracing hook.

    Unlike :class:`~repro.trace.record.TraceRecord`, times here are all
    absolute: the hook reads the wall-clock and process-clock registers
    directly; deltas are computed later when the standard trace is
    written.

    A named tuple: immutable, hashed by value, and iterable in field
    order, so :func:`~repro.trace.array.int_table` reads a list of them
    into one table in a single pass.  A packet keeps its events as rows
    of such a table (:class:`EventRows`).
    """

    record_type: int
    file_id: int
    process_id: int
    operation_id: int
    offset: int
    length: int
    start_time: int
    duration: int
    process_clock: int


#: Width of an event row: the :class:`IOEvent` fields.
EVENT_WIDTH = len(IOEvent._fields)


class EventRows(TableRows, row_type=IOEvent):
    """A packet's events as the rows of a read-only ``(k, 9)`` table.

    ``rows`` is an :func:`~repro.trace.array.int_table`: int64, or
    ``dtype=object`` when a value lies beyond ``+-SAFE_INT``, in
    :class:`IOEvent` field order.  It reads like the list of events it
    replaces (:class:`~repro.trace.array.TableRows`) and builds each
    :class:`IOEvent` only when it is read.
    """

    __slots__ = ()


@dataclass(frozen=True)
class TracePacket:
    """A batch of events for one (process, file) pair.

    ``sequence`` is the collector-assigned emission order and
    ``flush_epoch`` counts how many global force-flushes preceded this
    packet; reconstruction sorts within epochs (events of epoch *k* are
    guaranteed to all be emitted in packets of epoch <= *k*).

    ``events`` is always an :class:`EventRows`: any other sequence of
    events is read into one with a single
    :func:`~repro.trace.array.int_table` call.  The packet is frozen, so
    it stays that way.
    """

    sequence: int
    flush_epoch: int
    process_id: int
    file_id: int
    events: Sequence[IOEvent] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.events, EventRows):
            rows = EventRows(int_table(self.events, EVENT_WIDTH))
            object.__setattr__(self, "events", rows)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def size_words(self) -> int:
        """Size of the packet in Cray words, header included."""
        return PACKET_HEADER_WORDS + ENTRY_WORDS * len(self.events)


def event_table(packets: Sequence[TracePacket]) -> np.ndarray:
    """Every event of ``packets`` as one ``(n, 9)`` table, in packet order.

    One ``np.concatenate`` of the packets' rows: int64 unless some
    packet holds an object table, whose values then all stay exact.
    """
    if not packets:
        return np.zeros((0, EVENT_WIDTH), dtype=np.int64)
    return np.concatenate([p.events.rows for p in packets])


def packet_overhead_ratio(packets: Iterable[TracePacket]) -> float:
    """Fraction of packet bytes spent on headers.

    With batching this should be small; with one record per packet it
    would be ``8 / (8 + 4) = 0.67`` -- the "far too much data" case the
    paper avoided.
    """
    header_words = 0
    total_words = 0
    for p in packets:
        header_words += PACKET_HEADER_WORDS
        total_words += p.size_words
    return header_words / total_words if total_words else 0.0


# ---------------------------------------------------------------------------
# Text serialization of packet logs
# ---------------------------------------------------------------------------

_PACKET_TAG = "P"
_EVENT_TAG = "E"

_NL = 0x0A
_SPACE = 0x20

#: Fields of an ``E`` line, as :class:`IOEvent` indexes: the packet
#: header carries the file and process ids.
_EVENT_LINE_FIELDS = [0, 3, 4, 5, 6, 7, 8]
_EVENT_LINE_NAMES = [IOEvent._fields[j] for j in _EVENT_LINE_FIELDS]
#: Fields of a ``P`` line.
_PACKET_FIELD_NAMES = ("sequence", "flush_epoch", "process_id", "file_id", "events")
_PACKET_FIELDS = len(_PACKET_FIELD_NAMES)

#: Exclusive bound of a value in the log: at most ``MAX_DIGITS`` digits.
_VALUE_END = 10**MAX_DIGITS


def dump_packets(path: str | Path, packets: Iterable[TracePacket]) -> None:
    """Write a packet log file (one packet header line, then event lines).

    Every value must be an integer from 0 to ``10**MAX_DIGITS - 1``, the
    strict grammar :func:`load_packets` parses as one document; any
    other raises ``ValueError`` naming it, before the file is opened.
    """
    columns, is_event = _log_lines(list(packets))
    present = [None] * _PACKET_FIELDS + [is_event] * (
        len(_EVENT_LINE_FIELDS) - _PACKET_FIELDS
    )
    tags = np.where(is_event, ord(_EVENT_TAG), ord(_PACKET_TAG)).astype(np.uint8)
    document = format_rows(columns, present, tags)
    with open(path, "wb") as fh:
        fh.write(document)


def _check_values(table: np.ndarray, names: Sequence[str]) -> None:
    """Raise ``ValueError`` for the first value of ``table`` outside the
    log grammar, naming its field."""
    bad = np.argwhere((table < 0) | (table >= _VALUE_END))
    if bad.size:
        row, j = bad[0]
        raise ValueError(
            f"packet log cannot hold {names[j]} {table[row, j]}: "
            f"values must be 0 to {_VALUE_END - 1}"
        )


def _log_lines(packets: list[TracePacket]) -> tuple[list[np.ndarray], np.ndarray]:
    """The log's lines as seven value columns (a ``P`` line fills the
    first five) and the mask of its ``E`` lines.  The event table is
    freed on return, before the document is formatted."""
    counts = [len(p.events) for p in packets]
    headers = int_table(
        [
            (p.sequence, p.flush_epoch, p.process_id, p.file_id, count)
            for p, count in zip(packets, counts)
        ],
        _PACKET_FIELDS,
    )
    events = event_table(packets)
    _check_values(headers, _PACKET_FIELD_NAMES)
    _check_values(events, IOEvent._fields)
    # Packet k's header is line k + (events before it); its events follow.
    n_packets = len(packets)
    n_lines = n_packets + len(events)
    packet_of_event = np.repeat(np.arange(n_packets), counts)
    event_lines = np.arange(len(events)) + packet_of_event + 1
    is_event = np.zeros(n_lines, dtype=bool)
    is_event[event_lines] = True
    header_lines = np.flatnonzero(~is_event)
    columns = []
    for j, field_index in enumerate(_EVENT_LINE_FIELDS):
        column = np.zeros(n_lines, dtype=np.int64)
        column[event_lines] = events[:, field_index]
        if j < _PACKET_FIELDS:
            column[header_lines] = headers[:, j]
        columns.append(column)
    return columns, is_event


def load_packets(path: str | Path) -> Iterator[TracePacket]:
    """Stream packets back from a packet log file.

    A log in the strict grammar is parsed as one document; anything
    else is read line by line, which raises the
    :class:`~repro.util.errors.TraceFormatError` of the first malformed
    line, with its line number (a packet cut short by the end of the
    file has none).
    """
    with open(path, "rb") as fh:
        fields = _log_fields(fh.read())
    if fields is None:
        yield from _load_lines(path)
    else:
        yield from _packets(*fields)


def _log_fields(document: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """``(headers, events)`` of a log in the strict grammar, else None.

    The grammar is what :func:`dump_packets` writes: every line is a
    ``P`` or ``E`` tag, then five (``P``) or seven (``E``) unsigned
    decimal fields of at most :data:`~repro.trace.digits.MAX_DIGITS`
    digits, each after one space, then ``\\n``; the first line is a
    ``P``, and each ``P`` line's count is the number of ``E`` lines up
    to the next ``P``.  ``headers`` holds the ``P`` lines' fields, one
    row each, and ``events`` the ``E`` lines'.  No Python object is
    built per field, and at most three arrays the size of the document
    are alive at once.
    """
    a = np.frombuffer(document, dtype=np.uint8)
    if a.size == 0:
        return np.zeros((0, _PACKET_FIELDS), np.int64), np.zeros((0, 7), np.int64)
    if a[-1] != _NL:
        return None
    nl = np.flatnonzero(a == _NL)
    line_starts = np.concatenate(([0], nl[:-1] + 1))
    tags = a[line_starts]
    is_packet = tags == ord(_PACKET_TAG)
    if not is_packet[0] or not (is_packet | (tags == ord(_EVENT_TAG))).all():
        return None
    # Byte classes: a digit, a space, a newline or a line's tag.
    is_digit = np.subtract(a, 0x30, dtype=np.uint8) < 10
    is_space = a == _SPACE
    valid = is_digit | is_space
    valid[nl] = True
    valid[line_starts] = True
    if not valid.all():
        return None
    del valid
    # Tag, then (space, digits)+, then newline: every tag and every
    # space is followed by its kind of byte, every newline preceded by
    # a digit.
    spaces = np.flatnonzero(is_space)
    if not (
        is_space[line_starts + 1].all()
        and is_digit[spaces + 1].all()
        and is_digit[nl - 1].all()
    ):
        return None
    del is_digit, is_space
    # Each space starts a field, which ends at the next space of its
    # line or, for a line's last field, at the newline.
    fields_before_eol = np.searchsorted(spaces, nl)
    counts = np.diff(fields_before_eol, prepend=0)
    if not np.array_equal(
        counts, np.where(is_packet, _PACKET_FIELDS, len(_EVENT_LINE_FIELDS))
    ):
        return None
    ends = np.empty_like(spaces)
    ends[:-1] = spaces[1:]
    ends[fields_before_eol - 1] = nl
    starts = spaces + 1
    lengths = ends - starts
    del spaces, ends
    if (lengths > MAX_DIGITS).any():
        return None
    values = parse_digits(a, starts, lengths)
    del starts, lengths

    first = fields_before_eol - counts
    headers = values[first[is_packet][:, None] + np.arange(_PACKET_FIELDS)]
    packet_lines = np.flatnonzero(is_packet)
    if not np.array_equal(np.diff(packet_lines, append=nl.size) - 1, headers[:, 4]):
        return None
    events = values[first[~is_packet][:, None] + np.arange(len(_EVENT_LINE_FIELDS))]
    return headers, events


def _packets(headers: np.ndarray, events: np.ndarray) -> list[TracePacket]:
    """Packets from :func:`_log_fields`' tables.

    The ``E`` lines' seven columns and the file and process ids repeated
    from their ``P`` lines make one ``(n, 9)`` event table; each packet
    views its own consecutive slice of it.
    """
    sizes = headers[:, 4]
    table = np.empty((len(events), EVENT_WIDTH), dtype=np.int64)
    table[:, _EVENT_LINE_FIELDS] = events
    table[:, 1] = np.repeat(headers[:, 3], sizes)
    table[:, 2] = np.repeat(headers[:, 2], sizes)
    packets = []
    end = 0
    for seq, epoch, pid, fid, size in headers.tolist():
        begin, end = end, end + size
        packets.append(TracePacket(seq, epoch, pid, fid, EventRows(table[begin:end])))
    return packets


def _line_values(parts: list[str], names: Sequence[str], line_number: int) -> list[int]:
    """The integers of a log line's fields after its tag, one per name;
    tokens past the last name are ignored."""
    values = []
    for name, token in zip(names, parts[1:]):
        try:
            values.append(int(token))
        except ValueError:
            raise TraceFormatError(
                f"non-integer {name} {token!r}", line_number=line_number
            ) from None
    if len(values) < len(names):
        raise TraceFormatError(
            f"{parts[0]} line truncated before {names[len(values)]}",
            line_number=line_number,
        )
    return values


def _load_lines(path: str | Path) -> Iterator[TracePacket]:
    """The per-line loader: blank lines, tabs, CRLF and extra tokens are
    accepted, and the first malformed line raises its
    :class:`~repro.util.errors.TraceFormatError` with its line number (a
    packet cut short by the end of the file has none)."""
    with open(path, "r", encoding="ascii") as fh:
        header: list[int] | None = None
        events: list[IOEvent] = []
        remaining = 0
        for line_number, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            tag = parts[0]
            if tag == _PACKET_TAG:
                if remaining:
                    raise TraceFormatError(
                        f"packet truncated: {remaining} events missing",
                        line_number=line_number,
                    )
                if header is not None:
                    yield TracePacket(*header, events)
                *header, remaining = _line_values(
                    parts, _PACKET_FIELD_NAMES, line_number
                )
                if remaining < 0:
                    raise TraceFormatError(
                        f"negative event count {remaining}", line_number=line_number
                    )
                events = []
            elif tag == _EVENT_TAG:
                if header is None or remaining == 0:
                    raise TraceFormatError(
                        "event line outside a packet", line_number=line_number
                    )
                rt, opid, off, length, start, dur, pclock = _line_values(
                    parts, _EVENT_LINE_NAMES, line_number
                )
                _, _, pid, fid = header
                events.append(
                    IOEvent(rt, fid, pid, opid, off, length, start, dur, pclock)
                )
                remaining -= 1
            else:
                raise TraceFormatError(
                    f"unknown packet-log tag {tag!r}", line_number=line_number
                )
        if remaining:
            raise TraceFormatError(f"packet truncated: {remaining} events missing")
        if header is not None:
            yield TracePacket(*header, events)
