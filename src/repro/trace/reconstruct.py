"""Reconstruct a single time-ordered I/O stream from a packet log.

"Reconstructing a single stream of all the accesses from the file of
packets requires buffering all the I/Os between flushes, since a packet
written during the flush might contain an I/O access from much earlier in
the program's execution."

The collector stamps each packet with its *flush epoch*.  Events within
one epoch may arrive in any packet order, and an event may surface in a
*later* epoch than the one its neighbours landed in (a long-running I/O
submitted at completion), but the log contract is the paper's bounded
buffering requirement: **an event can never start earlier than the
earliest start of any epoch that was completely flushed before it was
submitted**.  Under that contract, sorting epoch-by-epoch with a
carry-over buffer reproduces the full global sort exactly, and a log
that violates the contract is detected and rejected rather than
silently emitted out of order.

The merge runs over columns: the packets' event rows
(:class:`~repro.trace.packets.EventRows`) are joined into one integer
table with a single ``np.concatenate``, and the epoch loop moves index
arrays, one NumPy step per epoch rather than a Python step per event.
Its result is a permutation of the table's rows, which
:func:`iter_events_in_time_order` turns into events and
:func:`reconstruct_records` into a table of trace records
(:class:`~repro.trace.array.RecordRows`); a columnar trace of the log
is ``TraceArray.from_records(reconstruct_records(packets))``, which
reads that table as it is.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.obs.registry import get_registry
from repro.trace import flags as F
from repro.trace.array import (
    RecordRows,
    TraceArray,
    clock_deltas,
    int_table,
    within_safe_int,
)
from repro.trace.packets import (
    EVENT_WIDTH,
    EventRows,
    IOEvent,
    TracePacket,
    event_table,
)
from repro.trace.record import TraceRecord

# IOEvent field indexes in an int_table row.
_RECORD_TYPE, _FILE, _PROCESS, _OPERATION = 0, 1, 2, 3
_OFFSET, _LENGTH, _START, _DURATION, _CLOCK = 4, 5, 6, 7, 8

#: ``TraceRecord``'s positional fields before ``process_time``, as
#: IOEvent field indexes.
_RECORD_FIELDS = (
    _RECORD_TYPE, _OFFSET, _LENGTH, _START, _DURATION, _OPERATION, _FILE, _PROCESS,
)


def _sort_key(e: IOEvent) -> tuple[int, int]:
    return (e.start_time, e.operation_id)


def global_sort_events(packets: Iterable[TracePacket]) -> list[IOEvent]:
    """Reference implementation: buffer *everything*, one stable sort.

    Trivially correct; the epoch merge behind
    :func:`iter_events_in_time_order` is tested identical against it.
    """
    events = [e for p in packets for e in p.events]
    events.sort(key=_sort_key)
    return events


def _merge(packets: Iterable[TracePacket]) -> tuple[np.ndarray, np.ndarray]:
    """``(table, order)``: the log's events as one table of rows in
    encounter order (:func:`~repro.trace.packets.event_table`), and the
    permutation that time-orders them.

    Epoch-by-epoch merge with carry-over: when an epoch is fully read,
    every buffered event that starts strictly before the earliest start
    in that epoch can no longer be preceded and is emitted; events at or
    past that watermark (boundary ties, stragglers) are carried over --
    across as many epochs as it takes.  Ties on start time are broken by
    operation id, and equal keys keep packet-log encounter order, so the
    order is exactly :func:`global_sort_events`'.

    Raises ``ValueError`` if the packets are not in emission order or if
    an event arrives so late that emitted output would be out of order
    (a violation of the collector's bounded-buffering contract), at the
    packet where the per-event merge would have found it.
    """
    packets = packets if isinstance(packets, list) else list(packets)
    table = event_table(packets)
    start = table[:, _START]
    operation = table[:, _OPERATION]

    def key(i: int) -> tuple[int, int]:
        return (start[i], operation[i])

    def time_ordered(idx: np.ndarray) -> np.ndarray:
        # lexsort is stable: equal keys keep encounter order
        return idx[np.lexsort((operation[idx], start[idx]))]

    # One (epoch, first event, end) run per maximal stretch of packets
    # sharing an epoch, up to the first packet whose epoch goes back.
    runs: list[list[int]] = []
    bad_order = False
    end = 0
    for p in packets:
        begin, end = end, end + len(p.events)
        if runs and p.flush_epoch == runs[-1][0]:
            runs[-1][2] = end
        elif runs and p.flush_epoch < runs[-1][0]:
            bad_order = True
            break
        else:
            runs.append([p.flush_epoch, begin, end])

    reg = get_registry()
    transitions = carried = carry_peak = 0
    pending = np.zeros(0, dtype=np.intp)  # completed epochs, encounter order
    emitted: list[np.ndarray] = []
    last_key: tuple[int, int] | None = None
    try:
        for k, (_, begin, end) in enumerate(runs):
            if k:
                # Epoch boundary: run k-1 is fully read.  Its earliest
                # start is the watermark below which nothing can arrive.
                transitions += 1
                prev_begin, prev_end = runs[k - 1][1:]
                if prev_end > prev_begin:
                    boundary = start[prev_begin:prev_end].min()
                    due = start[pending] < boundary
                    ready = time_ordered(pending[due])
                    if ready.size:
                        if last_key is not None and key(ready[0]) < last_key:
                            first = table[ready[0]].tolist()
                            raise ValueError(
                                "packet log violates the bounded-buffering "
                                f"contract: event {first[_OPERATION]} at "
                                f"t={first[_START]} surfaced after later "
                                "events were already final"
                            )
                        pending = pending[~due]
                        last_key = key(ready[-1])
                        emitted.append(ready)
                    carried += pending.size
                    pending = np.concatenate(
                        (pending, np.arange(prev_begin, prev_end, dtype=np.intp))
                    )
            # The buffer is largest after the run's last packet.
            carry_peak = max(carry_peak, pending.size + end - begin)
        if bad_order:
            raise ValueError("packet log is not in emission order")
    finally:
        # Counted up to where the log was found at fault, as per event.
        if reg.enabled:
            reg.gauge("trace.reconstruct.carryover_peak").set_max(carry_peak)
            reg.counter("trace.reconstruct.epochs_merged").inc(transitions)
            reg.counter("trace.reconstruct.events_carried_over").inc(carried)

    if runs:
        begin, end = runs[-1][1:]
        pending = time_ordered(
            np.concatenate((pending, np.arange(begin, end, dtype=np.intp)))
        )
        if pending.size and last_key is not None and key(pending[0]) < last_key:
            raise ValueError(
                "packet log violates the bounded-buffering contract: final "
                "epoch reaches back before already-emitted events"
            )
        emitted.append(pending)
    order = np.concatenate(emitted) if emitted else np.zeros(0, dtype=np.intp)
    return table, order


def iter_events_in_time_order(packets: Iterable[TracePacket]) -> Iterator[IOEvent]:
    """Yield all events of a packet log ordered by absolute start time.

    Ties on start time are broken by operation id, and equal keys keep
    packet-log encounter order: the output is identical to
    :func:`global_sort_events`.  The errors are :func:`_merge`'s.
    """
    table, order = _merge(packets)
    yield from EventRows(table[order])


def _check_rows(table: np.ndarray, deltas: np.ndarray) -> None:
    """Raise the first error, in row order, that building the records
    of ``table``'s event rows with clock ``deltas`` would raise.

    A backwards process clock, and the fields a
    :class:`~repro.trace.record.TraceRecord` rejects, are found over the
    columns; the row at fault is rebuilt as a record only to raise that
    record's own error.  A backwards clock wins within its row.
    """
    backwards = deltas < 0
    bad = np.flatnonzero(
        backwards
        | (table[:, _RECORD_TYPE] == F.TRACE_COMMENT)
        | (table[:, _OFFSET] < 0)
        | (table[:, _LENGTH] < 0)
        | (table[:, _DURATION] < 0)
    )
    if not bad.size:
        return
    row = int(bad[0])
    values = table[row].tolist()
    if backwards[row]:
        clock = values[_CLOCK]
        raise ValueError(
            f"process {values[_PROCESS]} CPU clock went backwards "
            f"({clock - int(deltas[row])} -> {clock})"
        )
    TraceRecord(*(values[j] for j in _RECORD_FIELDS), int(deltas[row]))  # raises


def events_to_array(events: Sequence[IOEvent]) -> TraceArray:
    """Time-ordered events as a columnar trace.

    What generation yields: the trace of the records the events make
    (process clocks as per-process deltas, as
    :func:`reconstruct_records` computes them) and their first error
    (:func:`_check_rows`), without a record object per event.  A value
    that does not fit its column raises as in
    :meth:`TraceArray.from_records`.
    """
    table = int_table(events, EVENT_WIDTH)
    _check_rows(table, clock_deltas(table[:, _PROCESS], table[:, _CLOCK]))
    # The clock column is already what from_records integrates the
    # deltas back into.
    return TraceArray.from_table(table)


def reconstruct_records(packets: Iterable[TracePacket]) -> RecordRows:
    """Packet log -> time-ordered trace records, as the rows of one table.

    Each record's ``process_time`` is its clock delta since the same
    process's previous record.  Raises the first error in time order: a
    process clock going backwards, or a field
    :class:`~repro.trace.record.TraceRecord` rejects.  The rows are
    checked over columns (:func:`_check_rows`); the
    :class:`~repro.trace.array.RecordRows` returned own one ``(n, 9)``
    table, gathered from the ordered event table with the clock deltas
    in the place of the clocks, and build a record only when one is read.
    """
    table, order = _merge(packets)
    table = table[order]
    clock = table[:, _CLOCK]
    deltas = clock_deltas(table[:, _PROCESS], clock)
    _check_rows(table, deltas)
    clock[:] = deltas  # process_time, in the clock's column
    rows = table[:, [*_RECORD_FIELDS, _CLOCK]]
    if rows.dtype == object and within_safe_int(rows):
        rows = rows.astype(np.int64)  # the wide values were clocks
    return RecordRows(rows)
