"""Adversarial tests for the epoch-by-epoch streaming merge.

The merge in :func:`iter_events_in_time_order` must be byte-identical to
the buffer-everything reference (:func:`global_sort_events`) under every
legal packet log -- including the nasty ones: events landing exactly on
an epoch watermark, ties on ``(start_time, operation_id)``, stragglers
carried across several epochs -- and must *reject* logs that violate the
collector's bounded-buffering contract instead of silently reordering.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, use_registry
from repro.trace import flags as F
from repro.trace.packets import IOEvent, TracePacket
from repro.trace.procstat import collect_to_list
from repro.trace.reconstruct import (
    _sort_key,
    events_to_array,
    global_sort_events,
    iter_events_in_time_order,
    reconstruct_records,
)


def ev(op, start, *, fid=1, pid=1):
    return IOEvent(
        record_type=F.TRACE_LOGICAL_RECORD,
        file_id=fid,
        process_id=pid,
        operation_id=op,
        offset=op * 1024,
        length=1024,
        start_time=start,
        duration=5,
        process_clock=0,
    )


def packet(seq, epoch, events, *, fid=1, pid=1):
    return TracePacket(
        sequence=seq, flush_epoch=epoch, process_id=pid, file_id=fid,
        events=list(events),
    )


def merged(packets):
    return list(iter_events_in_time_order(packets))


class TestEpochBoundaries:
    def test_event_exactly_on_the_watermark_is_carried_not_dropped(self):
        # Epoch 1's earliest start equals a buffered event's start: the
        # buffered event is *not* strictly older, so it must be carried
        # and tie-broken by operation id, not emitted early.
        packets = [
            packet(0, 0, [ev(5, 100), ev(7, 300)]),
            packet(1, 1, [ev(2, 100), ev(6, 200)]),
        ]
        assert [e.operation_id for e in merged(packets)] == [2, 5, 6, 7]
        assert merged(packets) == global_sort_events(packets)

    def test_watermark_emits_only_strictly_older_events(self):
        packets = [
            packet(0, 0, [ev(1, 10), ev(9, 500)]),
            packet(1, 1, [ev(2, 500)]),  # watermark 500: op 9 ties, stays
            packet(2, 2, [ev(3, 600)]),
        ]
        out = merged(packets)
        assert [e.operation_id for e in out] == [1, 2, 9, 3]
        assert out == global_sort_events(packets)

    def test_empty_epochs_between_packets(self):
        # Epoch numbers may jump (flushes with no open packets emit
        # nothing); the merge must not care.
        packets = [
            packet(0, 0, [ev(1, 10)]),
            packet(1, 5, [ev(2, 20)]),
            packet(2, 9, [ev(3, 30)]),
        ]
        assert [e.operation_id for e in merged(packets)] == [1, 2, 3]


class TestTieBreaking:
    def test_equal_start_times_order_by_operation_id(self):
        packets = [
            packet(0, 0, [ev(3, 100), ev(1, 100)]),
            packet(1, 0, [ev(2, 100), ev(0, 100)]),
        ]
        assert [e.operation_id for e in merged(packets)] == [0, 1, 2, 3]

    def test_ties_across_epochs(self):
        packets = [
            packet(0, 0, [ev(5, 100), ev(7, 300)]),
            packet(1, 1, [ev(2, 100)]),
            packet(2, 2, [ev(9, 250)]),
        ]
        out = merged(packets)
        assert [e.operation_id for e in out] == [2, 5, 9, 7]
        assert out == global_sort_events(packets)

    def test_identical_keys_keep_encounter_order(self):
        # Two *distinct* events with the same (start, op) key: stable
        # order means packet-log encounter order, same as the reference.
        a = ev(4, 100, fid=1)
        b = ev(4, 100, fid=2)
        packets = [
            packet(0, 0, [a], fid=1),
            packet(1, 0, [b], fid=2),
            packet(2, 1, [ev(5, 200)]),
        ]
        out = merged(packets)
        assert out == global_sort_events(packets)
        assert out[0] == a and out[1] == b


class TestCarryOver:
    def test_straggler_carried_across_many_epochs(self):
        # A long-running I/O recorded in epoch 0 but starting at t=1000
        # outlives three epoch boundaries before anything passes it.
        packets = [
            packet(0, 0, [ev(1, 10), ev(50, 1000)]),
            packet(1, 1, [ev(2, 20)]),
            packet(2, 2, [ev(3, 30)]),
            packet(3, 3, [ev(4, 2000)]),
        ]
        out = merged(packets)
        assert [e.operation_id for e in out] == [1, 2, 3, 50, 4]
        assert out == global_sort_events(packets)

    def test_carry_over_larger_than_one_epoch(self):
        # The buffer must be allowed to hold more than a single epoch's
        # events: epoch 0 is huge and nothing in epochs 1-2 passes it.
        packets = [
            packet(0, 0, [ev(i, 500 + i) for i in range(20)]),
            packet(1, 1, [ev(100, 500)]),
            packet(2, 2, [ev(101, 501)]),
            packet(3, 3, [ev(102, 9999)]),
        ]
        out = merged(packets)
        assert out == global_sort_events(packets)
        assert len(out) == 23

    def test_carryover_peak_gauge_reflects_buffering(self):
        reg = MetricsRegistry()
        packets = [
            packet(0, 0, [ev(i, 500 + i) for i in range(20)]),
            packet(1, 1, [ev(100, 505)]),
            packet(2, 2, [ev(102, 9999)]),
        ]
        with use_registry(reg):
            out = merged(packets)
        snap = reg.snapshot()
        assert snap["trace.reconstruct.carryover_peak"]["peak"] >= 20
        assert snap["trace.reconstruct.epochs_merged"] == 2
        assert out == global_sort_events(packets)


class TestContractViolations:
    def test_rejects_event_reaching_back_past_final_output(self):
        # op 3 surfaces two epochs after events at t >= 500 were already
        # final: emitting it would reorder the stream.
        packets = [
            packet(0, 0, [ev(1, 500)]),
            packet(1, 1, [ev(2, 600)]),
            packet(2, 2, [ev(3, 100)]),
        ]
        with pytest.raises(ValueError, match="bounded-buffering"):
            merged(packets)

    def test_rejects_violation_detected_mid_stream(self):
        packets = [
            packet(0, 0, [ev(1, 500)]),
            packet(1, 1, [ev(2, 600)]),
            packet(2, 2, [ev(3, 100)]),
            packet(3, 3, [ev(4, 9999)]),
            packet(4, 4, [ev(5, 10000)]),
        ]
        with pytest.raises(ValueError, match="bounded-buffering"):
            merged(packets)

    def test_rejects_decreasing_epochs(self):
        packets = [
            packet(0, 1, [ev(1, 10)]),
            packet(1, 0, [ev(2, 20)]),
        ]
        with pytest.raises(ValueError, match="emission order"):
            merged(packets)


class TestByteIdentity:
    def test_records_byte_identical_to_reference(self):
        # Same events through the collector, reconstructed by both
        # implementations, serialized: identical bytes.
        events = [ev(i, (i // 3) * 100, fid=i % 4) for i in range(120)]
        packets = collect_to_list(
            events, max_events_per_packet=7, flush_interval=20
        )
        streaming = merged(packets)
        reference = global_sort_events(packets)
        assert streaming == reference
        stream_bytes = repr(reconstruct_records(packets)).encode()
        ref_bytes = repr(list(events_to_array(reference).to_records())).encode()
        assert stream_bytes == ref_bytes

    @settings(max_examples=60, deadline=None)
    @given(
        n_events=st.integers(1, 150),
        n_files=st.integers(1, 4),
        tie_width=st.integers(1, 8),
        packet_cap=st.integers(1, 20),
        flush=st.integers(1, 40),
    )
    def test_streaming_equals_global_sort_property(
        self, n_events, n_files, tie_width, packet_cap, flush
    ):
        # Nondecreasing start times with heavy ties: every legal log the
        # collector can produce must merge to exactly the reference.
        events = [
            ev(i, (i // tie_width) * 10, fid=i % n_files)
            for i in range(n_events)
        ]
        packets = collect_to_list(
            events, max_events_per_packet=packet_cap, flush_interval=flush
        )
        assert merged(packets) == global_sort_events(packets)

    def test_sort_key_is_start_then_operation(self):
        assert _sort_key(ev(2, 10)) < _sort_key(ev(1, 11))
        assert _sort_key(ev(1, 10)) < _sort_key(ev(2, 10))
