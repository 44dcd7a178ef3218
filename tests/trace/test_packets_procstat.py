"""Packet batching, the procstat collector and stream reconstruction."""

import dataclasses
import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import flags as F
from repro.trace.array import TraceArray, int_table
from repro.trace.packets import (
    ENTRY_WORDS,
    PACKET_HEADER_WORDS,
    EventRows,
    IOEvent,
    TracePacket,
    dump_packets,
    load_packets,
    packet_overhead_ratio,
)
from repro.trace.procstat import ProcstatCollector, collect_to_list
from repro.trace.reconstruct import iter_events_in_time_order, reconstruct_records
from repro.util.errors import TraceFormatError


def event(i, *, fid=1, pid=1):
    return IOEvent(
        record_type=F.TRACE_LOGICAL_RECORD,
        file_id=fid,
        process_id=pid,
        operation_id=i,
        offset=i * 1024,
        length=1024,
        start_time=i * 100,
        duration=5,
        process_clock=i * 50 + 50,
    )


class TestCollector:
    def test_batches_per_file(self):
        events = [event(i, fid=i % 2) for i in range(10)]
        packets = collect_to_list(events, max_events_per_packet=100)
        assert len(packets) == 2
        assert {p.file_id for p in packets} == {0, 1}
        assert sum(len(p) for p in packets) == 10

    def test_packet_size_limit(self):
        events = [event(i) for i in range(25)]
        packets = collect_to_list(events, max_events_per_packet=10)
        assert [len(p) for p in packets] == [10, 10, 5]

    def test_force_flush_interval(self):
        # Two files; flush fires every 6 events regardless of per-file fill
        events = [event(i, fid=i % 2) for i in range(12)]
        packets = collect_to_list(
            events, max_events_per_packet=1000, flush_interval=6
        )
        assert len(packets) == 4  # 2 files x 2 flush epochs
        epochs = sorted({p.flush_epoch for p in packets})
        assert epochs == [0, 1]

    def test_amortized_header_overhead(self):
        events = [event(i) for i in range(512)]
        packets = collect_to_list(events, max_events_per_packet=512)
        ratio = packet_overhead_ratio(packets)
        assert ratio < 0.01
        # one-record-per-packet pathological case
        tiny = collect_to_list(events[:4], max_events_per_packet=1)
        assert packet_overhead_ratio(tiny) == pytest.approx(
            PACKET_HEADER_WORDS / (PACKET_HEADER_WORDS + ENTRY_WORDS)
        )

    def test_sequences_are_emission_order(self):
        events = [event(i, fid=i % 3) for i in range(30)]
        packets = collect_to_list(events, max_events_per_packet=5)
        assert [p.sequence for p in packets] == sorted(p.sequence for p in packets)

    def test_close_flushes_and_rejects(self):
        packets = []
        c = ProcstatCollector(packets.append, max_events_per_packet=100)
        c.submit(event(0))
        assert packets == []
        c.close()
        assert len(packets) == 1
        with pytest.raises(RuntimeError):
            c.submit(event(1))

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            ProcstatCollector(lambda p: None, max_events_per_packet=0)
        with pytest.raises(ValueError):
            ProcstatCollector(lambda p: None, flush_interval=0)

    def test_emitted_packets_hold_rows_not_events(self):
        def live_events():
            return sum(type(o) is IOEvent for o in gc.get_objects())

        before = live_events()
        packets = collect_to_list(
            (event(i, fid=i % 3) for i in range(100)),
            max_events_per_packet=8,
            flush_interval=30,
        )
        assert live_events() == before
        assert sum(len(p) for p in packets) == 100
        assert all(
            type(p.events) is EventRows and p.events.rows.dtype == np.int64
            for p in packets
        )
        restored = sorted(
            (e for p in packets for e in p.events), key=lambda e: e.operation_id
        )
        assert restored == [event(i, fid=i % 3) for i in range(100)]


class TestEventRows:
    def test_a_packet_from_a_list_equals_one_from_its_rows(self):
        events = [event(i) for i in range(5)]
        listed = TracePacket(3, 1, 1, 1, events)
        from_rows = TracePacket(3, 1, 1, 1, EventRows(int_table(events, 9)))
        assert listed == from_rows
        assert listed.events.rows.shape == (5, 9)
        assert all(type(e) is IOEvent for e in listed.events)
        assert list(listed.events) == events
        assert listed.events == events and events == listed.events
        assert listed.events[1] == events[1] and listed.events[-1] == events[-1]
        assert listed.events[1:3] == events[1:3]
        assert listed != TracePacket(3, 1, 1, 1, events[:4])
        assert TracePacket(0, 0, 1, 1) == TracePacket(0, 0, 1, 1, [])
        assert len(TracePacket(0, 0, 1, 1).events) == 0

    def test_rows_are_read_only(self):
        packet = TracePacket(0, 0, 1, 1, [event(1)])
        with pytest.raises(ValueError):
            packet.events.rows[0, 4] = 7
        with pytest.raises(TypeError):
            hash(packet.events)
        with pytest.raises(dataclasses.FrozenInstanceError):
            packet.events = [event(2)]


class TestPacketFiles:
    def test_dump_load_round_trip(self, tmp_path):
        events = [event(i, fid=i % 2, pid=1 + i % 2) for i in range(20)]
        packets = collect_to_list(events, max_events_per_packet=4)
        path = tmp_path / "packets.log"
        dump_packets(path, packets)
        loaded = list(load_packets(path))
        assert len(loaded) == len(packets)
        for a, b in zip(packets, loaded):
            assert a.sequence == b.sequence
            assert a.flush_epoch == b.flush_epoch
            assert a.events == b.events

    def test_load_rejects_truncated(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("P 0 0 1 1 3\nE 128 0 0 1024 0 5 50\n")
        with pytest.raises(TraceFormatError):
            list(load_packets(path))

    def test_load_rejects_orphan_event(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("E 128 0 0 1024 0 5 50\n")
        with pytest.raises(TraceFormatError):
            list(load_packets(path))

    def test_load_rejects_unknown_tag(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("X nonsense\n")
        with pytest.raises(TraceFormatError):
            list(load_packets(path))


class TestReconstruction:
    def test_interleaved_files_restored_to_time_order(self):
        # Interleave two files; per-file batching scrambles global order.
        events = [event(i, fid=i % 2) for i in range(40)]
        packets = collect_to_list(events, max_events_per_packet=8)
        restored = list(iter_events_in_time_order(packets))
        assert [e.operation_id for e in restored] == list(range(40))

    def test_records_carry_process_time_deltas(self):
        events = [event(i) for i in range(5)]
        packets = collect_to_list(events)
        records = reconstruct_records(packets)
        assert [r.process_time for r in records] == [50, 50, 50, 50, 50]

    def test_reconstructed_records_as_columns(self):
        events = [event(i, fid=i % 2) for i in range(10)]
        packets = collect_to_list(events, max_events_per_packet=3)
        arr = TraceArray.from_records(reconstruct_records(packets))
        assert len(arr) == 10
        assert list(arr.operation_id) == list(range(10))

    def test_quiet_file_survives_flush_boundary(self):
        # A parameter file touched once at the start and once at the end,
        # with a torrent to the data file in between: the early event must
        # still come out first.
        events = [event(0, fid=9)]
        events += [event(i, fid=1) for i in range(1, 99)]
        events += [event(99, fid=9)]
        packets = collect_to_list(events, max_events_per_packet=10, flush_interval=25)
        restored = list(iter_events_in_time_order(packets))
        assert restored[0].file_id == 9
        assert restored[-1].file_id == 9
        assert [e.operation_id for e in restored] == list(range(100))

    def test_rejects_unordered_packet_log(self):
        events = [event(i) for i in range(4)]
        packets = collect_to_list(events, max_events_per_packet=1, flush_interval=2)
        packets.reverse()
        with pytest.raises(ValueError):
            list(iter_events_in_time_order(packets))

    @settings(max_examples=50, deadline=None)
    @given(
        n_events=st.integers(1, 200),
        n_files=st.integers(1, 5),
        packet_cap=st.integers(1, 50),
        flush=st.integers(1, 100),
    )
    def test_reconstruction_is_lossless_property(
        self, n_events, n_files, packet_cap, flush
    ):
        events = [event(i, fid=i % n_files) for i in range(n_events)]
        packets = collect_to_list(
            events, max_events_per_packet=packet_cap, flush_interval=flush
        )
        restored = list(iter_events_in_time_order(packets))
        assert sorted(restored, key=lambda e: e.operation_id) == events
        assert [e.operation_id for e in restored] == list(range(n_events))
