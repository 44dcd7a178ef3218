"""The columnar collection path against its per-record references.

The packet-log writer and loader, the epoch merge and the whole-trace
encoder each run over columns, and each has a per-record reference: the
bytes of one ``str()`` per field and the per-line loader the parse
falls back to, :func:`global_sort_events` and the streaming
:class:`TraceEncoder`.  These tests pin the bytes the
path writes to digests recorded before it was columnar, hold the
whole-trace encoder to the streaming one on drawn streams (both paths),
and pin every error message, with its line number, to what the
per-record code raised.
"""

import dataclasses
import gc
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, use_registry
from repro.trace import flags as F
from repro.trace.array import RecordRows, TraceArray
from repro.trace.encode import TraceEncoder, encode_columns, record_columns
from repro.trace.io import write_trace, write_trace_array
from repro.trace.packets import (
    IOEvent,
    TracePacket,
    _log_fields,
    dump_packets,
    load_packets,
)
from repro.trace.procstat import collect_to_list
from repro.trace.reconstruct import (
    events_to_array,
    global_sort_events,
    iter_events_in_time_order,
    reconstruct_records,
)
from repro.trace.record import CommentRecord, TraceRecord
from repro.util.errors import TraceFormatError
from tests.harness import byte_pins


def test_byte_pins_hold():
    assert byte_pins.all_pins() == byte_pins.load_fixture()


# -- whole-trace encoder vs streaming encoder ---------------------------------


@st.composite
def record_streams(draw):
    """Record streams that reach every compression decision.

    Files are revisited sequentially and not, with the same and a
    changed length, at 512-multiples and other sizes, by several
    processes, at equal and increasing start times.  One special case
    at most rides along: a comment mid-stream, a negative id, a value
    past 2**53 (or past int64), or a start time going back.
    """
    n = draw(st.integers(1, 40))
    n_files = draw(st.integers(1, 4))
    n_procs = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    records = []
    last: dict[int, TraceRecord] = {}
    start = 0
    for op in range(1, n + 1):
        fid = rng.randrange(n_files)
        pid = 1 + rng.randrange(n_procs)
        prev = last.get(fid)
        size = rng.choice([512, 1024, 4096, 100, 777, 0])
        length = prev.length if prev and rng.random() < 0.5 else size
        if prev and rng.random() < 0.5:
            offset = prev.end_offset
        else:
            offset = rng.choice([0, 512, 8192, 1000, 123457])
        start += rng.choice([0, 0, 1, 37, 2000])
        record = TraceRecord(
            record_type=rng.choice([0x80, 0xC0, 0xC8, 0x00]),
            offset=offset,
            length=length,
            start_time=start,
            duration=rng.choice([0, 5, 120]),
            operation_id=prev.operation_id if prev and rng.random() < 0.3 else op,
            file_id=fid,
            process_id=pid,
            process_time=rng.choice([0, 3, 950]),
        )
        last[fid] = record
        records.append(record)
    special = draw(
        st.sampled_from(
            [None, None, None, "comment", "negative_id", "big", "huge", "backwards"]
        )
    )
    at = rng.randrange(n)
    if special == "comment":
        records.insert(at, CommentRecord("mid-stream"))
    elif special == "negative_id":
        field = rng.choice(["file_id", "process_id", "operation_id"])
        records[at] = records[at].replaced(**{field: -3})
    elif special in ("big", "huge"):
        value = 2**53 + 11 if special == "big" else 2**64 + 11
        field = rng.choice(["offset", "length", "operation_id", "process_time"])
        records[at] = records[at].replaced(**{field: value})
    elif special == "backwards":
        if n == 1:
            records.insert(0, records[0].replaced(start_time=records[0].start_time + 1))
        else:
            at = max(at, 1)
            earlier = records[at - 1].start_time - 1
            records[at] = records[at].replaced(start_time=earlier)
    return records, special


def _streamed(records, header, omit):
    """The streaming encoder's document, stats and error."""
    encoder = TraceEncoder(omit_operation_ids=omit)
    lines = []
    error = None
    try:
        for record in [CommentRecord(h) for h in header] + list(records):
            lines.append(encoder.encode(record) + "\n")
    except TraceFormatError as exc:
        error = str(exc)
    return "".join(lines).encode(), encoder.stats, error


@settings(max_examples=150, deadline=None)
@given(drawn=record_streams(), omit=st.booleans(), header=st.booleans())
def test_whole_trace_encoder_equals_streaming(tmp_path_factory, drawn, omit, header):
    records, special = drawn
    comments = ["identifying comment", "file 0 = /tmp/a"] if header else []
    expected, expected_stats, expected_error = _streamed(records, comments, omit)
    path = tmp_path_factory.mktemp("enc") / "t.trace"
    try:
        stats = write_trace(
            path, records, header_comments=comments, omit_operation_ids=omit
        )
        error = None
    except TraceFormatError as exc:
        stats, error = None, str(exc)
    assert error == expected_error
    assert path.read_bytes() == expected
    if error is None:
        assert dataclasses.asdict(stats) == dataclasses.asdict(expected_stats)

    columns = record_columns(records)
    encoded = None if columns is None else encode_columns(columns, omit_operation_ids=omit)
    if special is None:
        # The drawn plain streams must take the whole-trace path.
        assert encoded is not None
        body, body_stats = encoded
        assert expected.endswith(body)
        assert body_stats.records == expected_stats.records
    elif special in ("comment", "negative_id", "huge", "backwards"):
        assert encoded is None

    if error is None and special in (None, "big"):
        trace = TraceArray.from_records(records)
        array_path = path.with_suffix(".array")
        array_stats = write_trace_array(
            array_path, trace, header_comments=comments, omit_operation_ids=omit
        )
        assert array_path.read_bytes() == expected
        assert dataclasses.asdict(array_stats) == dataclasses.asdict(expected_stats)


def test_write_trace_array_falls_back_for_an_uint64_operation_id(tmp_path):
    trace = TraceArray.from_columns(
        record_type=[0x80, 0x80], length=[512, 512], start_time=[0, 5],
        offset=[0, 512], operation_id=[2**63 + 5, 7], file_id=[1, 1],
        process_id=[1, 1],
    )
    write_trace_array(tmp_path / "a.trace", trace)
    expected, _, _ = _streamed(list(trace.to_records()), [], False)
    assert (tmp_path / "a.trace").read_bytes() == expected


def test_decreasing_start_time_error_and_partial_file(tmp_path):
    records = [
        TraceRecord.make(write=False, offset=0, length=512, start_time=10),
        TraceRecord.make(write=False, offset=512, length=512, start_time=5),
    ]
    path = tmp_path / "t.trace"
    with pytest.raises(TraceFormatError) as info:
        write_trace(path, records, header_comments=["h"])
    assert str(info.value) == "start times must be nondecreasing (got 5 after 10)"
    expected, _, error = _streamed(records, ["h"], False)
    assert error == str(info.value)
    assert path.read_bytes() == expected
    assert expected.count(b"\n") == 2  # the header and the first record


# -- packet log ---------------------------------------------------------------


def _event(op, *, fid=1, pid=1, start=None, clock=None):
    return IOEvent(
        record_type=F.TRACE_LOGICAL_RECORD,
        file_id=fid,
        process_id=pid,
        operation_id=op,
        offset=op * 1024,
        length=1024,
        start_time=op * 100 if start is None else start,
        duration=5,
        process_clock=op * 50 + 50 if clock is None else clock,
    )


def _as_tuples(packets):
    return [
        (p.sequence, p.flush_epoch, p.process_id, p.file_id, list(p.events))
        for p in packets
    ]


class TestPacketLog:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 120),
        files=st.integers(1, 4),
        procs=st.integers(1, 3),
        cap=st.integers(1, 9),
        flush=st.integers(1, 50),
    )
    def test_dump_load_round_trip(self, tmp_path_factory, n, files, procs, cap, flush):
        events = [
            _event(i, fid=i % files, pid=1 + i % procs) for i in range(n)
        ]
        packets = collect_to_list(
            events, max_events_per_packet=cap, flush_interval=flush
        )
        path = tmp_path_factory.mktemp("log") / "p.log"
        dump_packets(path, packets)
        document = path.read_bytes()
        assert _log_fields(document) is not None  # the vectorized parse ran
        lines = []
        for p in packets:
            lines.append(
                f"P {p.sequence} {p.flush_epoch} {p.process_id} {p.file_id} "
                f"{len(p.events)}\n"
            )
            lines += [
                f"E {e.record_type} {e.operation_id} {e.offset} {e.length} "
                f"{e.start_time} {e.duration} {e.process_clock}\n"
                for e in p.events
            ]
        assert document == "".join(lines).encode()
        loaded = list(load_packets(path))
        assert _as_tuples(loaded) == _as_tuples(packets)
        assert all(type(e) is IOEvent for p in loaded for e in p.events)

    def test_values_at_the_grammar_bounds_parse_as_one_document(self, tmp_path):
        top = 10**18 - 1
        packets = [TracePacket(top, 0, 1, 1, [_event(0, clock=top)])]
        path = tmp_path / "p.log"
        dump_packets(path, packets)
        assert path.read_text() == f"P {top} 0 1 1 1\nE 128 0 0 1024 0 5 {top}\n"
        assert _log_fields(path.read_bytes()) is not None
        assert _as_tuples(load_packets(path)) == _as_tuples(packets)

    @pytest.mark.parametrize(
        "packet, message",
        [
            (
                TracePacket(0, 0, -1, 1, [_event(2, pid=-1)]),
                "packet log cannot hold process_id -1",
            ),
            (
                TracePacket(0, 0, 1, 1, [_event(2, clock=-7)]),
                "packet log cannot hold process_clock -7",
            ),
            (
                TracePacket(0, 0, 1, 1, [_event(2, start=10**18)]),
                "packet log cannot hold start_time 1000000000000000000",
            ),
            (
                TracePacket(0, 0, 1, 1, [_event(2, start=2**70)]),
                f"packet log cannot hold start_time {2**70}",
            ),
        ],
        ids=["negative-header", "negative-event", "19-digits", "past-int64"],
    )
    def test_values_outside_the_grammar_raise(self, tmp_path, packet, message):
        path = tmp_path / "p.log"
        with pytest.raises(ValueError, match=message):
            dump_packets(path, [packet])
        assert not path.exists()

    @pytest.mark.parametrize(
        "text, message, line",
        [
            (
                "P 0 0 1 1 3\nE 128 0 0 1024 0 5 50\nP 1 0 1 2 1\n"
                "E 128 1 0 1024 0 5 50\n",
                "line 3: packet truncated: 2 events missing",
                3,
            ),
            (
                "P 0 0 1 1 3\nE 128 0 0 1024 0 5 50\n",
                "packet truncated: 2 events missing",
                None,
            ),
            ("E 128 0 0 1024 0 5 50\n", "line 1: event line outside a packet", 1),
            (
                "P 0 0 1 1 1\nE 128 0 0 1024 0 5 50\nE 128 0 0 1024 0 5 50\n",
                "line 3: event line outside a packet",
                3,
            ),
            ("X nonsense\n", "line 1: unknown packet-log tag 'X'", 1),
            ("p 0 0 1 1 0\n", "line 1: unknown packet-log tag 'p'", 1),
            (
                "P 0 0 1 1 1\nE 128 0 0 1024 0 5 50\nQ 1 2\n",
                "line 3: unknown packet-log tag 'Q'",
                3,
            ),
            (
                "\n\nP 0 0 1 1 2\nE 128 0 0 1024 0 5 50\n\nP 1 0 1 1 1\n",
                "line 6: packet truncated: 1 events missing",
                6,
            ),
        ],
    )
    def test_format_errors_keep_message_and_line(self, tmp_path, text, message, line):
        path = tmp_path / "bad.log"
        path.write_text(text)
        with pytest.raises(TraceFormatError) as info:
            list(load_packets(path))
        assert str(info.value) == message
        assert info.value.line_number == line

    @pytest.mark.parametrize(
        "text, message, line",
        [
            ("P 0 0 1\n", "line 1: P line truncated before file_id", 1),
            ("P 0 0 1 1 1\nE 128 0 0\n", "line 2: E line truncated before length", 2),
            (
                "P 0 0 1 1 1\nE 128 0 0 abc 0 5 50\n",
                "line 2: non-integer length 'abc'",
                2,
            ),
            # A negative count fails at its own line, before any event.
            (
                "P 0 0 1 1 -1\nE 128 0 0 1024 0 5 50\nE 128 1 0 1024 0 5 50\n",
                "line 1: negative event count -1",
                1,
            ),
            ("P 0 0 1 1 -1\n", "line 1: negative event count -1", 1),
            (
                "P 0 0 1 1 1\nE 128 0 0 1024 0 5 50\nP 1 0 1 1 -2\n",
                "line 3: negative event count -2",
                3,
            ),
        ],
    )
    def test_unparsable_fields_keep_their_value_error(self, tmp_path, text, message, line):
        path = tmp_path / "bad.log"
        path.write_text(text)
        assert _log_fields(path.read_bytes()) is None
        with pytest.raises(TraceFormatError) as info:
            list(load_packets(path))
        assert str(info.value) == message
        assert info.value.line_number == line

    @pytest.mark.parametrize(
        "text",
        [
            # blank lines are skipped
            "P 0 0 1 1 2\n\nE 128 0 0 1024 0 5 50\n   \nE 128 1 0 1024 0 5 50\n",
            # extra tokens are ignored
            "P 0 0 1 1 2 99\nE 128 0 0 1024 0 5 50 77 x\nE 128 1 0 1024 0 5 50\n",
            # tabs, CRLF, double spaces, no final newline
            "P\t0 0 1 1 2\r\nE 128 0  0 1024 0 5 50\r\nE 128 1 0 1024 0 5 50",
        ],
    )
    def test_lenient_lines_load_as_before(self, tmp_path, text):
        path = tmp_path / "odd.log"
        path.write_text(text)
        assert _log_fields(path.read_bytes()) is None
        event = IOEvent(128, 1, 1, 0, 0, 1024, 0, 5, 50)
        assert _as_tuples(load_packets(path)) == [
            (0, 0, 1, 1, [event, event._replace(operation_id=1)])
        ]

    def test_empty_log_and_empty_packets(self, tmp_path):
        path = tmp_path / "p.log"
        dump_packets(path, [])
        assert path.read_bytes() == b""
        assert list(load_packets(path)) == []
        packets = [TracePacket(0, 0, 1, 1), TracePacket(1, 0, 1, 2, [_event(1, fid=2)])]
        dump_packets(path, packets)
        assert _as_tuples(load_packets(path)) == _as_tuples(packets)

    def test_a_strict_log_loads_as_rows_of_one_table(self, tmp_path):
        events = [_event(i, fid=i % 3, pid=1 + i % 2) for i in range(200)]
        packets = collect_to_list(events, max_events_per_packet=16, flush_interval=50)
        path = tmp_path / "p.log"
        dump_packets(path, packets)
        assert _log_fields(path.read_bytes()) is not None
        before = live_events()
        loaded = list(load_packets(path))
        assert live_events() == before
        assert _as_tuples(loaded) == _as_tuples(packets)
        table = loaded[0].events.rows.base
        assert table.shape == (200, 9) and table.dtype == np.int64
        assert all(np.shares_memory(p.events.rows, table) for p in loaded)


def live_events() -> int:
    """How many :class:`IOEvent` objects are alive (a named tuple is
    always tracked by the cyclic collector, so each one is listed)."""
    return sum(type(o) is IOEvent for o in gc.get_objects())


def test_io_event_is_a_value():
    a, b = _event(3), _event(3)
    assert a == b and hash(a) == hash(b) and a is not b
    assert repr(a).startswith("IOEvent(record_type=128, file_id=1, process_id=1,")
    with pytest.raises(AttributeError):
        a.offset = 5


# -- epoch merge ---------------------------------------------------------------


def _merge_logs():
    def ev(op, start):
        return _event(op, start=start, clock=0)

    logs = {
        "straggler": [
            TracePacket(0, 0, 1, 1, [ev(1, 10), ev(50, 1000)]),
            TracePacket(1, 1, 1, 1, [ev(2, 20)]),
            TracePacket(2, 2, 1, 1, [ev(3, 30)]),
            TracePacket(3, 3, 1, 1, [ev(4, 2000)]),
        ],
        "empty_epoch": [
            TracePacket(0, 0, 1, 1, [ev(1, 10), ev(7, 300)]),
            TracePacket(1, 1, 1, 2, []),
            TracePacket(2, 2, 1, 1, [ev(2, 20), ev(3, 400)]),
            TracePacket(3, 2, 1, 3, [ev(4, 350)]),
            TracePacket(4, 5, 1, 1, [ev(5, 500)]),
        ],
    }
    rng = random.Random(5)
    for flush in (3, 17, 100):
        events = []
        t = 0
        for i in range(300):
            t += rng.choice([0, 0, 1, 5])
            events.append(
                _event(i, fid=rng.randrange(4), pid=1 + rng.randrange(2), start=t, clock=0)
            )
        logs[f"collector_{flush}"] = collect_to_list(
            events, max_events_per_packet=7, flush_interval=flush
        )
    return logs


#: (carryover_peak, epochs_merged, events_carried_over) that the
#: per-event merge reported for :func:`_merge_logs`.
PER_EVENT_INSTRUMENTS = {
    "straggler": (3, 3, 2),
    "empty_epoch": (5, 3, 1),
    "collector_3": (12, 99, 118),
    "collector_17": (37, 17, 13),
    "collector_100": (200, 2, 0),
}


@pytest.mark.parametrize("name", sorted(PER_EVENT_INSTRUMENTS))
def test_merge_instruments_read_as_per_event(name):
    packets = _merge_logs()[name]
    reg = MetricsRegistry(enabled=True)
    with use_registry(reg):
        merged = list(iter_events_in_time_order(packets))
    assert merged == global_sort_events(packets)
    snap = reg.snapshot()
    assert (
        snap["trace.reconstruct.carryover_peak"]["peak"],
        snap["trace.reconstruct.epochs_merged"],
        snap["trace.reconstruct.events_carried_over"],
    ) == PER_EVENT_INSTRUMENTS[name]


def test_disabled_registry_gets_no_instrument_calls(monkeypatch):
    packets = _merge_logs()["collector_3"]
    calls = []
    reg = MetricsRegistry(enabled=False)
    monkeypatch.setattr(reg, "counter", lambda name: calls.append(name))
    monkeypatch.setattr(reg, "gauge", lambda name: calls.append(name))
    with use_registry(reg):
        reconstruct_records(packets)
    assert calls == []


def test_merge_handles_values_past_int64():
    big = 2**70
    packets = [
        TracePacket(0, 0, 1, 1, [_event(2, start=big + 5), _event(1, start=big)]),
        TracePacket(1, 1, 1, 1, [_event(3, start=big + 9, clock=big)]),
    ]
    merged = list(iter_events_in_time_order(packets))
    assert merged == global_sort_events(packets)
    records = reconstruct_records(packets)
    assert [r.start_time for r in records] == [big, big + 5, big + 9]
    assert records[-1].process_time == big - 150
    for given in (records, list(records)):
        with pytest.raises(OverflowError, match="too large to convert"):
            TraceArray.from_records(given)


def test_a_value_past_safe_int_merges_through_the_object_table():
    big = 2**62
    packets = [
        TracePacket(0, 0, 1, 1, [_event(1, start=big), _event(3, start=big + 2)]),
        TracePacket(1, 0, 1, 2, [_event(2, fid=2, start=7, clock=50)]),
        TracePacket(2, 1, 1, 1, [_event(4, start=big + 3, clock=big)]),
    ]
    assert [p.events.rows.dtype for p in packets] == [object, np.int64, object]
    merged = list(iter_events_in_time_order(packets))
    assert merged == global_sort_events(packets)
    assert [e.operation_id for e in merged] == [2, 1, 3, 4]
    expected = [
        TraceRecord(
            record_type=F.TRACE_LOGICAL_RECORD, offset=op * 1024, length=1024,
            start_time=start, duration=5, operation_id=op, file_id=fid,
            process_id=1, process_time=delta,
        )
        for op, fid, start, delta in [
            (2, 2, 7, 50),
            (1, 1, big, 50),
            (3, 1, big + 2, 100),
            (4, 1, big + 3, big - 200),
        ]
    ]
    records = reconstruct_records(packets)
    assert records == expected
    assert all(type(v) is int for r in records for v in r)


@pytest.mark.parametrize("base", [0, 2**62], ids=["int64", "object"])
def test_a_late_event_is_named_from_its_row(base):
    starts = [(1, 500), (2, 600), (3, 100), (4, 9999), (5, 10000)]
    packets = [
        TracePacket(k, k, 1, 1, [_event(op, start=base + start, clock=0)])
        for k, (op, start) in enumerate(starts)
    ]
    message = (
        "packet log violates the bounded-buffering contract: event 3 at "
        f"t={base + 100} surfaced after later events were already final"
    )
    with pytest.raises(ValueError) as info:
        reconstruct_records(packets)
    assert str(info.value) == message


# -- records as rows ------------------------------------------------------------


def live_records() -> int:
    """How many :class:`TraceRecord` objects are alive (tracked by the
    cyclic collector, like :class:`IOEvent`)."""
    return sum(type(o) is TraceRecord for o in gc.get_objects())


def _rows_log(base=0, pid=1):
    """A collected log of 30 events over three files, with start times
    from ``base`` (from ``2**62`` on, the tables hold Python ints)."""
    events = [
        _event(i, fid=i % 3, pid=pid, start=base + i * 100) for i in range(30)
    ]
    return collect_to_list(events, max_events_per_packet=4, flush_interval=7)


def test_reconstruct_records_builds_no_record(tmp_path, monkeypatch):
    path = tmp_path / "p.log"
    dump_packets(path, _rows_log())
    loaded = list(load_packets(path))
    before = live_records()
    records = reconstruct_records(loaded)
    assert live_records() == before
    assert type(records) is RecordRows and len(records) == 30
    # The rows own their table: no loaded packet's rows are shared.
    assert records.rows.shape == (30, 9) and records.rows.dtype == np.int64
    assert not any(np.shares_memory(records.rows, p.events.rows) for p in loaded)

    # The whole-trace writer and from_records read the table, not a row.
    def read_a_row(*args):
        raise AssertionError("a row was read")

    monkeypatch.setattr(RecordRows, "__iter__", read_a_row)
    monkeypatch.setattr(RecordRows, "__getitem__", read_a_row)
    write_trace(tmp_path / "t.trace", records)
    TraceArray.from_records(records)


@pytest.mark.parametrize("base", [0, 2**62], ids=["int64", "object"])
def test_records_read_as_the_list_did(base):
    packets = _rows_log(base)
    rows = reconstruct_records(packets)
    assert rows.rows.dtype == (object if base else np.int64)
    listed = list(events_to_array(global_sort_events(packets)).to_records())
    assert list(rows) == listed
    assert all(type(r) is TraceRecord for r in rows)
    assert all(type(v) is int for r in rows for v in r)
    assert len(rows) == len(listed) == 30
    for i in (0, 7, 29, -1, -30):
        assert rows[i] == listed[i] and type(rows[i]) is TraceRecord
    for i in (30, -31):
        with pytest.raises(IndexError):
            rows[i]
    for index in ([0, 1], 1.0):
        with pytest.raises(TypeError):
            rows[index]
    assert rows[True] == listed[1]
    part = rows[3:20:4]
    assert type(part) is RecordRows and part == listed[3:20:4]
    assert rows[::-1] == listed[::-1] and rows[5:5] == []
    assert rows == listed and listed == rows and rows != listed[:-1]
    assert rows == reconstruct_records(packets) and rows != part
    assert rows[1:] != rows[:-1] and rows[1:] != listed[:-1]
    assert repr(rows) == repr(listed)
    assert rows.index(listed[4]) == 4 and listed[4] in rows
    with pytest.raises(ValueError, match="read-only"):
        rows.rows[0, 1] = 7
    restored = pickle.loads(pickle.dumps(rows))
    assert type(restored) is RecordRows and restored == rows
    assert not restored.rows.flags.writeable
    with pytest.raises(TypeError):
        rows[0] = listed[1]
    with pytest.raises(TypeError):
        hash(rows)


@pytest.mark.parametrize(
    "base, pid, whole",
    [(0, 1, True), (2**62, 1, False), (0, -3, False)],
    ids=["whole-trace", "fallback-object", "fallback-negative-id"],
)
@pytest.mark.parametrize("omit", [False, True])
def test_write_trace_reads_rows_as_their_records(tmp_path, base, pid, whole, omit):
    rows = reconstruct_records(_rows_log(base, pid))
    columns = record_columns(rows)
    assert (columns is not None and encode_columns(columns) is not None) == whole
    header = ["identifying comment"]
    stats = write_trace(
        tmp_path / "rows.trace", rows, header_comments=header, omit_operation_ids=omit
    )
    listed_stats = write_trace(
        tmp_path / "list.trace", list(rows), header_comments=header,
        omit_operation_ids=omit,
    )
    assert (tmp_path / "rows.trace").read_bytes() == (
        tmp_path / "list.trace"
    ).read_bytes()
    assert dataclasses.asdict(stats) == dataclasses.asdict(listed_stats)
    assert stats.records == 30


@pytest.mark.parametrize("case", ["int64", "object", "clocks-past-safe-int"])
def test_from_records_reads_rows_as_their_records(case):
    if case == "clocks-past-safe-int":
        # A clock at SAFE_INT makes the event table an object table, but
        # every record value, the deltas included, fits an int64 table;
        # the deltas sum past SAFE_INT, so from_records integrates them
        # over Python ints.
        half = 2**61
        packets = [
            TracePacket(0, 0, 1, 1, [_event(1, clock=half), _event(2, clock=2 * half)]),
            TracePacket(1, 0, 2, 1, [_event(3, pid=2, clock=half)]),
        ]
        assert packets[0].events.rows.dtype == object
    else:
        packets = _rows_log(2**62 if case == "object" else 0)
    rows = reconstruct_records(packets)
    assert rows.rows.dtype == (object if case == "object" else np.int64)
    a, b = TraceArray.from_records(rows), TraceArray.from_records(list(rows))
    assert len(a) == len(b) == len(rows)
    for name, column in a.columns().items():
        assert column.dtype == getattr(b, name).dtype
        assert np.array_equal(column, getattr(b, name)), name


# -- errors the per-record conversions raised ----------------------------------


def test_backwards_clock_error():
    packets = [TracePacket(0, 0, 4, 1, [_event(1, pid=4, clock=90), _event(2, pid=4, clock=40)])]
    with pytest.raises(ValueError) as info:
        reconstruct_records(packets)
    assert str(info.value) == "process 4 CPU clock went backwards (90 -> 40)"
    with pytest.raises(ValueError) as info:
        events_to_array([e for p in packets for e in p.events])
    assert str(info.value) == "process 4 CPU clock went backwards (90 -> 40)"


@pytest.mark.parametrize(
    "change, message",
    [
        ({"record_type": F.TRACE_COMMENT}, "use CommentRecord for comment records"),
        ({"offset": -4}, "negative offset -4"),
        ({"length": -1}, "negative length -1"),
        ({"duration": -2}, "negative duration -2"),
    ],
)
def test_generation_keeps_the_record_errors(change, message):
    events = [_event(i) for i in range(4)]
    events[2] = events[2]._replace(**change)
    with pytest.raises(ValueError) as info:
        events_to_array(events)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        reconstruct_records([TracePacket(0, 0, 1, 1, events)])
    assert str(info.value) == message


def test_first_error_in_row_order_wins():
    events = [_event(i) for i in range(4)]
    events[1] = events[1]._replace(offset=-4)
    events[2] = events[2]._replace(process_clock=0)
    with pytest.raises(ValueError, match="negative offset -4"):
        events_to_array(events)
    with pytest.raises(ValueError, match="negative offset -4"):
        reconstruct_records([TracePacket(0, 0, 1, 1, events)])


def test_first_error_in_row_order_wins_for_a_backwards_clock():
    events = [_event(i) for i in range(4)]
    events[1] = events[1]._replace(process_clock=0)
    events[2] = events[2]._replace(offset=-4)
    message = "process 1 CPU clock went backwards (50 -> 0)"
    with pytest.raises(ValueError) as info:
        events_to_array(events)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        reconstruct_records([TracePacket(0, 0, 1, 1, events)])
    assert str(info.value) == message


@pytest.mark.parametrize(
    "change, message",
    [
        ({"file_id": 2**32 + 5}, "Python integer 4294967301 out of bounds for uint32"),
        ({"record_type": 70000}, "Python integer 70000 out of bounds for uint16"),
        ({"operation_id": -1}, "Python integer -1 out of bounds for uint64"),
        ({"process_id": -1}, "Python integer -1 out of bounds for uint32"),
        ({"offset": 2**70}, "Python int too large to convert to C long"),
    ],
)
def test_values_that_do_not_fit_raise_never_wrap(change, message):
    records = [
        TraceRecord.make(write=False, offset=0, length=1, start_time=i, operation_id=i)
        for i in range(3)
    ]
    records[1] = records[1].replaced(**change)
    with pytest.raises(OverflowError) as info:
        TraceArray.from_records(records)
    assert str(info.value) == message
    events = [_event(i) for i in range(3)]
    events[1] = events[1]._replace(**change)
    with pytest.raises(OverflowError) as info:
        events_to_array(events)
    assert str(info.value) == message


def test_from_records_integrates_clocks_per_process():
    records = [
        TraceRecord.make(write=False, offset=0, length=1, start_time=i,
                         process_id=1 + i % 2, process_time=10 + i)
        for i in range(6)
    ]
    trace = TraceArray.from_records(records)
    assert trace.process_clock.tolist() == [10, 11, 22, 24, 36, 39]
    assert all(col.flags.c_contiguous and col.base is None
               for col in trace.columns().values())
    assert np.array_equal(trace.process_time_deltas(), [10 + i for i in range(6)])
