"""Encoder/decoder: the delta-compressed ASCII format round-trips exactly."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import flags as F
from repro.trace.decode import TraceDecoder, decode_lines
from repro.trace.encode import TraceEncoder
from repro.trace.record import CommentRecord, TraceRecord
from repro.util.errors import TraceFormatError


def rec(
    start,
    *,
    offset=0,
    length=1024,
    write=False,
    op=0,
    fid=1,
    pid=1,
    ptime=10,
    duration=3,
    asynchronous=False,
):
    return TraceRecord.make(
        write=write,
        offset=offset,
        length=length,
        start_time=start,
        duration=duration,
        operation_id=op,
        file_id=fid,
        process_id=pid,
        process_time=ptime,
        asynchronous=asynchronous,
    )


class TestEncoder:
    def test_first_record_fully_explicit(self):
        record = rec(100, offset=512, length=1024, op=7)
        lines = list(TraceEncoder().encode_all([record]))
        parts = lines[0].split()
        # recordType, compression, offset(blocks), length(blocks), start,
        # completion, opId, fileId, processId, processTime
        assert len(parts) == 10
        compression = int(parts[1])
        assert compression == F.TRACE_OFFSET_IN_BLOCKS | F.TRACE_LENGTH_IN_BLOCKS
        assert int(parts[2]) == 1  # 512 / 512
        assert int(parts[3]) == 2  # 1024 / 512

    def test_sequential_same_size_compresses_hard(self):
        records = [
            rec(0, offset=0, length=1024, op=0),
            rec(10, offset=1024, length=1024, op=1),
            rec(20, offset=2048, length=1024, op=2),
        ]
        lines = list(TraceEncoder(omit_operation_ids=True).encode_all(records))
        # 2nd and 3rd records: only type, compression, start, completion,
        # processTime remain
        for line in lines[1:]:
            parts = line.split()
            assert len(parts) == 5
            compression = int(parts[1])
            assert compression & F.TRACE_NO_BLOCK
            assert compression & F.TRACE_NO_LENGTH
            assert compression & F.TRACE_NO_FILEID
            assert compression & F.TRACE_NO_PROCESSID
            assert compression & F.TRACE_NO_OPERATIONID

    def test_non_block_aligned_values_not_in_blocks(self):
        lines = list(TraceEncoder().encode_all([rec(0, offset=100, length=999)]))
        compression = int(lines[0].split()[1])
        assert not compression & F.TRACE_OFFSET_IN_BLOCKS
        assert not compression & F.TRACE_LENGTH_IN_BLOCKS

    def test_rejects_time_going_backwards(self):
        encoder = TraceEncoder()
        encoder.encode(rec(100))
        with pytest.raises(TraceFormatError):
            encoder.encode(rec(50))

    def test_comment_encoding(self):
        encoder = TraceEncoder()
        line = encoder.encode(CommentRecord("trace of venus"))
        assert line == "255 trace of venus"
        assert encoder.stats.comments == 1

    def test_comment_rejects_newline(self):
        with pytest.raises(TraceFormatError):
            TraceEncoder().encode(CommentRecord("a\nb"))

    def test_comment_does_not_disturb_state(self):
        records = [rec(0, offset=0), CommentRecord("x"), rec(10, offset=1024)]
        lines = list(TraceEncoder().encode_all(records))
        # third line should still compress offset as sequential
        assert int(lines[2].split()[1]) & F.TRACE_NO_BLOCK

    def test_stats_counts(self):
        records = [
            rec(0, offset=0, length=1024),
            rec(10, offset=1024, length=1024),
        ]
        encoder = TraceEncoder(omit_operation_ids=True)
        for r in records:
            encoder.encode(r)
        s = encoder.stats
        assert s.records == 2
        assert s.omitted_offset == 1
        assert s.omitted_length == 1
        assert s.omitted_file_id == 1
        assert s.omitted_process_id == 1
        assert s.omission_rate() == pytest.approx(5 / 2)


class TestDecoder:
    def round_trip(self, records, **kw):
        lines = list(TraceEncoder(**kw).encode_all(records))
        return [r for r in decode_lines(lines) if isinstance(r, TraceRecord)]

    def test_simple_round_trip(self):
        records = [
            rec(5, offset=512, length=2048, op=1, fid=2, pid=3, ptime=4, duration=9),
            rec(15, offset=2560, length=2048, op=2, fid=2, pid=3, ptime=6),
            rec(30, offset=0, length=100, op=3, fid=4, pid=3, ptime=2, write=True),
        ]
        assert self.round_trip(records) == records

    def test_round_trip_interleaved_files(self):
        # venus-style interleaving across files: per-file state must be kept
        records = []
        t = 0
        for i in range(12):
            fid = i % 3 + 1
            records.append(
                rec(t, offset=(i // 3) * 4096, length=4096, op=i, fid=fid, pid=1)
            )
            t += 7
        assert self.round_trip(records) == records

    def test_round_trip_multi_process(self):
        records = []
        t = 0
        for i in range(10):
            pid = i % 2 + 10
            records.append(
                rec(t, offset=i * 512, length=512, op=i, fid=pid * 10, pid=pid)
            )
            t += 3
        assert self.round_trip(records) == records

    def test_omitted_operation_ids_reconstruct_from_file_state(self):
        records = [
            rec(0, offset=0, op=42),
            rec(10, offset=1024, op=99),
        ]
        decoded = self.round_trip(records, omit_operation_ids=True)
        # second record's op id was dropped; decoder reuses the file's last
        assert decoded[0].operation_id == 42
        assert decoded[1].operation_id == 42

    def test_decode_blank_lines_skipped(self):
        decoder = TraceDecoder()
        assert decoder.decode("") is None
        assert decoder.decode("   \n") is None

    def test_decode_comment(self):
        out = decode_lines(["255 hello there"])
        assert out == [CommentRecord("hello there")]

    def test_error_bad_record_type(self):
        with pytest.raises(TraceFormatError):
            decode_lines(["abc 0 1 2 3 4 5 6 7 8"])
        with pytest.raises(TraceFormatError):
            decode_lines(["300 0 0 1 0 0 0 0 0 0"])

    def test_error_omission_without_state(self):
        # NO_BLOCK on the very first record: no file state exists
        compression = F.TRACE_NO_BLOCK
        line = f"{F.TRACE_LOGICAL_RECORD} {compression} 1024 0 0 1 1 1 0"
        with pytest.raises(TraceFormatError):
            decode_lines([line])

    def test_error_processid_omitted_first(self):
        compression = F.TRACE_NO_PROCESSID
        line = f"{F.TRACE_LOGICAL_RECORD} {compression} 0 1024 0 0 1 1 0"
        with pytest.raises(TraceFormatError):
            decode_lines([line])

    def test_error_truncated_record(self):
        with pytest.raises(TraceFormatError):
            decode_lines([f"{F.TRACE_LOGICAL_RECORD} 0 0 1024"])

    def test_error_trailing_fields(self):
        line = f"{F.TRACE_LOGICAL_RECORD} 0 0 1024 0 0 1 1 1 0 99"
        with pytest.raises(TraceFormatError):
            decode_lines([line])

    def test_error_unknown_compression_bits(self):
        line = f"{F.TRACE_LOGICAL_RECORD} {0x10} 0 1024 0 0 1 1 1 0"
        with pytest.raises(TraceFormatError):
            decode_lines([line])

    def test_error_in_blocks_on_omitted_field(self):
        compression = F.TRACE_NO_BLOCK | F.TRACE_OFFSET_IN_BLOCKS
        line = f"{F.TRACE_LOGICAL_RECORD} {compression} 1024 0 0 1 1 1 0"
        with pytest.raises(TraceFormatError):
            decode_lines([line])

    def test_error_reports_line_number(self):
        lines = list(TraceEncoder().encode_all([rec(0)])) + ["garbage line here"]
        with pytest.raises(TraceFormatError, match="line 2"):
            decode_lines(lines)


# ---------------------------------------------------------------------------
# Property-based round trip
# ---------------------------------------------------------------------------

record_strategy = st.builds(
    rec,
    st.integers(0, 10**6),  # placeholder start; overwritten below
    offset=st.integers(0, 2**40),
    length=st.integers(1, 2**30),
    write=st.booleans(),
    asynchronous=st.booleans(),
    op=st.integers(0, 2**32),
    fid=st.integers(0, 200),
    pid=st.integers(0, 8),
    ptime=st.integers(0, 10**7),
    duration=st.integers(0, 10**7),
)


@st.composite
def trace_strategy(draw):
    """A well-formed trace: records with nondecreasing start times."""
    records = draw(st.lists(record_strategy, max_size=60))
    t = 0
    fixed = []
    for r in records:
        t += draw(st.integers(0, 10**6))
        fixed.append(r.replaced(start_time=t))
    return fixed


@settings(max_examples=200, deadline=None)
@given(trace_strategy(), st.booleans())
def test_round_trip_property(records, omit_ops):
    lines = list(TraceEncoder(omit_operation_ids=omit_ops).encode_all(records))
    decoded = [r for r in decode_lines(lines) if isinstance(r, TraceRecord)]
    assert len(decoded) == len(records)
    for original, got in zip(records, decoded):
        if omit_ops:
            got = got.replaced(operation_id=original.operation_id)
        assert got == original
