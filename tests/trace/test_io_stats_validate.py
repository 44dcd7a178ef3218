"""Trace file I/O, size accounting and trace validation."""

import pytest

from repro.trace.array import TraceArray
from repro.trace.decode import decode_lines
from repro.trace.io import read_trace_array, write_trace, write_trace_array
from repro.trace.record import CommentRecord, TraceRecord
from repro.trace.stats import BINARY_RECORD_BYTES, measure_trace_sizes
from repro.trace.validate import validate_array
from repro.util.errors import TraceFormatError


def sequential_records(n=50, length=4096):
    out = []
    for i in range(n):
        out.append(
            TraceRecord.make(
                write=False,
                offset=i * length,
                length=length,
                start_time=i * 100,
                duration=10,
                operation_id=i,
                file_id=1,
                process_id=1,
                process_time=80,
            )
        )
    return out


class TestFileIO:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "t.trace"
        records = sequential_records()
        stats = write_trace(path, records, header_comments=["venus trace"])
        assert stats.records == len(records)
        back = read_trace_array(path)
        assert list(back.to_records()) == records
        comments = [
            r
            for r in decode_lines(path.read_text().splitlines())
            if isinstance(r, CommentRecord)
        ]
        assert comments == [CommentRecord("venus trace")]

    def test_array_round_trip(self, tmp_path):
        path = tmp_path / "t.trace"
        arr = TraceArray.from_records(sequential_records())
        write_trace_array(path, arr)
        back = read_trace_array(path)
        assert list(back.to_records()) == list(arr.to_records())


class TestSizes:
    def test_compression_shrinks_sequential_trace(self):
        records = sequential_records(200)
        report = measure_trace_sizes(records)
        assert report.n_records == 200
        assert report.compression_ratio > 1.8
        assert report.bytes_per_record < 20

    def test_ascii_beats_binary_on_sequential_traces(self):
        # The appendix's claim: text traces were *shorter* than binary.
        records = sequential_records(500)
        report = measure_trace_sizes(records)
        assert report.binary_bytes == 500 * BINARY_RECORD_BYTES
        assert report.ascii_vs_binary_ratio > 1.0

    def test_empty_trace(self):
        report = measure_trace_sizes([])
        assert report.compression_ratio == 0.0
        assert report.ascii_vs_binary_ratio == 0.0
        assert report.bytes_per_record == 0.0


class TestValidation:
    def test_valid_stream(self):
        report = validate_array(TraceArray.from_records(sequential_records()))
        assert report.ok
        report.raise_if_failed()

    def test_detects_zero_length(self):
        bad = sequential_records(3)
        bad[1] = bad[1].replaced(length=0)
        report = validate_array(TraceArray.from_records(bad))
        assert not report.ok
        assert "length" in report.problems[0]
        with pytest.raises(TraceFormatError):
            report.raise_if_failed()

    def test_detects_time_reversal(self):
        recs = sequential_records(3)
        recs[2] = recs[2].replaced(start_time=recs[1].start_time - 50)
        report = validate_array(TraceArray.from_records(recs))
        assert any("nondecreasing" in p for p in report.problems)

    def test_detects_cpu_clock_overrun(self):
        # Process claims 1000 ticks of CPU between I/Os only 100 wall
        # ticks apart: impossible on one CPU.
        recs = [
            TraceRecord.make(
                write=False, offset=0, length=1, start_time=0,
                operation_id=0, file_id=1, process_id=1, process_time=0,
            ),
            TraceRecord.make(
                write=False, offset=1, length=1, start_time=100,
                operation_id=1, file_id=1, process_id=1, process_time=1000,
            ),
        ]
        report = validate_array(TraceArray.from_records(recs))
        assert any("CPU clock" in p for p in report.problems)

    def test_array_validation_matches(self):
        arr = TraceArray.from_records(sequential_records())
        assert validate_array(arr).ok

    def test_array_validation_detects_problems(self):
        arr = TraceArray.from_columns(
            length=[100, 100],
            start_time=[100, 0],
            process_clock=[1, 2],
            process_id=[1, 1],
        )
        report = validate_array(arr)
        assert any("nondecreasing" in p for p in report.problems)

    def test_array_validation_cpu_overrun(self):
        arr = TraceArray.from_columns(
            length=[1, 1],
            start_time=[0, 10],
            process_clock=[0, 5000],
            process_id=[1, 1],
        )
        report = validate_array(arr)
        assert any("CPU clock" in p for p in report.problems)
