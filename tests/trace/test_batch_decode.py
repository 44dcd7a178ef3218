"""Batch decode and columnar-replay helpers: byte-identical to row paths.

The batch decoder (:func:`~repro.trace.decode.decode_array`) exists
purely for speed; every test here pins it to the record-at-a-time
reference output, including the error diagnostics (a truncated line
must fail identically through both paths).
"""

import numpy as np
import pytest

from repro.obs.registry import MetricsRegistry, use_registry
from repro.trace import flags as F
from repro.trace.array import TraceArray
from repro.trace.decode import decode_array, decode_lines
from repro.trace.encode import TraceEncoder
from repro.trace.io import read_trace_array, write_trace_array
from repro.trace.record import TraceRecord
from repro.util.errors import TraceFormatError
from repro.util.rng import DEFAULT_SEED
from repro.workloads.base import generate_workload


@pytest.fixture(scope="module")
def venus_lines():
    workload = generate_workload("venus", scale=0.05, seed=DEFAULT_SEED)
    encoder = TraceEncoder()
    return [encoder.encode(r) for r in workload.trace.to_records()]


def _document(lines) -> bytes:
    return ("\n".join(lines) + "\n").encode("ascii")


def _assert_arrays_equal(a: TraceArray, b: TraceArray) -> None:
    assert len(a) == len(b)
    for name, col in a.columns().items():
        other = getattr(b, name)
        assert col.dtype == other.dtype, name
        np.testing.assert_array_equal(col, other, err_msg=name)


def test_decode_array_matches_record_path(venus_lines):
    via_records = TraceArray.from_records(
        r for r in decode_lines(venus_lines) if isinstance(r, TraceRecord)
    )
    via_batch = decode_array(_document(venus_lines))
    _assert_arrays_equal(via_batch, via_records)


def test_decode_array_skips_comments_and_blanks(venus_lines):
    noisy = [f"{F.TRACE_COMMENT} a header comment", "", *venus_lines, "  "]
    batch = decode_array(_document(noisy))
    assert len(batch) == len(venus_lines)


def test_decode_array_errors_match_record_path():
    # Same failure, same message, same line number through both paths:
    # decode_array shares the field parser with decode().
    lines = ["8 0 4096 4096"]  # plain write, truncated before startTime
    with pytest.raises(TraceFormatError, match="truncated before") as batch:
        decode_array(_document(lines))
    with pytest.raises(TraceFormatError, match="truncated before") as record:
        decode_lines(lines)
    assert str(batch.value) == str(record.value)


def test_decode_array_integrates_process_clocks_per_process():
    # Two interleaved processes: each one's process_clock must integrate
    # its own deltas independently, exactly like from_records.
    records = [
        TraceRecord(record_type=0, offset=0, length=512, start_time=10,
                    duration=1, operation_id=1, file_id=1, process_id=1,
                    process_time=100),
        TraceRecord(record_type=0, offset=0, length=512, start_time=20,
                    duration=1, operation_id=2, file_id=2, process_id=2,
                    process_time=7),
        TraceRecord(record_type=0, offset=512, length=512, start_time=30,
                    duration=1, operation_id=3, file_id=1, process_id=1,
                    process_time=50),
    ]
    encoder = TraceEncoder()
    lines = [encoder.encode(r) for r in records]
    batch = decode_array(_document(lines))
    np.testing.assert_array_equal(batch.process_clock, [100, 7, 150])


def test_read_trace_array_roundtrip(tmp_path, venus_lines):
    # read_trace_array now goes through the batch decoder; the full
    # write -> read cycle must reproduce the columns bit for bit.
    workload = generate_workload("venus", scale=0.05, seed=DEFAULT_SEED)
    path = tmp_path / "venus.trace"
    write_trace_array(path, workload.trace, header_comments=["roundtrip"])
    _assert_arrays_equal(read_trace_array(path), workload.trace)


def test_fallback_without_records_has_the_column_dtypes():
    # A non-ASCII comment and a tab send the document to the record
    # decoder, which finds no record in it.
    registry = MetricsRegistry()
    with use_registry(registry):
        decoded = decode_array(b"255 caf\xe9\n\t\n")
    assert registry.counter("trace.decode.scalar_fallback_lines").value == 2
    assert len(decoded) == 0
    reference = TraceArray.empty()
    for name, col in decoded.columns().items():
        assert col.dtype == getattr(reference, name).dtype, name


# -- replay helpers ---------------------------------------------------------

def test_replay_columns_match_properties():
    workload = generate_workload("les", scale=0.05, seed=DEFAULT_SEED)
    trace = workload.trace
    fids, offs, lens, writes, asyncs = trace.replay_columns()
    assert fids == trace.file_id.tolist()
    assert offs == trace.offset.tolist()
    assert lens == trace.length.tolist()
    assert writes == trace.is_write.tolist()
    assert asyncs == trace.is_async.tolist()
    assert all(isinstance(w, bool) for w in writes)

