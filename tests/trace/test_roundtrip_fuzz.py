"""Property-based round trips: encode -> decode -> encode is byte-identical.

Random record streams come from :func:`repro.util.rng.derive_rng`
(hypothesis only draws the seed and stream shape), biased so every
compression opportunity fires: sequential offset extension
(``TRACE_NO_BLOCK``), repeated request sizes (``TRACE_NO_LENGTH``),
512-multiple offsets/lengths (``*_IN_BLOCKS``), and file/process/
operation-id omission.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import flags as F
from repro.trace.array import TraceArray
from repro.trace.decode import decode_lines
from repro.trace.encode import TraceEncoder
from repro.trace.record import CommentRecord, TraceRecord
from repro.util.rng import derive_rng


def random_records(seed: int, n: int, n_files: int = 3, n_procs: int = 2):
    """A valid random trace: nondecreasing starts, biased toward the
    streams the compressor exploits."""
    rng = derive_rng(seed, "trace-roundtrip-fuzz")
    records = []
    start = 0
    next_offset: dict[int, int] = {}
    last_length: dict[int, int] = {}
    for _ in range(n):
        file_id = int(rng.integers(1, n_files + 1))
        process_id = int(rng.integers(1, n_procs + 1))

        draw = rng.random()
        if file_id in next_offset and draw < 0.35:
            offset = next_offset[file_id]  # sequential extension
        elif draw < 0.65:
            offset = int(rng.integers(0, 1 << 16)) * F.TRACE_BLOCK_SIZE
        else:
            offset = int(rng.integers(0, 1 << 24))

        if file_id in last_length and rng.random() < 0.4:
            length = last_length[file_id]  # same size as previous
        elif rng.random() < 0.5:
            length = int(rng.integers(1, 1 << 10)) * F.TRACE_BLOCK_SIZE
        else:
            length = int(rng.integers(0, 1 << 16))

        start += int(rng.integers(0, 1000))
        records.append(
            TraceRecord(
                record_type=F.make_record_type(
                    write=bool(rng.integers(0, 2)),
                    logical=bool(rng.integers(0, 2)),
                    asynchronous=bool(rng.integers(0, 2)),
                    kind=F.DataKind(int(rng.integers(0, 4))),
                ),
                offset=offset,
                length=length,
                start_time=start,
                duration=int(rng.integers(0, 500)),
                operation_id=int(rng.integers(0, 4)),
                file_id=file_id,
                process_id=process_id,
                process_time=int(rng.integers(0, 300)),
            )
        )
        next_offset[file_id] = offset + length
        last_length[file_id] = length
    return records


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 120))
def test_encode_decode_encode_byte_identical(seed, n):
    records = random_records(seed, n)
    lines = list(TraceEncoder().encode_all(records))
    decoded = decode_lines(lines)
    assert decoded == records
    # byte-identical re-encode
    assert list(TraceEncoder().encode_all(decoded)) == lines


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80))
def test_roundtrip_through_trace_array(seed, n):
    records = random_records(seed, n)
    lines = list(TraceEncoder().encode_all(records))
    via_array = list(TraceArray.from_records(records).to_records())
    assert via_array == records
    assert list(TraceEncoder().encode_all(via_array)) == lines


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    comment_every=st.integers(1, 5),
)
def test_roundtrip_with_interleaved_comments(seed, n, comment_every):
    records = []
    for i, record in enumerate(random_records(seed, n)):
        if i % comment_every == 0:
            records.append(CommentRecord(f"file {i} = /tmp/f{i}"))
        records.append(record)
    lines = list(TraceEncoder().encode_all(records))
    decoded = decode_lines(lines)
    assert decoded == records
    assert list(TraceEncoder().encode_all(decoded)) == lines


def test_generator_exercises_every_compression_flag():
    # The property tests are only as strong as the corpus: a fixed seed
    # must light up all seven compression bits.
    lines = list(TraceEncoder().encode_all(random_records(seed=0, n=400)))
    seen = 0
    for line in lines:
        seen |= int(line.split()[1])
    assert seen == F.TRACE_COMPRESSION_MASK


def test_sequential_extension_omits_offset():
    a = TraceRecord.make(write=False, offset=1024, length=512, start_time=0)
    b = TraceRecord.make(write=False, offset=1536, length=512, start_time=10)
    lines = list(TraceEncoder().encode_all([a, b]))
    compression = int(lines[1].split()[1])
    assert compression & F.TRACE_NO_BLOCK
    assert compression & F.TRACE_NO_LENGTH
    assert decode_lines(lines) == [a, b]


def test_same_size_different_offset_omits_length_only():
    a = TraceRecord.make(write=False, offset=0, length=777, start_time=0)
    b = TraceRecord.make(write=False, offset=9001, length=777, start_time=10)
    lines = list(TraceEncoder().encode_all([a, b]))
    compression = int(lines[1].split()[1])
    assert compression & F.TRACE_NO_LENGTH
    assert not compression & F.TRACE_NO_BLOCK
    assert decode_lines(lines) == [a, b]


def test_block_multiples_use_in_blocks_flags():
    r = TraceRecord.make(
        write=True, offset=4 * F.TRACE_BLOCK_SIZE, length=2 * F.TRACE_BLOCK_SIZE,
        start_time=0,
    )
    (line,) = TraceEncoder().encode_all([r])
    compression = int(line.split()[1])
    assert compression & F.TRACE_OFFSET_IN_BLOCKS
    assert compression & F.TRACE_LENGTH_IN_BLOCKS
    assert line.split()[2:4] == ["4", "2"]  # stored in 512-byte blocks
    assert decode_lines([line]) == [r]


def test_encoder_stats_count_bytes():
    records = random_records(seed=7, n=50)
    encoder = TraceEncoder()
    lines = list(encoder.encode_all(records))
    assert encoder.stats.records == 50
    assert encoder.stats.bytes_written == sum(len(l) + 1 for l in lines)
