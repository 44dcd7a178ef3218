"""Property tests pinning the vectorized decoder to the scalar one.

The NumPy fast path (:mod:`repro.trace.decode_fast`) is an optimization,
not a second implementation of the format: on any document it accepts
it must produce *byte-identical* columns, and on any document it
rejects the record decoder must take over wholesale and raise the very
same diagnostics.  Hypothesis drives both directions here --
generated valid streams for the equivalence half, seeded mutations for
the rejection-parity half -- and the observability counters are used to
prove which path actually ran (a vacuous pass through the fallback would
prove nothing about the fast path).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import MetricsRegistry, use_registry
from repro.trace import flags as F
from repro.trace.array import TraceArray
from repro.trace.decode import TraceDecoder, decode_array
from repro.trace.encode import TraceEncoder
from repro.trace.record import CommentRecord, TraceRecord
from repro.util.errors import TraceFormatError
from tests.trace.test_roundtrip_fuzz import random_records

VECTORIZED = "trace.decode.vectorized_lines"
FALLBACK = "trace.decode.scalar_fallback_lines"


def _scalar_reference(lines):
    """Record-at-a-time decode: the ground truth columns."""
    records = [
        r for r in TraceDecoder().decode_all(lines) if isinstance(r, TraceRecord)
    ]
    return TraceArray.from_records(records)


def _document(lines) -> bytes:
    return ("\n".join(lines) + "\n").encode("ascii")


def _assert_columns_equal(a: TraceArray, b: TraceArray) -> None:
    assert len(a) == len(b)
    for name, col in a.columns().items():
        other = getattr(b, name)
        assert col.dtype == other.dtype, name
        np.testing.assert_array_equal(col, other, err_msg=name)


@settings(max_examples=75, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 80),
    omit_ops=st.booleans(),
    with_comment=st.booleans(),
)
def test_vectorized_decode_byte_identical(seed, n, omit_ops, with_comment):
    encoder = TraceEncoder(omit_operation_ids=omit_ops)
    lines = []
    if with_comment:
        lines.append(encoder.encode(CommentRecord(f"fuzz seed={seed}")))
    lines.extend(encoder.encode(r) for r in random_records(seed, n))
    reference = _scalar_reference(lines)

    registry = MetricsRegistry()
    with use_registry(registry):
        decoded = decode_array(_document(lines))

    # The fast path must actually have run -- the counters are the proof.
    assert registry.counter(VECTORIZED).value == len(lines)
    assert registry.counter(FALLBACK).value == 0
    _assert_columns_equal(decoded, reference)


# A tiny hand-built stream whose token layout is known, so mutations can
# target specific fields.  Line 1 is a full record; line 2 compresses.
def _base_lines():
    encoder = TraceEncoder()
    records = [
        TraceRecord(record_type=F.TRACE_WRITE, offset=0, length=512,
                    start_time=10, duration=3, operation_id=1, file_id=1,
                    process_id=1, process_time=5),
        TraceRecord(record_type=F.TRACE_WRITE, offset=512, length=512,
                    start_time=20, duration=3, operation_id=1, file_id=1,
                    process_id=1, process_time=5),
    ]
    return [encoder.encode(r) for r in records]


def _set_field(line: str, index: int, value: str) -> str:
    parts = line.split(" ")
    parts[index] = value
    return " ".join(parts)


#: A record line's fields after recordType and compression, in struct
#: order, each with the compression flag that omits it (0: never).
_LINE_FIELDS = (
    ("offset", F.TRACE_NO_BLOCK),
    ("length", F.TRACE_NO_LENGTH),
    ("start_time", 0),
    ("duration", 0),
    ("operation_id", F.TRACE_NO_OPERATIONID),
    ("file_id", F.TRACE_NO_FILEID),
    ("process_id", F.TRACE_NO_PROCESSID),
    ("process_time", 0),
)


def _with_fields(line: str, **values: str) -> str:
    """``line`` with the named fields set to ``values``; a field the
    compression flags omitted is made explicit."""
    record_type, compression, *rest = line.split(" ")
    compression = int(compression)
    tokens = iter(rest)
    out = []
    for name, omitted_by in _LINE_FIELDS:
        token = None if compression & omitted_by else next(tokens)
        if name in values:
            token = values[name]
            compression &= ~omitted_by
        if token is not None:
            out.append(token)
    return " ".join([record_type, str(compression), *out])


_MUTATIONS = {
    "truncated": lambda line: line.rsplit(" ", 1)[0],
    "non_integer": lambda line: line + " x",
    "tab_separator": lambda line: line.replace(" ", "\t", 1),
    "bad_record_type": lambda line: "999 " + line.split(" ", 1)[1],
    "bad_compression": lambda line: _set_field(line, 1, "16"),
    "negative_start_delta": lambda line: _with_fields(line, start_time="-7"),
    "trailing_field": lambda line: line + " 1 2 3",
    # Fields TraceRecord rejects, and a value its TraceArray column
    # cannot hold (a new file's first record, so its state is explicit).
    "negative_offset": lambda line: _with_fields(line, offset="-7"),
    "negative_length": lambda line: _with_fields(line, length="-7"),
    "negative_completion_time": lambda line: _with_fields(line, duration="-7"),
    "negative_process_time": lambda line: _with_fields(line, process_time="-7"),
    "file_id_past_uint32": lambda line: _with_fields(
        line, offset="0", length="0", operation_id="0", file_id=str(2**32 + 5)
    ),
    "offset_past_int64": lambda line: _with_fields(line, offset=str(2**63)),
    "operation_id_past_uint64": lambda line: _with_fields(
        line, operation_id=str(2**64)
    ),
    "start_time_past_int64": lambda line: _with_fields(line, start_time=str(2**63)),
    "process_clock_past_int64": lambda line: _with_fields(
        line, process_time=str(2**63)
    ),
}


@pytest.mark.parametrize("name", sorted(_MUTATIONS))
@pytest.mark.parametrize("target", [0, 1])
def test_malformed_rejection_parity(name, target):
    # Any grammar or semantic deviation must route to the scalar
    # decoder, which raises the same error (message and line number)
    # whether the document is decoded to records or to columns.
    lines = _base_lines()
    lines[target] = _MUTATIONS[name](lines[target])

    with pytest.raises(TraceFormatError) as scalar_err:
        _scalar_reference(lines)

    registry = MetricsRegistry()
    with use_registry(registry):
        with pytest.raises(TraceFormatError) as batch_err:
            decode_array(_document(lines))

    assert str(batch_err.value) == str(scalar_err.value)
    assert registry.counter(VECTORIZED).value == 0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    target_frac=st.floats(0.0, 1.0),
    name=st.sampled_from(sorted(_MUTATIONS)),
)
def test_malformed_rejection_parity_fuzzed(seed, n, target_frac, name):
    # Same parity property, but over generated streams with the mutation
    # landing on an arbitrary line.
    encoder = TraceEncoder()
    lines = [encoder.encode(r) for r in random_records(seed, n)]
    target = min(int(target_frac * len(lines)), len(lines) - 1)
    lines[target] = _MUTATIONS[name](lines[target])

    with pytest.raises(TraceFormatError) as scalar_err:
        _scalar_reference(lines)
    with pytest.raises(TraceFormatError) as batch_err:
        decode_array(_document(lines))
    assert str(batch_err.value) == str(scalar_err.value)


def test_multi_space_separator_matches():
    # Extra spaces between tokens are legal for the scalar parser
    # (str.split); whichever path handles them, output must match.
    lines = _base_lines()
    lines[0] = lines[0].replace(" ", "  ", 1)
    reference = _scalar_reference(lines)
    _assert_columns_equal(decode_array(_document(lines)), reference)


def test_indented_comment_falls_back_and_matches():
    # A comment line with leading whitespace is outside the encoder
    # grammar (comment detection keys on a "255 " line prefix): the
    # whole document must be re-decoded scalar, with identical output.
    lines = [" 255 an indented comment", *_base_lines()]
    reference = _scalar_reference(lines)

    registry = MetricsRegistry()
    with use_registry(registry):
        decoded = decode_array(_document(lines))

    assert registry.counter(VECTORIZED).value == 0
    assert registry.counter(FALLBACK).value == len(lines)
    _assert_columns_equal(decoded, reference)


def test_trailing_newline_variants_equal():
    lines = _base_lines()
    reference = _scalar_reference(lines)
    doc = "\n".join(lines).encode("ascii")
    for variant in (doc, doc + b"\n", doc + b"\n\n"):
        _assert_columns_equal(decode_array(variant), reference)


def test_non_ascii_comment_falls_back_and_matches():
    # The fast path takes ASCII documents only; a Latin-1 byte in a
    # comment sends the whole document to the scalar loop, which skips
    # the comment and yields the same columns.
    lines = _base_lines()
    reference = _scalar_reference(lines)
    doc = b"255 caf\xe9\n" + _document(lines)

    registry = MetricsRegistry()
    with use_registry(registry):
        decoded = decode_array(doc)

    assert registry.counter(VECTORIZED).value == 0
    assert registry.counter(FALLBACK).value == len(lines) + 1
    _assert_columns_equal(decoded, reference)
