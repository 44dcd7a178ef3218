"""Trace file reading and writing.

Traces are plain ASCII text, one record per line, as produced by
:class:`~repro.trace.encode.TraceEncoder`.  The writer prepends an
identifying comment record (the paper notes comments were used "to
identify each trace with information in the trace itself").
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

from repro.trace.array import TraceArray
from repro.trace.decode import TraceDecoder
from repro.trace.encode import EncoderStats, TraceEncoder
from repro.trace.record import AnyRecord, CommentRecord, TraceRecord


def write_trace(
    path: str | Path,
    records: Iterable[AnyRecord],
    *,
    header_comments: Iterable[str] = (),
    omit_operation_ids: bool = False,
) -> EncoderStats:
    """Write records to ``path``; returns the encoder's compression stats."""
    encoder = TraceEncoder(omit_operation_ids=omit_operation_ids)
    with open(path, "w", encoding="ascii") as fh:
        for text in header_comments:
            fh.write(encoder.encode(CommentRecord(text)) + "\n")
        for record in records:
            fh.write(encoder.encode(record) + "\n")
    return encoder.stats


def read_trace(path: str | Path) -> Iterator[AnyRecord]:
    """Stream all records (including comments) from a trace file."""
    decoder = TraceDecoder()
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            record = decoder.decode(line)
            if record is not None:
                yield record


def read_io_records(path: str | Path) -> Iterator[TraceRecord]:
    """Stream only I/O records, skipping comments."""
    for record in read_trace(path):
        if isinstance(record, TraceRecord):
            yield record


def read_comments(path: str | Path) -> list[CommentRecord]:
    """All comment records of a trace, in order."""
    return [r for r in read_trace(path) if isinstance(r, CommentRecord)]


def write_trace_array(
    path: str | Path,
    trace: TraceArray,
    *,
    header_comments: Iterable[str] = (),
    omit_operation_ids: bool = False,
) -> EncoderStats:
    """Write a columnar trace to an ASCII trace file."""
    return write_trace(
        path,
        trace.to_records(),
        header_comments=header_comments,
        omit_operation_ids=omit_operation_ids,
    )


def read_trace_array(path: str | Path) -> TraceArray:
    """Load a trace file into the columnar representation.

    Uses the batch decoder (:meth:`TraceDecoder.decode_array`), which
    fills the columns directly without materializing a record object per
    line; tested byte-identical to the record-at-a-time path.  The file
    is opened in binary mode so the whole document reaches the
    vectorized decoder as one bytes buffer -- no text-layer decode and
    no per-line ``str`` round trip.
    """
    with open(path, "rb") as fh:
        return TraceDecoder().decode_array(fh)

