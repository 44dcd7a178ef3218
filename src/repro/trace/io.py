"""Trace file reading and writing.

Traces are plain ASCII text, one record per line, as produced by
:class:`~repro.trace.encode.TraceEncoder`.  The writer prepends an
identifying comment record (the paper notes comments were used "to
identify each trace with information in the trace itself").

Both writers encode the records after the header comments as one
document (:func:`~repro.trace.encode.encode_columns`) and fall back to
the streaming encoder for a trace outside its grammar.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.trace.array import TraceArray
from repro.trace.decode import TraceDecoder
from repro.trace.encode import (
    RECORD_FIELDS,
    EncoderStats,
    TraceEncoder,
    encode_columns,
    record_columns,
)
from repro.trace.record import AnyRecord, CommentRecord, TraceRecord


def _write(
    path: str | Path,
    header_comments: Iterable[str],
    omit_operation_ids: bool,
    columns: Callable[[], Sequence[np.ndarray] | None],
    records: Iterable[AnyRecord],
) -> EncoderStats:
    """Write the header, then the body from ``columns()`` in one piece,
    or, when the columns are outside the whole-trace grammar, from
    ``records`` line by line."""
    encoder = TraceEncoder(omit_operation_ids=omit_operation_ids)

    def line(record: AnyRecord) -> bytes:
        return (encoder.encode(record) + "\n").encode("ascii")

    with open(path, "wb") as fh:
        for text in header_comments:
            fh.write(line(CommentRecord(text)))
        body = columns()
        encoded = (
            None
            if body is None
            else encode_columns(body, omit_operation_ids=omit_operation_ids)
        )
        if encoded is None:
            fh.writelines(map(line, records))
        else:
            document, stats = encoded
            fh.write(document)
            encoder.stats.add(stats)
    return encoder.stats


def write_trace(
    path: str | Path,
    records: Iterable[AnyRecord],
    *,
    header_comments: Iterable[str] = (),
    omit_operation_ids: bool = False,
) -> EncoderStats:
    """Write records to ``path``; returns the encoder's compression stats."""
    records = records if isinstance(records, list) else list(records)
    return _write(
        path,
        header_comments,
        omit_operation_ids,
        lambda: record_columns(records),
        records,
    )


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
    """Write a columnar trace to an ASCII trace file.

    The columns go to the whole-trace encoder as they are, with the
    per-process clocks turned into deltas; only a trace outside its
    grammar is written record by record (:meth:`TraceArray.to_records`).
    """

    def columns() -> list[np.ndarray]:
        # An operation id past int64 wraps negative here, and the
        # encoder refuses negative values.
        deltas = trace.process_time_deltas()
        return [
            (deltas if name == "process_time" else getattr(trace, name)).astype(
                np.int64
            )
            for name in RECORD_FIELDS
        ]

    return _write(
        path, header_comments, omit_operation_ids, columns, trace.to_records()
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

