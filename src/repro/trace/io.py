"""Trace file reading and writing.

Traces are plain ASCII text, one record per line, as produced by
:class:`~repro.trace.encode.TraceEncoder`.  The writer prepends an
identifying comment record (the paper notes comments were used "to
identify each trace with information in the trace itself").

Both writers encode the records after the header comments as one
document (:func:`~repro.trace.encode.encode_columns`) and fall back to
the streaming encoder for a trace outside its grammar.  The one reader,
:func:`read_trace_array`, decodes a file into columns.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.trace.array import RecordRows, TraceArray
from repro.trace.decode import decode_array
from repro.trace.encode import (
    RECORD_FIELDS,
    EncoderStats,
    TraceEncoder,
    encode_columns,
    record_columns,
)
from repro.trace.record import AnyRecord, CommentRecord


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
    """Write records to ``path``; returns the encoder's compression stats.

    A :class:`~repro.trace.array.RecordRows` (what
    :func:`~repro.trace.reconstruct.reconstruct_records` returns) is
    encoded from its table, with no record built unless the streaming
    encoder runs.
    """
    if not isinstance(records, (list, RecordRows)):
        records = list(records)
    return _write(
        path,
        header_comments,
        omit_operation_ids,
        lambda: record_columns(records),
        records,
    )


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

    The one trace-file reader.  The file's bytes go to the batch decoder
    (:func:`~repro.trace.decode.decode_array`) as one document, which
    fills the columns directly without a record object or a ``str`` per
    line; tested byte-identical to the record-at-a-time path.
    """
    with open(path, "rb") as fh:
        return decode_array(fh.read())

