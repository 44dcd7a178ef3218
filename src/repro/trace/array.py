"""Columnar trace representation for multi-million-record traces.

The bvi trace alone holds ~1.9 million I/Os; a Python object per record
would be prohibitively slow for analysis.  :class:`TraceArray` keeps one
NumPy array per field (struct-of-arrays) and is the canonical bulk form
flowing between the workload generators, the analysis package and the
buffering simulator.  Conversion to/from :class:`~repro.trace.record.TraceRecord`
sequences bridges to the ASCII format layer.

Times here are *absolute*: ``start_time`` is the absolute wall-clock tick
of each I/O and ``process_clock`` is the absolute process-CPU tick at the
I/O start.  Per-process deltas (what the trace format stores) are derived
on demand.

This module is also the canonical *decode target*: producers that
materialize traces row by row (the ASCII batch decoder, the packet-log
reconstruction) append scalars to a :class:`TraceArrayBuilder` and
convert to columns once, instead of building a Python object per record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.trace import flags as F
from repro.trace.record import TraceRecord
from repro.util.units import ticks_to_seconds

_FIELDS = (
    ("record_type", np.uint16),
    ("file_id", np.uint32),
    ("process_id", np.uint32),
    ("operation_id", np.uint64),
    ("offset", np.int64),
    ("length", np.int64),
    ("start_time", np.int64),
    ("duration", np.int64),
    ("process_clock", np.int64),
)


class TraceArrayBuilder:
    """Append-only columnar sink for streaming decoders.

    Rows are appended as plain Python scalars (no intermediate record
    objects) and converted to NumPy columns exactly once in
    :meth:`build`.  ``process_clock`` must already be the *absolute*
    per-process CPU tick -- integrating the format's ``processTime``
    deltas is the producer's job, since only it knows which rows belong
    to which stream.
    """

    __slots__ = tuple(name for name, _ in _FIELDS)

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, [])

    def __len__(self) -> int:
        return len(self.record_type)

    def append(
        self,
        record_type: int,
        file_id: int,
        process_id: int,
        operation_id: int,
        offset: int,
        length: int,
        start_time: int,
        duration: int,
        process_clock: int,
    ) -> None:
        self.record_type.append(record_type)
        self.file_id.append(file_id)
        self.process_id.append(process_id)
        self.operation_id.append(operation_id)
        self.offset.append(offset)
        self.length.append(length)
        self.start_time.append(start_time)
        self.duration.append(duration)
        self.process_clock.append(process_clock)

    def build(self) -> "TraceArray":
        return TraceArray(
            *(
                np.asarray(getattr(self, name), dtype=dtype)
                for name, dtype in _FIELDS
            )
        )


@dataclass
class TraceArray:
    """A trace as parallel NumPy columns (one row per I/O record)."""

    record_type: np.ndarray
    file_id: np.ndarray
    process_id: np.ndarray
    operation_id: np.ndarray
    offset: np.ndarray
    length: np.ndarray
    start_time: np.ndarray
    duration: np.ndarray
    process_clock: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.record_type)
        for name, dtype in _FIELDS:
            col = np.asarray(getattr(self, name))
            if col.shape != (n,):
                raise ValueError(
                    f"column {name!r} has shape {col.shape}, expected ({n},)"
                )
            setattr(self, name, col.astype(dtype, copy=False))

    # -- construction -----------------------------------------------------
    @classmethod
    def empty(cls) -> "TraceArray":
        return cls(*(np.zeros(0, dtype=dtype) for _, dtype in _FIELDS))

    @classmethod
    def from_columns(cls, **columns: Sequence[int]) -> "TraceArray":
        """Build from keyword columns; missing columns default to zeros."""
        known = {name for name, _ in _FIELDS}
        unknown = set(columns) - known
        if unknown:
            raise TypeError(f"unknown columns: {sorted(unknown)}")
        lengths = {len(np.asarray(v)) for v in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"column lengths differ: {sorted(lengths)}")
        n = lengths.pop() if lengths else 0
        cols = []
        for name, dtype in _FIELDS:
            if name in columns:
                cols.append(np.asarray(columns[name], dtype=dtype))
            else:
                cols.append(np.zeros(n, dtype=dtype))
        return cls(*cols)

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "TraceArray":
        """Build from row records.

        The per-process ``process_time`` deltas in the records are
        integrated into absolute ``process_clock`` values.
        """
        rows = list(records)
        n = len(rows)
        arr = cls(*(np.zeros(n, dtype=dtype) for _, dtype in _FIELDS))
        clocks: dict[int, int] = {}
        for i, r in enumerate(rows):
            arr.record_type[i] = r.record_type
            arr.file_id[i] = r.file_id
            arr.process_id[i] = r.process_id
            arr.operation_id[i] = r.operation_id
            arr.offset[i] = r.offset
            arr.length[i] = r.length
            arr.start_time[i] = r.start_time
            arr.duration[i] = r.duration
            clock = clocks.get(r.process_id, 0) + r.process_time
            clocks[r.process_id] = clock
            arr.process_clock[i] = clock
        return arr

    # -- basics -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.record_type)

    def __getitem__(self, index) -> "TraceArray":
        """Row subset (mask, slice or fancy index) as a new TraceArray."""
        return TraceArray(
            *(np.atleast_1d(getattr(self, name)[index]) for name, _ in _FIELDS)
        )

    def columns(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name, _ in _FIELDS}

    @classmethod
    def concatenate(cls, parts: Sequence["TraceArray"]) -> "TraceArray":
        """Row-wise concatenation (no re-sorting)."""
        if not parts:
            return cls.empty()
        return cls(
            *(
                np.concatenate([getattr(p, name) for p in parts])
                for name, _ in _FIELDS
            )
        )

    def sorted_by_start(self) -> "TraceArray":
        """Rows sorted by wall-clock start time (stable)."""
        order = np.argsort(self.start_time, kind="stable")
        return self[order]

    # -- boolean views ------------------------------------------------------
    @property
    def is_write(self) -> np.ndarray:
        return (self.record_type & F.TRACE_WRITE) != 0

    @property
    def is_read(self) -> np.ndarray:
        return ~self.is_write

    @property
    def is_async(self) -> np.ndarray:
        return (self.record_type & F.TRACE_ASYNC) != 0

    @property
    def is_logical(self) -> np.ndarray:
        return (self.record_type & F.TRACE_LOGICAL_RECORD) != 0

    def reads(self) -> "TraceArray":
        return self[self.is_read]

    def writes(self) -> "TraceArray":
        return self[self.is_write]

    def for_file(self, file_id: int) -> "TraceArray":
        return self[self.file_id == file_id]

    def for_process(self, process_id: int) -> "TraceArray":
        return self[self.process_id == process_id]

    # -- aggregate quantities ----------------------------------------------
    @property
    def total_bytes(self) -> int:
        return int(self.length.sum())

    @property
    def read_bytes(self) -> int:
        return int(self.length[self.is_read].sum())

    @property
    def write_bytes(self) -> int:
        return int(self.length[self.is_write].sum())

    def file_ids(self) -> np.ndarray:
        return np.unique(self.file_id)

    def process_ids(self) -> np.ndarray:
        return np.unique(self.process_id)

    def cpu_seconds(self) -> float:
        """Total process CPU time covered, summed over processes."""
        total = 0
        for pid in self.process_ids():
            clock = self.process_clock[self.process_id == pid]
            if clock.size:
                total += int(clock.max())
        return ticks_to_seconds(total)

    def wall_seconds(self) -> float:
        """Wall-clock span from first start to last completion."""
        if len(self) == 0:
            return 0.0
        end = int((self.start_time + self.duration).max())
        return ticks_to_seconds(end - int(self.start_time.min()))

    def replay_columns(
        self,
    ) -> tuple[list[int], list[int], list[int], list[bool], list[bool]]:
        """``(file_ids, offsets, lengths, is_write, is_async)`` as lists.

        The simulator's replay loop touches one scalar per column per
        record; indexing the NumPy columns there would box a fresh
        scalar object each access -- and the ``is_write``/``is_async``
        *properties* would recompute a full-trace boolean array per
        record, an accidental O(n^2).  Decoding each column to a plain
        Python list once keeps the per-record cost at five list reads.
        """
        return (
            self.file_id.tolist(),
            self.offset.tolist(),
            self.length.tolist(),
            self.is_write.tolist(),
            self.is_async.tolist(),
        )

    def process_time_deltas(self) -> np.ndarray:
        """Per-record CPU-time delta since the same process's previous I/O.

        This is exactly the ``processTime`` field the trace format stores.
        Rows must be in a consistent order (per-process nondecreasing
        ``process_clock``); the first record of each process gets its full
        clock value.
        """
        deltas = np.zeros(len(self), dtype=np.int64)
        for pid in self.process_ids():
            mask = self.process_id == pid
            clock = self.process_clock[mask]
            d = np.diff(clock, prepend=0)
            if np.any(d < 0):
                raise ValueError(
                    f"process {pid} clock is not nondecreasing in row order"
                )
            deltas[mask] = d
        return deltas

    # -- conversion ---------------------------------------------------------
    def to_records(self) -> Iterator[TraceRecord]:
        """Iterate rows as :class:`TraceRecord` (process_time as deltas)."""
        deltas = self.process_time_deltas()
        for i in range(len(self)):
            yield TraceRecord(
                record_type=int(self.record_type[i]),
                offset=int(self.offset[i]),
                length=int(self.length[i]),
                start_time=int(self.start_time[i]),
                duration=int(self.duration[i]),
                operation_id=int(self.operation_id[i]),
                file_id=int(self.file_id[i]),
                process_id=int(self.process_id[i]),
                process_time=int(deltas[i]),
            )

    def with_process_id(self, process_id: int) -> "TraceArray":
        """A copy with every record's process id replaced."""
        cols = self.columns().copy()
        cols["process_id"] = np.full(len(self), process_id, dtype=np.uint32)
        return TraceArray(**cols)

    def shifted(self, ticks: int) -> "TraceArray":
        """A copy with all wall-clock start times shifted by ``ticks``."""
        cols = self.columns().copy()
        cols["start_time"] = self.start_time + ticks
        return TraceArray(**cols)
