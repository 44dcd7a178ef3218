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

This module is also the canonical *decode target*.  Producers that
hold their rows as Python objects (the tracer's events,
:meth:`TraceArray.from_records` over the ASCII decoder's records) read
every field in one pass with :func:`int_table` and convert the table
once with :meth:`TraceArray.from_table`.  The collection path keeps its
rows in such tables from end to end: a trace packet's events
(:class:`~repro.trace.packets.EventRows`) and the reconstructed records
(:class:`RecordRows`) are :class:`TableRows`, read-only sequences that
build a row's tuple only when it is read.  The per-process clock deltas
of the trace format, in both directions, are grouped NumPy passes
(:func:`group_cumsum`, :func:`clock_deltas`).
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import chain

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

#: Exclusive upper bounds of the columns above: the ``uint32`` ids, the
#: ``uint64`` operation id and the ``int64`` rest.
ID_END, OPERATION_ID_END, INT64_END = 1 << 32, 1 << 64, 1 << 63

#: Bound on the magnitude of every value of an int64 :func:`int_table`:
#: the sum or difference of any two of them is exact in int64.
SAFE_INT = 1 << 62

#: Each column's index in a :class:`TraceRecord`, ``process_time`` (a
#: delta) in the place of ``process_clock``: the order in which
#: :meth:`TraceArray.from_records` assigns them.
_RECORD_COLUMNS = [
    TraceRecord._fields.index(name) for name, _ in _FIELDS[:-1]
] + [TraceRecord._fields.index("process_time")]


def int_table(rows: Sequence, width: int) -> np.ndarray:
    """Rows of ``width`` Python ints as one ``(len(rows), width)`` table.

    A row is a tuple of its values (an :class:`~repro.trace.packets.IOEvent`,
    a :class:`~repro.trace.record.TraceRecord`).  NumPy reads them all
    in one pass, with no Python object per row or value.  The table is
    int64 when every value lies strictly within ``+-SAFE_INT``;
    otherwise it holds the same Python ints with ``dtype=object``, on
    which the same NumPy code computes exactly, only slower.
    """
    n = len(rows)
    try:
        flat = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=n * width)
    except OverflowError:
        flat = None
    if flat is None or not within_safe_int(flat):
        flat = np.fromiter(chain.from_iterable(rows), dtype=object, count=n * width)
    return flat.reshape(n, width)


def within_safe_int(values: np.ndarray) -> bool:
    """Whether every value lies strictly within ``+-SAFE_INT``: the
    values an int64 :func:`int_table` may hold."""
    return not values.size or bool(
        -SAFE_INT < values.min() and values.max() < SAFE_INT
    )


class TableRows(Sequence):
    """The rows of a read-only ``(k, width)`` :func:`int_table`, read as
    a sequence of tuples of one named tuple type.

    A subclass names its type (``class EventRows(TableRows,
    row_type=IOEvent)``), whose fields are the table's columns in order.
    The sequence reads like the list of tuples it replaces -- ``len``,
    indexing, slicing (to rows of the same table), iteration, equality
    with rows of its own type or with a list, and ``repr`` -- and builds
    each tuple, with ``tuple.__new__``, only when it is read.
    """

    __slots__ = ("rows",)

    #: A row's named tuple from the list of its values, set from the
    #: subclass's ``row_type`` (no Python frame, no field checks).
    _new: partial

    def __init_subclass__(cls, *, row_type: type, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._new = partial(tuple.__new__, row_type)

    def __init__(self, rows: np.ndarray):
        rows.flags.writeable = False
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return type(self)(self.rows[index])
        return self._new(self.rows[operator.index(index)].tolist())

    def __iter__(self) -> Iterator[tuple]:
        return map(self._new, self.rows.tolist())

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self.rows.shape == other.rows.shape and bool(
                (self.rows == other.rows).all()
            )
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    __hash__ = None  # unhashable, like the list it replaces

    def __repr__(self) -> str:
        return repr(list(self))

    def __reduce__(self):
        # Unpickling goes through __init__, so the table stays read-only.
        return type(self), (self.rows,)


class RecordRows(TableRows, row_type=TraceRecord):
    """A trace's records as the rows of one ``(n, 9)`` table in
    :class:`~repro.trace.record.TraceRecord` field order, ``process_time``
    a per-process clock delta.

    What :func:`~repro.trace.reconstruct.reconstruct_records` returns,
    its values already checked as the record constructor checks them.
    :meth:`TraceArray.from_records` and the trace writer read the table
    itself; a :class:`TraceRecord` is built only when a row is read.
    """

    __slots__ = ()


def group_order(keys: np.ndarray) -> np.ndarray:
    """Stable argsort that groups equal keys, keeping row order within each.

    Radix-fast when the keys fit 16 bits, as process and file ids in
    real traces do (numpy's stable argsort switches to radix sort at
    <= 16 bits, ~4x faster than the int64 merge sort).
    """
    small = (
        keys.dtype != object and keys.size and 0 <= keys.min() and keys.max() <= 0xFFFF
    )
    return np.argsort(keys.astype(np.uint16) if small else keys, kind="stable")


def previous_in_group(keys: np.ndarray) -> np.ndarray:
    """Index of the previous row with the same key; -1 for a key's first."""
    order = group_order(keys)
    prev = np.full(keys.size, -1, dtype=np.intp)
    later, earlier = order[1:], order[:-1]
    same = keys[later] == keys[earlier]
    prev[later[same]] = earlier[same]
    return prev


def group_cumsum(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Running sum of ``values`` within each key's rows, in row order."""
    order = group_order(keys)
    ordered = values[order]
    sums = np.cumsum(ordered)
    starts = np.empty(keys.size, dtype=bool)
    starts[:1] = True
    starts[1:] = keys[order[1:]] != keys[order[:-1]]
    before_group = (sums - ordered)[starts]
    out = np.empty_like(sums)
    out[order] = sums - before_group[np.cumsum(starts) - 1]
    return out


def clock_deltas(process: np.ndarray, clock: np.ndarray) -> np.ndarray:
    """Each row's clock delta since its process's previous row (the
    format's ``processTime``); a process's first row counts from 0."""
    prev = previous_in_group(process)
    return clock - np.where(prev >= 0, clock[prev], 0)


@dataclass
class TraceArray:
    """A trace as parallel NumPy columns (one row per I/O record).

    Each column is its own array in its final dtype.  Built from Python
    objects, the fields are read into one :func:`int_table` and copied
    out column by column (:meth:`from_table`), so no column is a view
    that keeps the whole table alive.
    """

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
    def from_table(cls, table: np.ndarray) -> "TraceArray":
        """Build from an ``(n, 9)`` :func:`int_table` in column order.

        Each column is copied into its own array of its final dtype, so
        no column keeps the table alive.  A value that does not fit its
        column never wraps: NumPy raises its own ``OverflowError`` for
        the first such value in row-major order (the order
        :meth:`from_records` assigns in).
        """
        first_bad: tuple[int, int] | None = None
        for j, (_, dtype) in enumerate(_FIELDS):
            col = table[:, j]
            info = np.iinfo(dtype)
            bad = np.flatnonzero((col < info.min) | (col > info.max))
            if bad.size:
                at = (int(bad[0]), j)
                first_bad = at if first_bad is None else min(first_bad, at)
        if first_bad is not None:
            row, j = first_bad
            np.array(int(table[row, j]), dtype=_FIELDS[j][1])  # raises
        return cls(
            *(np.array(table[:, j], dtype=dtype) for j, (_, dtype) in enumerate(_FIELDS))
        )

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "TraceArray":
        """Build from row records.

        The per-process ``process_time`` deltas in the records are
        integrated into absolute ``process_clock`` values.  The fields
        are read in one pass (:func:`int_table`; a :class:`RecordRows`'
        table is gathered as it is) and integrated per process with one
        grouped cumulative sum.
        """
        if isinstance(records, RecordRows):
            table = records.rows[:, _RECORD_COLUMNS]
        else:
            rows = records if isinstance(records, list) else list(records)
            table = int_table(rows, len(_FIELDS))[:, _RECORD_COLUMNS]
        deltas = table[:, -1]
        if table.dtype != object and (
            float(np.abs(deltas).sum(dtype=np.float64)) >= SAFE_INT
        ):
            table = table.astype(object)  # clocks could leave int64
            deltas = table[:, -1]
        table[:, -1] = group_cumsum(table[:, 2], deltas)
        return cls.from_table(table)

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
        ``process_clock``; otherwise ``ValueError`` names the lowest
        process id whose clock goes back); the first record of each
        process gets its full clock value.
        """
        deltas = clock_deltas(self.process_id, self.process_clock)
        backwards = deltas < 0
        if backwards.any():
            pid = int(self.process_id[backwards].min())
            raise ValueError(f"process {pid} clock is not nondecreasing in row order")
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
