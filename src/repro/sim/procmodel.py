"""Trace-driven process replay (section 6.1).

"For each process, there is an input trace in our format, which
determines the size of each I/O and the elapsed time between it and the
next I/O."

A :class:`TraceProcess` walks a single-process trace: it computes for
each record's ``processTime`` delta (plus the configurable per-I/O file
system overhead), then issues the record's I/O against the buffer cache.
Synchronous requests block the process until the cache reports
completion; asynchronous ones (the `les` pattern) let it continue
immediately -- the cache still moves the data.

The replay loop is columnar: the trace's fields are decoded once into
plain Python lists (:meth:`TraceArray.replay_columns`) at construction,
so issuing a record costs a handful of list reads.  Indexing the NumPy
columns per record would box fresh scalars -- and going through the
``is_write``/``is_async`` properties would recompute a full-trace
boolean array for every record, turning replay quadratic.  Multi-block
requests flow to the cache as whole extents; the run-coalesced cache
(see :mod:`repro.sim.cache`) turns each into O(runs) work rather than
O(blocks).
"""

from __future__ import annotations

import numpy as np

from repro.sim.cache import BufferCache
from repro.sim.config import SchedulerConfig
from repro.sim.events import Engine
from repro.sim.metrics import Metrics
from repro.sim.scheduler import RoundRobinScheduler
from repro.trace.array import TraceArray
from repro.util.errors import SimulationError
from repro.util.units import ticks_to_seconds


class TraceProcess:
    """One replayed process."""

    def __init__(
        self,
        process_id: int,
        trace: TraceArray,
        *,
        engine: Engine,
        scheduler: RoundRobinScheduler,
        cache: BufferCache,
        metrics: Metrics,
        sched_config: SchedulerConfig,
        on_finish=None,
    ):
        if len(trace.process_ids()) > 1:
            raise SimulationError(
                "TraceProcess needs a single-process trace; got "
                f"{len(trace.process_ids())} process ids"
            )
        self.process_id = process_id
        self.trace = trace
        self.engine = engine
        self.scheduler = scheduler
        self.cache = cache
        self.metrics = metrics
        self.sched_config = sched_config
        self.on_finish = on_finish

        deltas = trace.process_time_deltas().astype(float) * ticks_to_seconds(1)
        self._deltas_s: list[float] = deltas.tolist()
        (
            self._file_ids,
            self._offsets,
            self._lengths,
            self._writes,
            self._asyncs,
        ) = trace.replay_columns()
        self._n_records = len(trace)
        self._pstats = metrics.process(process_id)
        self._fs_overhead_s = sched_config.fs_overhead_s
        self._cursor = 0
        self._pending_compute = self._deltas_s[0] if self._n_records else 0.0
        self._blocked_at: float | None = None
        # One synchronous I/O at most is outstanding: the process blocks
        # on it until ``_io_done`` unblocks it.  ``_armed``: the process
        # blocked on it; ``_fired_inline``: it completed before the
        # submit returned.  Both are False between I/Os.
        self._armed = False
        self._fired_inline = False
        self.finished = self._n_records == 0

    # -- Runnable protocol ---------------------------------------------------
    def compute_remaining(self) -> float:
        return self._pending_compute

    def consume_compute(self, seconds: float) -> None:
        left = self._pending_compute - seconds
        self._pending_compute = left if left > 0.0 else 0.0

    def on_cpu_available(self) -> bool:
        """Issue I/Os until we block, finish, or need more compute."""
        n = self._n_records
        cache = self.cache
        while True:
            i = self._cursor
            if i >= n:
                self.finished = True
                self.scheduler.mark_done(self)
                if self.on_finish is not None:
                    self.on_finish(self)
                return False

            self._cursor = i + 1
            self._pstats.n_ios += 1
            # Load the *next* record's compute demand now; it runs after
            # this I/O is out the door.
            next_i = i + 1
            pending = self._deltas_s[next_i] if next_i < n else 0.0
            self._pending_compute = pending + self._fs_overhead_s

            file_id = self._file_ids[i]
            offset = self._offsets[i]
            length = self._lengths[i]
            is_async = self._asyncs[i]
            # An asynchronous I/O (the les pattern) is fire and forget:
            # the cache moves the data; the process's overlap discipline
            # is already baked into its CPU deltas.
            on_done = _noop if is_async else self._io_done
            if self._writes[i]:
                cache.write(file_id, offset, length, self.process_id, on_done)
            else:
                cache.read(file_id, offset, length, self.process_id, on_done)
            if is_async or self._fired_inline:
                # No block at all (for a synchronous I/O, a zero-latency
                # completion such as a free main-memory hit).
                self._fired_inline = False
                if self._pending_compute > 0:
                    return True
                continue
            self._armed = True
            self._blocked_at = self.engine.now
            self.scheduler.mark_blocked(self)
            return False

    # -- internals ----------------------------------------------------------
    def _io_done(self, cpu_penalty_s: float) -> None:
        # The SSD copy-through penalty is CPU demand, not a sleep; fold
        # it into the compute the process owes before its next I/O.
        self._pending_compute += cpu_penalty_s
        if not self._armed:
            self._fired_inline = True
            return
        self._armed = False
        if self._blocked_at is not None:
            self._pstats.blocked_seconds += self.engine.now - self._blocked_at
            self._blocked_at = None
        self.scheduler.unblock(self)


def _noop(cpu_penalty_s: float = 0.0) -> None:
    return None


def split_trace_by_process(trace: TraceArray) -> dict[int, TraceArray]:
    """Per-process single-process traces from a merged trace."""
    return {int(pid): trace.for_process(int(pid)) for pid in trace.process_ids()}


def relabel_copies(
    trace: TraceArray, n_copies: int, *, file_id_stride: int = 1000
) -> list[TraceArray]:
    """``n_copies`` independent instances of a single-process trace.

    Each copy gets a distinct process id and a shifted file-id space --
    the experiments run "two identical copies of venus ... not sharing
    data sets", so the copies must not alias each other's files.
    """
    if len(trace.process_ids()) != 1:
        raise SimulationError("relabel_copies needs a single-process trace")
    max_fid = int(trace.file_id.max()) if len(trace) else 0
    if max_fid >= file_id_stride:
        raise SimulationError(
            f"file_id_stride {file_id_stride} too small for max id {max_fid}"
        )
    copies = []
    for k in range(n_copies):
        cols = trace.columns().copy()
        cols["process_id"] = np.full(len(trace), k + 1, dtype=np.uint32)
        cols["file_id"] = trace.file_id + k * file_id_stride
        copies.append(TraceArray(**cols))
    return copies
