"""Bounded priority job queue with admission control.

The server's backpressure lives here: a queue that is full **rejects**
(HTTP 429 at the API layer) instead of buffering without bound, because
a simulation job pins megabytes of trace columns once running and the
polite failure mode for a saturated service is an immediate, retryable
"try later", not an ever-growing backlog with ever-worse latency.

The queue is confined to the server's event loop -- every method is
called from loop context, so there are no locks; waiting consumers park
on futures.  Priorities are ints, **higher runs sooner**; ties break
FIFO by submission order.
"""

from __future__ import annotations

import heapq
from asyncio import Future, get_running_loop
from collections import deque

from repro.util.errors import ReproError


class QueueFull(ReproError):
    """Admission control rejected a job (the queue is at capacity)."""


class QueueClosed(ReproError):
    """The queue is shut down and accepts no further jobs."""


class JobQueue:
    """Priority queue of pending jobs, bounded at ``max_pending``.

    ``put_nowait`` raises :class:`QueueFull` beyond the bound and
    :class:`QueueClosed` after :meth:`close`; ``get`` suspends until a
    job is available (or returns None once closed and drained, the
    worker-shutdown signal).  :meth:`remove` supports cancelling a job
    that has not started.
    """

    def __init__(self, max_pending: int):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.max_pending = max_pending
        self._heap: list[tuple[int, int, object]] = []
        self._seq = 0
        self._waiters: deque[Future] = deque()
        self._closed = False

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def full(self) -> bool:
        return len(self._heap) >= self.max_pending

    def put_nowait(self, job, priority: int = 0) -> None:
        if self._closed:
            raise QueueClosed("job queue is shut down")
        if self.full:
            raise QueueFull(
                f"job queue is full ({len(self._heap)} pending, "
                f"bound {self.max_pending})"
            )
        # heapq is a min-heap; negate so higher priority pops first,
        # with the submission sequence breaking ties FIFO.
        heapq.heappush(self._heap, (-priority, self._seq, job))
        self._seq += 1
        self._wake_one()

    async def get(self):
        """Next job by (priority, FIFO) order; None once closed and empty."""
        while True:
            if self._heap:
                return heapq.heappop(self._heap)[2]
            if self._closed:
                return None
            waiter: Future = get_running_loop().create_future()
            self._waiters.append(waiter)
            await waiter

    def remove(self, job) -> bool:
        """Drop one pending job (identity match); False when not queued."""
        for index, entry in enumerate(self._heap):
            if entry[2] is job:
                self._heap[index] = self._heap[-1]
                self._heap.pop()
                heapq.heapify(self._heap)
                return True
        return False

    def drain(self) -> list:
        """Remove and return every pending job (shutdown: cancel them)."""
        jobs = [entry[2] for entry in sorted(self._heap)]
        self._heap.clear()
        return jobs

    def close(self) -> None:
        """Refuse new jobs and wake every waiting consumer."""
        self._closed = True
        while self._waiters:
            self._wake_one()

    def _wake_one(self) -> None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                return
