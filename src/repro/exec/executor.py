"""Sweep execution backends: inline serial, and a queue of worker processes.

A :class:`SweepRunner` decides *what* to simulate (cache lookups, keys,
seeds); an :class:`Executor` decides *how* the remaining points run.
The runner picks the backend from its effective job count:

* :class:`SerialExecutor` -- inline, no processes, for one job.  Also
  the ground truth the conformance suite compares the queue against.
* :class:`QueueExecutor` -- long-lived worker processes pulling point
  specs from a shared :mod:`multiprocessing` task queue, for more than
  one job.  Work is claimed, not pre-assigned, and a worker that dies
  mid-point is replaced and its point re-queued
  (``exec.executor.worker_restarts`` counts the replacements).

The contract both backends honor -- locked down for each backend x
result-cache arrangement by ``tests/harness/executor_contract.py``:

* every task is simulated exactly once (or re-run verbatim after a
  worker death) and produces the bit-identical result of a direct
  ``simulate()`` call -- the backend never enters the point key;
* ``on_result(task, result, elapsed_s)`` fires once per task as it
  completes;
* a failing point raises :class:`~repro.util.errors.SweepError` naming
  the point and chained to the point's own error, abandoning
  still-queued work (fail fast);
* ``should_cancel`` returning true raises
  :class:`~repro.util.errors.SweepCancelled` without leaking worker
  processes.

Both backends ship a task as its small spec; the process that runs it
calls ``point.workload.materialize()`` itself, so the parent of a queue
sweep does no workload work.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_lib
import time
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.obs.registry import get_registry
from repro.util.errors import SweepCancelled, SweepError

if TYPE_CHECKING:
    from repro.exec.runner import SweepPointSpec
    from repro.sim.metrics import SimulationResult

#: How often executor loops wake to poll ``should_cancel`` (and, for the
#: queue backend, worker liveness) while no point has completed.
CANCEL_POLL_S = 0.05

#: Test hook: when this env var names an existing *file*, the first queue
#: worker to claim a task unlinks it (atomic -- exactly one worker wins)
#: and dies hard via ``os._exit``; when it names a *directory*, every
#: claiming worker dies, so retry exhaustion is reachable.  The chaos
#: suite uses this to exercise worker restart without patching internals.
KILL_FLAG_ENV = "REPRO_EXEC_KILL_FLAG"

#: A task whose worker died is re-queued at most this many times before
#: the sweep fails -- a point that reliably kills its host (OOM, native
#: crash) must not retry forever.
MAX_TASK_RETRIES = 2


@dataclass(frozen=True)
class PointTask:
    """One unit of executor work: simulate ``point`` with ``seed``.

    ``index`` is the caller's position for the task (used to deliver
    results back in the right slot); ``label`` is presentation only.
    """

    index: int
    point: "SweepPointSpec"
    seed: int
    label: str = ""


OnResult = Callable[[PointTask, "SimulationResult", float], None]


def _point_error(task: PointTask, detail) -> SweepError:
    point = task.point
    return SweepError(
        f"sweep point {point.label or point.workload!r} failed: {detail}"
    )


class _WorkerTraceback(Exception):
    """A failed point's traceback, as formatted in its worker process.

    Chained as the cause of a queue point's :class:`SweepError`, in place
    of the worker's exception object, which need not pickle.
    """


class Executor:
    """One strategy for running a batch of sweep point tasks."""

    def execute(
        self,
        tasks: Sequence[PointTask],
        *,
        on_result: OnResult,
        should_cancel: Callable[[], bool] | None = None,
    ) -> None:
        raise NotImplementedError

    @staticmethod
    def _cancelled(should_cancel: Callable[[], bool] | None) -> bool:
        return should_cancel is not None and bool(should_cancel())


class SerialExecutor(Executor):
    """Run every task inline, in order, in this process."""

    def execute(
        self,
        tasks: Sequence[PointTask],
        *,
        on_result: OnResult,
        should_cancel: Callable[[], bool] | None = None,
    ) -> None:
        from repro.exec.runner import _simulate_point

        reg = get_registry()
        for task in tasks:
            if self._cancelled(should_cancel):
                raise SweepCancelled("sweep cancelled before completion")
            t0 = time.perf_counter()
            with reg.span("exec.runner.point_s", label=task.label):
                try:
                    result = _simulate_point(task.point, task.seed)
                except SweepError:
                    raise
                except Exception as exc:
                    raise _point_error(task, exc) from exc
            on_result(task, result, time.perf_counter() - t0)


def _maybe_kill_for_test() -> None:
    """Die hard if the chaos kill flag is armed (see :data:`KILL_FLAG_ENV`)."""
    flag = os.environ.get(KILL_FLAG_ENV, "").strip()
    if not flag:
        return
    if os.path.isdir(flag):
        os._exit(43)
    try:
        os.unlink(flag)
    except OSError:
        return
    os._exit(43)


def _queue_worker(slot: int, claims, task_q, result_q) -> None:
    """Long-lived worker loop: pull specs until the ``None`` sentinel.

    The claimed task index is recorded in the shared ``claims`` array
    (synchronously, unlike queue puts which buffer through a feeder
    thread) *before* simulation starts, so the parent can tell exactly
    which task a crashed worker was holding even when the crash loses
    every in-flight queue message.
    """
    while True:
        item = task_q.get()
        if item is None:
            return
        index, point, seed = item
        with claims.get_lock():
            claims[slot] = index
        _maybe_kill_for_test()
        try:
            from repro.exec.runner import _simulate_point

            result = _simulate_point(point, seed)
        except BaseException as exc:
            # Strings only: the queue's feeder thread drops a message
            # that does not pickle, and the parent would wait forever.
            result_q.put(
                ("error", slot, index, str(exc), traceback.format_exc())
            )
        else:
            result_q.put(("done", slot, index, result))
        with claims.get_lock():
            claims[slot] = -1


class QueueExecutor(Executor):
    """Long-lived workers pulling point specs from a shared task queue.

    The backend of every sweep with more than one job: tasks are
    *claimed* from a queue, not pre-assigned, so a slow point never
    serializes the rest of the batch behind it.  A worker that dies
    mid-point (crash, OOM-kill) is detected by the liveness sweep, its
    claimed task is re-queued (at most :data:`MAX_TASK_RETRIES` times
    per task), and a replacement worker is spawned --
    ``exec.executor.worker_restarts`` counts the replacements.  Results
    are delivered in completion order.  A failing point or a cancel
    terminates the running workers; it does not wait them out.
    """

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = max(1, int(jobs))

    def execute(
        self,
        tasks: Sequence[PointTask],
        *,
        on_result: OnResult,
        should_cancel: Callable[[], bool] | None = None,
    ) -> None:
        if not tasks:
            return
        reg = get_registry()
        ctx = multiprocessing.get_context()
        n_workers = min(self.jobs, len(tasks))
        # One claim slot per worker ever spawned: initial workers plus
        # the restart budget (per-task retries plus a small allowance
        # for deaths between tasks).
        max_restarts = n_workers + MAX_TASK_RETRIES * len(tasks)
        claims = ctx.Array("q", [-1] * (n_workers + max_restarts))
        task_q = ctx.Queue()
        result_q = ctx.Queue()
        for task in tasks:
            task_q.put((task.index, task.point, task.seed))
        state = _QueueState(
            ctx=ctx,
            claims=claims,
            task_q=task_q,
            result_q=result_q,
            max_restarts=max_restarts,
        )
        clean = False
        try:
            with reg.span(
                "exec.runner.pool_s", label=f"queue jobs={n_workers}"
            ):
                for _ in range(n_workers):
                    state.spawn()
                self._collect(tasks, state, on_result, should_cancel, reg)
            clean = True
        finally:
            state.shutdown(clean=clean)

    def _collect(
        self,
        tasks: Sequence[PointTask],
        state: "_QueueState",
        on_result: OnResult,
        should_cancel: Callable[[], bool] | None,
        reg,
    ) -> None:
        t0 = time.perf_counter()
        by_index = {task.index: task for task in tasks}
        done: set[int] = set()
        while len(done) < len(tasks):
            if self._cancelled(should_cancel):
                raise SweepCancelled(
                    f"sweep cancelled with {len(tasks) - len(done)} "
                    "point(s) unfinished"
                )
            try:
                msg = state.result_q.get(timeout=CANCEL_POLL_S)
            except queue_lib.Empty:
                state.reap(by_index, done, reg)
                continue
            kind, slot, index = msg[0], msg[1], msg[2]
            if kind == "error":
                raise _point_error(by_index[index], msg[3]) from (
                    _WorkerTraceback(msg[4])
                )
            # A task re-queued after a worker death can, in a narrow
            # race, complete twice; deliver only the first result.
            if index in done:
                continue
            done.add(index)
            on_result(by_index[index], msg[3], time.perf_counter() - t0)


class _QueueState:
    """Worker bookkeeping for one :class:`QueueExecutor` batch."""

    def __init__(self, *, ctx, claims, task_q, result_q, max_restarts):
        self.ctx = ctx
        self.claims = claims
        self.task_q = task_q
        self.result_q = result_q
        self.max_restarts = max_restarts
        self.workers: dict = {}  # process -> claim slot
        self.retries: dict[int, int] = {}  # task index -> requeue count
        self.next_slot = 0
        self.spawned = 0

    def spawn(self):
        if self.next_slot >= len(self.claims):
            raise SweepError(
                "queue executor exhausted its worker-restart budget "
                f"({self.max_restarts} restarts)"
            )
        proc = self.ctx.Process(
            target=_queue_worker,
            args=(self.next_slot, self.claims, self.task_q, self.result_q),
            daemon=True,
        )
        self.workers[proc] = self.next_slot
        self.next_slot += 1
        self.spawned += 1
        proc.start()
        return proc

    def reap(self, by_index: dict, done: set, reg) -> None:
        """Replace dead workers; re-queue the task each one was holding."""
        for proc in [p for p in self.workers if p.exitcode is not None]:
            slot = self.workers.pop(proc)
            proc.join()
            with self.claims.get_lock():
                index = self.claims[slot]
                self.claims[slot] = -1
            if index >= 0 and index not in done:
                retries = self.retries.get(index, 0) + 1
                self.retries[index] = retries
                task = by_index[index]
                if retries > MAX_TASK_RETRIES:
                    raise _point_error(
                        task,
                        f"worker died {retries} time(s) running this "
                        f"point (last exit code {proc.exitcode})",
                    )
                self.task_q.put((task.index, task.point, task.seed))
            if len(done) < len(by_index):
                reg.counter("exec.executor.worker_restarts").inc()
                self.spawn()

    def shutdown(self, *, clean: bool) -> None:
        """Stop workers and release the queues.

        Clean exit: every result was received, so all workers are idle
        on ``task_q.get`` -- one ``None`` sentinel each releases them.
        Unclean (error/cancel): terminate outright; re-queued or
        undelivered work is abandoned by design.
        """
        if clean:
            for _ in self.workers:
                self.task_q.put(None)
        else:
            for proc in self.workers:
                if proc.is_alive():
                    proc.terminate()
        for proc in self.workers:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=10)
        for q in (self.task_q, self.result_q):
            q.close()
            # Never hang the parent on a feeder thread draining into a
            # queue nobody will read again.
            q.cancel_join_thread()
