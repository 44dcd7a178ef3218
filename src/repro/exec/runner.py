"""Parallel sweep execution with per-point deterministic seeding.

The unit of work is a :class:`SweepPointSpec` -- a workload specification
plus a :class:`~repro.sim.config.SimConfig`.  A :class:`SweepRunner`
resolves cache hits, keys and seeds, then hands the remaining points to
an :class:`~repro.exec.executor.Executor` backend (inline for one job, a
queue of worker processes for more -- see :mod:`repro.exec.executor`)
and memoizes results in an optional :class:`~repro.exec.cache.ResultCache`.

Determinism
-----------
Each point's simulator seed is a pure function of what is being
simulated -- by default its config's own ``seed`` field -- never of
worker identity or completion order, so serial and parallel runs of the
same sweep produce bit-identical :class:`SimulationResult`\\ s, and a
sweep reproduces direct ``simulate()`` calls exactly.

Deliberately, every point of a grid sees the *same* disk-latency draws
(common random numbers): differences across an ablation are then
attributable to the configuration, not to the random stream, and the
paper's paired comparisons (Figure 8's near-coincident 4K/8K curves,
the write-behind ablation) stay paired.  Deriving a distinct stream per
point was tried and rejected: it injects cross-point variance that can
swamp small config effects.  Set ``SweepRunner.seed`` to override every
point's stream uniformly and sample a different one.

Workload transport
------------------
Workloads cross the process boundary as small *specs*, not as traces: a
14-point sweep ships a few hundred bytes per point instead of megabytes
of columns.  Whichever process runs a point materializes its workload
from the spec, through a small per-process LRU memo, so a worker that
replays one workload for many points builds it once, and the parent of
a queue sweep builds none.  Nothing is written to disk on the way: a
generated workload lives only in its process's memo, and a trace file
is decoded from its ASCII text whenever a point replays it.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

from repro.exec.cache import ResultCache
from repro.exec.executor import PointTask, QueueExecutor, SerialExecutor
from repro.exec.keys import file_digest, point_key
from repro.obs.registry import get_registry
from repro.sim.config import SimConfig
from repro.sim.metrics import SimulationResult
from repro.sim.procmodel import relabel_copies
from repro.sim.system import simulate
from repro.trace.array import TraceArray
from repro.trace.io import read_trace_array
from repro.util.errors import SweepCancelled, SweepError, TraceFormatError
from repro.util.rng import DEFAULT_SEED


def resolve_jobs(jobs: int | None = None, *, default: int | None = None) -> int:
    """Worker count: explicit ``jobs`` > ``$REPRO_JOBS`` > ``default``.

    ``default=None`` means ``os.cpu_count()``; library callers that must
    not spawn workers unless asked pass ``default=1``.  This is the one
    parser of ``$REPRO_JOBS``: a value that is not a positive integer
    raises ``ValueError`` naming the variable.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                jobs = 0
            if jobs < 1:
                raise ValueError(
                    f"$REPRO_JOBS must be a positive integer, got {env!r}"
                )
        else:
            jobs = default if default is not None else (os.cpu_count() or 1)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


# -- workload specifications -------------------------------------------------


@dataclass(frozen=True)
class AppWorkloadSpec:
    """N non-sharing copies of one modelled application."""

    app: str
    scale: float
    seed: int = DEFAULT_SEED
    n_copies: int = 1

    def key_material(self) -> dict:
        return {
            "kind": "app",
            "app": self.app,
            "scale": self.scale,
            "seed": self.seed,
            "n_copies": self.n_copies,
        }

    def materialize(self) -> list[TraceArray]:
        workload = generated_workload(self.app, self.scale, self.seed)
        if self.n_copies == 1:
            return [workload.trace]
        return relabel_copies(workload.trace, self.n_copies)

    def cpu_seconds(self) -> float:
        """Total CPU demand of all copies (the no-idle baseline)."""
        return self.n_copies * generated_workload(
            self.app, self.scale, self.seed
        ).cpu_seconds


@dataclass(frozen=True)
class TraceFileSpec:
    """Trace files replayed as one process each (the ``simulate`` CLI).

    The key material hashes the file *contents* (streamed in bounded
    chunks -- a multi-gigabyte trace never has to fit in memory to be
    keyed), so editing a trace file invalidates its cached results even
    at the same path, and the same bytes at two paths share them.
    """

    paths: tuple[str, ...]
    share_files: bool = False
    file_id_stride: int = 1_000_000

    def key_material(self) -> dict:
        return {
            "kind": "files",
            "sha256": [file_digest(p) for p in self.paths],
            "share_files": self.share_files,
            "file_id_stride": self.file_id_stride,
        }

    def materialize(self) -> list[TraceArray]:
        traces = []
        for i, path in enumerate(self.paths):
            try:
                trace = read_trace_array(path)
            except TraceFormatError as exc:
                # Name the file, as ``analyze`` does: "FILE: line N: ...".
                raise TraceFormatError(f"{path}: {exc}") from exc
            if len(trace.process_ids()) != 1:
                raise SweepError(f"{path}: need single-process traces")
            trace = trace.with_process_id(i + 1)
            if not self.share_files:
                # Distinct instances must not alias each other's data
                # sets (the paper ran copies "not sharing data sets").
                cols = trace.columns().copy()
                cols["file_id"] = trace.file_id + i * self.file_id_stride
                trace = type(trace)(**cols)
            traces.append(trace)
        return traces


WorkloadSpecLike = Union[AppWorkloadSpec, TraceFileSpec]


#: Workloads each process's memo keeps (see :class:`_WorkloadMemo`).
WORKLOAD_MEMO_CAPACITY = 8


class _WorkloadMemo:
    """Small per-process LRU of generated workloads.

    A long sweep over many distinct apps/scales/seeds used to grow every
    worker's RSS without bound (each entry holds full trace columns);
    bounding the memo keeps workers flat while still making the common
    case -- many points replaying one workload -- a single generation.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def get(self, key):
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > WORKLOAD_MEMO_CAPACITY:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()


#: Per-process memo of generated workloads, keyed by (app, scale, seed).
#: Each worker generates a given workload at most once per sweep,
#: no matter how many points replay it; see :class:`_WorkloadMemo` for
#: the bound.
_WORKLOADS = _WorkloadMemo()


def clear_workload_memo() -> None:
    """Drop this process's generated-workload memo (tests, benchmarks)."""
    _WORKLOADS.clear()


def generated_workload(app: str, scale: float, seed: int):
    """Memoized :func:`~repro.workloads.base.generate_workload` (per process)."""
    key = (app, scale, seed)
    hit = _WORKLOADS.get(key)
    if hit is not None:
        return hit
    from repro.workloads.base import generate_workload

    workload = generate_workload(app, scale=scale, seed=seed)
    _WORKLOADS.put(key, workload)
    return workload


# -- sweep points ------------------------------------------------------------


@dataclass(frozen=True)
class SweepPointSpec:
    """One independent ``(workload, config)`` simulation."""

    workload: WorkloadSpecLike
    config: SimConfig
    #: presentation only -- never part of the cache key
    label: str = ""

    def key(self, sweep_seed: int | None) -> str:
        return point_key(self.config, self.workload.key_material(), sweep_seed)


@dataclass(frozen=True)
class PointResult:
    """Outcome of one sweep point."""

    point: SweepPointSpec
    result: SimulationResult
    key: str
    sim_seed: int
    cached: bool
    elapsed_s: float

    @property
    def label(self) -> str:
        return self.point.label


def _simulate_point(point: SweepPointSpec, sim_seed: int) -> SimulationResult:
    """Worker entry: materialize the point's workload, then simulate it."""
    return simulate(point.workload.materialize(), point.config.with_seed(sim_seed))


# -- the runner --------------------------------------------------------------


@dataclass
class SweepRunner:
    """Fan independent sweep points out over processes, memoizing results.

    ``jobs=None`` resolves via :func:`resolve_jobs` (``$REPRO_JOBS`` or
    the CPU count).  One effective job (``jobs=1``, or a single point to
    simulate) runs inline on :class:`~repro.exec.executor.SerialExecutor`;
    more run on :class:`~repro.exec.executor.QueueExecutor`, which
    survives a worker death.  The backend is an execution detail
    -- it never enters point keys and never changes digests.

    ``cache=None`` disables memoization; any object with the
    ``get``/``put`` shape works.
    ``seed=None`` (the default) simulates every point with its config's
    own seed; an int overrides all of them with one shared stream (see
    the module docstring).

    ``executor`` and ``shared_memory`` are ignored: no code reads them.
    They remain only so existing callers that pass them keep working;
    the job count alone picks the backend, and every backend ships specs
    that workers materialize (see the module docstring).

    Progress goes to the active registry's event sink (see
    :mod:`repro.obs.registry`): one ``sweep_start`` event (``points``,
    ``todo``, ``cached``) up front, then one ``point_done`` event
    (``index``, ``label``, ``key``, ``cached``, ``elapsed_s``) per point
    *as it completes* -- cache hits first, then live points in
    completion order.  The sweep server bridges them into per-job
    server-sent event streams.  A sink's exceptions propagate; a
    disabled registry or one with no sink drops the events.  Neither
    touches what is simulated.

    ``should_cancel`` (optional) is polled between points (serial) and
    between completions (queue, every
    :data:`~repro.exec.executor.CANCEL_POLL_S`); once it returns true
    the backend abandons queued work, terminates running workers and
    raises :class:`~repro.util.errors.SweepCancelled`.
    """

    jobs: int | None = 1
    cache: ResultCache | None = None
    seed: int | None = None
    #: ignored; read by no code (see the class docstring)
    executor: str | None = None
    #: ignored; read by no code (see the class docstring)
    shared_memory: bool | None = None
    should_cancel: Callable[[], bool] | None = None
    #: points simulated (not served from cache) over this runner's lifetime
    simulated: int = field(default=0, init=False)
    #: points served from the result cache
    cache_hits: int = field(default=0, init=False)

    def effective_jobs(self, n_points: int) -> int:
        return min(resolve_jobs(self.jobs), max(1, n_points))

    def sim_seed(self, point: SweepPointSpec) -> int:
        """The point's simulator seed (shared across the sweep on
        purpose -- see the module docstring on common random numbers)."""
        return self.seed if self.seed is not None else point.config.seed

    def run_point(self, point: SweepPointSpec) -> PointResult:
        return self.run([point])[0]

    def run(self, points: Sequence[SweepPointSpec]) -> list[PointResult]:
        """Run all points (cache, then backend) and return them in order."""
        reg = get_registry()
        points = list(points)
        keys = [p.key(self.seed) for p in points]
        seeds = [self.sim_seed(p) for p in points]
        results: list[SimulationResult | None] = [None] * len(points)
        cached = [False] * len(points)
        elapsed = [0.0] * len(points)

        todo: list[int] = []
        for i, key in enumerate(keys):
            hit = self.cache.get(key) if self.cache is not None else None
            if hit is not None:
                results[i] = hit
                cached[i] = True
                self.cache_hits += 1
                reg.counter("exec.runner.cache_hits").inc()
            else:
                todo.append(i)

        def point_done(i: int) -> None:
            reg.emit(
                "point_done",
                index=i,
                label=points[i].label or keys[i][:12],
                key=keys[i],
                cached=cached[i],
                elapsed_s=elapsed[i],
            )

        reg.emit(
            "sweep_start",
            points=len(points),
            todo=len(todo),
            cached=len(points) - len(todo),
        )
        for i in range(len(points)):
            if cached[i]:
                point_done(i)

        if todo:
            self._check_cancelled()
            n_jobs = self.effective_jobs(len(todo))
            # Queue workers are separate processes: their in-process
            # metrics do not flow back; only per-point wall time and the
            # counters below are recorded here.
            backend = (
                SerialExecutor() if n_jobs == 1 else QueueExecutor(jobs=n_jobs)
            )
            tasks = [
                PointTask(
                    index=i,
                    point=points[i],
                    seed=seeds[i],
                    label=points[i].label or keys[i][:12],
                )
                for i in todo
            ]

            def deliver(task: PointTask, result, elapsed_s: float) -> None:
                results[task.index] = result
                elapsed[task.index] = elapsed_s
                point_done(task.index)

            backend.execute(
                tasks, on_result=deliver, should_cancel=self.should_cancel
            )
            for i in todo:
                if self.cache is not None:
                    self.cache.put(keys[i], results[i])
                self.simulated += 1
                reg.counter("exec.runner.points_simulated").inc()

        return [
            PointResult(
                point=points[i],
                result=results[i],
                key=keys[i],
                sim_seed=seeds[i],
                cached=cached[i],
                elapsed_s=elapsed[i],
            )
            for i in range(len(points))
        ]

    def _cancelled(self) -> bool:
        return self.should_cancel is not None and bool(self.should_cancel())

    def _check_cancelled(self) -> None:
        if self._cancelled():
            raise SweepCancelled("sweep cancelled before completion")
