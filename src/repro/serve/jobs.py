"""Job model: JSON bodies -> sweep points -> payloads.

A job is a list of :class:`~repro.exec.runner.SweepPointSpec`\\ s plus
runner knobs.  Its points come from the body's ``spec`` through
:func:`~repro.exec.grid.simulate_points` or
:func:`~repro.exec.grid.sweep_points`, the functions ``repro simulate``
and ``repro sweep`` call with their flags, so a job submitted over HTTP
produces byte-for-byte the same point keys and result digests as the
equivalent CLI invocation.  That bit-identity is the server's core
contract and is what lets HTTP clients share the on-disk result cache
with batch runs.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field

from repro.exec.grid import (
    SpecError,
    read_integer,
    read_toggle,
    simulate_points,
    sweep_points,
)
from repro.exec.runner import PointResult, SweepPointSpec


class JobState(str, enum.Enum):
    """Lifecycle of one job.

    ``queued -> running -> {done, failed, cancelled}``; a queued job can
    also go straight to ``cancelled``.  States are serialized as their
    lowercase string values.
    """

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


#: Bound on the per-job event history kept for late SSE subscribers.
#: A 1000-point sweep emits ~1005 events; beyond the bound the oldest
#: events drop off (subscribers are told how many they missed).
MAX_EVENT_HISTORY = 4096


@dataclass(eq=False)  # identity semantics: jobs live in sets and heaps
class Job:
    """One submitted job and everything the server tracks about it.

    Mutable fields are only ever written from the server's event loop
    (worker threads report back via ``call_soon_threadsafe``), except
    ``cancel`` -- a :class:`threading.Event` the loop sets and the
    executing :class:`~repro.exec.runner.SweepRunner` polls from its
    worker thread.
    """

    id: str
    kind: str
    priority: int
    points: list[SweepPointSpec]
    runner_jobs: int = 1
    use_result_cache: bool = True
    state: JobState = JobState.QUEUED
    error: str | None = None
    results: list[dict] | None = None
    done_points: int = 0
    cached_points: int = 0
    elapsed_s: float = 0.0
    cancel: threading.Event = field(default_factory=threading.Event)
    #: bounded history of every event emitted for this job (for late
    #: subscribers); ``dropped_events`` counts what fell off the front
    events: list[dict] = field(default_factory=list)
    dropped_events: int = 0
    next_seq: int = 0
    #: live SSE subscriber queues (asyncio.Queue, loop-confined)
    subscribers: list = field(default_factory=list)

    def describe(self) -> dict:
        """The status payload for ``GET /jobs/<id>``."""
        payload = {
            "id": self.id,
            "kind": self.kind,
            "priority": self.priority,
            "state": self.state.value,
            "points": len(self.points),
            "done_points": self.done_points,
            "cached_points": self.cached_points,
            "elapsed_s": self.elapsed_s,
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload

    def record_event(self, record: dict) -> dict:
        """Append one event to the history (bounded) and stamp its seq."""
        record = dict(record)
        record["job"] = self.id
        record["seq"] = self.next_seq
        self.next_seq += 1
        self.events.append(record)
        if len(self.events) > MAX_EVENT_HISTORY:
            del self.events[0]
            self.dropped_events += 1
        return record


_KINDS = {"simulate": simulate_points, "sweep": sweep_points}

#: Bound on worker processes one job may request (`spec.jobs`); a
#: client cannot fork-bomb the host through the API.
MAX_RUNNER_JOBS = 16


def parse_job(body: dict, job_id: str) -> Job:
    """Build a :class:`Job` from a submitted JSON body.

    Body shape: ``{"kind": "simulate" | "sweep", "spec": {...},
    "priority": int}``.  Raises :class:`~repro.exec.grid.SpecError` on
    anything malformed -- parsing happens at submission time so a bad
    job is a 400 for its submitter, never a late failure in a worker.
    """
    kind = body.get("kind")
    builder = _KINDS.get(kind)
    if builder is None:
        raise SpecError(
            f"unknown job kind {kind!r}; expected one of {sorted(_KINDS)}"
        )
    spec = body.get("spec") or {}
    if not isinstance(spec, dict):
        raise SpecError(f"'spec' must be a JSON object: {spec!r}")
    priority = read_integer(body.get("priority", 0), "priority")
    runner_jobs = read_integer(spec.get("jobs", 1), "jobs")
    if not 1 <= runner_jobs <= MAX_RUNNER_JOBS:
        raise SpecError(
            f"jobs must be in [1, {MAX_RUNNER_JOBS}], got {runner_jobs}"
        )
    return Job(
        id=job_id,
        kind=kind,
        priority=priority,
        points=builder(spec),
        runner_jobs=runner_jobs,
        use_result_cache=read_toggle(spec.get("result_cache", True), "result_cache"),
    )


def point_payload(point_result: PointResult) -> dict:
    """Serialize one point's outcome for the result endpoint.

    Carries the point key and the full result digest -- the two values
    the bit-identity contract is stated in terms of -- plus the summary
    scalars the CLI sweep table prints.
    """
    result = point_result.result
    return {
        "label": point_result.label,
        "key": point_result.key,
        "digest": result.digest(),
        "cached": point_result.cached,
        "sim_seed": point_result.sim_seed,
        "elapsed_s": point_result.elapsed_s,
        "wall_seconds": result.wall_seconds,
        "completion_seconds": result.completion_seconds,
        "busy_seconds": result.accounted_busy_seconds,
        "idle_seconds": result.idle_seconds,
        "utilization": result.utilization,
        "hit_fraction": result.cache.hit_fraction,
        "disk_read_mb": result.disk_read_rate.total,
        "disk_write_mb": result.disk_write_rate.total,
        "goodput_bytes": result.goodput_bytes,
        "events_run": result.events_run,
        "summary": result.summary(),
    }
