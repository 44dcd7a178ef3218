"""Job model and spec parsing: JSON bodies -> sweep points -> payloads.

A job is a list of :class:`~repro.exec.runner.SweepPointSpec`\\ s plus
runner knobs, built from the same pieces the CLI uses -- ``simulate``
bodies go through :class:`~repro.exec.runner.TraceFileSpec` and
:func:`~repro.exec.grid.build_sim_config`, ``sweep`` bodies through
:class:`~repro.exec.grid.GridSpec` -- so a job submitted over HTTP
produces byte-for-byte the same point keys and result digests as the
equivalent CLI invocation.  That bit-identity is the server's core
contract and is what lets HTTP clients share the on-disk result cache
with batch runs.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass, field

from repro.exec.grid import (
    FIG8_BLOCK_SIZES_KB,
    FIG8_CACHE_SIZES_MB,
    GridSpec,
    build_sim_config,
    parse_floats,
    parse_toggles,
)
from repro.exec.runner import PointResult, SweepPointSpec, TraceFileSpec
from repro.sim.faults import FaultPlan
from repro.util.rng import DEFAULT_SEED
from repro.workloads.base import available_models


class JobSpecError(ValueError):
    """A submitted job body is malformed (answered with HTTP 400)."""


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


def _is_number(value) -> bool:
    """A JSON number: an int or a float, never a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, name: str) -> float:
    """A float key: any JSON number.  An integer past the float range
    reads as infinity, as JSON reads ``1e400``."""
    if not _is_number(value):
        raise JobSpecError(f"bad {name} {value!r} (want a number)")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _integer(value, name: str) -> int:
    """An integer key: a JSON number with no fractional part."""
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
    elif _is_number(value):
        return value
    raise JobSpecError(f"bad {name} {value!r} (want an integer)")


def _axis_floats(value, name: str) -> tuple[float, ...]:
    """A float axis from a JSON number, a non-empty list of them, or a
    CLI-style "4,8,16" string."""
    if isinstance(value, str):
        try:
            return parse_floats(value)
        except ValueError as exc:
            raise JobSpecError(f"bad {name} axis {value!r}: {exc}") from exc
    elements = value if isinstance(value, list) and value else [value]
    return tuple(_number(v, name) for v in elements)


def _toggle(value, name: str) -> bool:
    """One toggle: a JSON bool, or a string ``parse_toggles`` reads as
    exactly one value ("on", "off", "true", "false", "1", "0", ...)."""
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            (toggle,) = parse_toggles(value)
            return toggle
        except ValueError:
            pass
    raise JobSpecError(f"bad {name} toggle {value!r} (want true/false or on/off)")


def _axis_toggles(value, name: str) -> tuple[bool, ...]:
    """A toggle axis from a JSON bool/list or a CLI-style "on,off" string."""
    if isinstance(value, str):
        try:
            return parse_toggles(value)
        except ValueError as exc:
            raise JobSpecError(f"bad {name} axis {value!r}: {exc}") from exc
    if isinstance(value, bool):
        return (value,)
    if isinstance(value, list) and value:
        toggles = tuple(_toggle(v, name) for v in value)
        if len(set(toggles)) != len(toggles):
            raise JobSpecError(f"bad {name} axis {value!r}: repeated toggle value")
        return toggles
    raise JobSpecError(f"bad {name} axis {value!r}")


def _fault_config(spec: dict, base):
    """Apply an inline ``faults`` spec or ``fault_plan`` dict to a config."""
    faults = spec.get("faults")
    plan_data = spec.get("fault_plan")
    if faults and plan_data:
        raise JobSpecError("use either 'faults' or 'fault_plan', not both")
    try:
        if faults:
            if not isinstance(faults, str):
                raise JobSpecError(f"'faults' must be a spec string: {faults!r}")
            return FaultPlan.from_spec(faults).apply(base)
        if plan_data:
            if not isinstance(plan_data, dict):
                raise JobSpecError(
                    f"'fault_plan' must be a JSON object: {plan_data!r}"
                )
            return FaultPlan.from_dict(plan_data).apply(base)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, JobSpecError):
            raise
        raise JobSpecError(f"bad fault plan: {exc}") from exc
    return base


def _simulate_points(spec: dict) -> list[SweepPointSpec]:
    """Points for a ``simulate`` job -- mirrors ``repro simulate``."""
    traces = spec.get("traces")
    if (
        not isinstance(traces, list)
        or not traces
        or not all(isinstance(t, str) for t in traces)
    ):
        raise JobSpecError("'traces' must be a non-empty list of paths")
    knobs = dict(
        cache_mb=_number(spec.get("cache_mb", 32.0), "cache_mb"),
        block_kb=_number(spec.get("block_kb", 4.0), "block_kb"),
        ssd=_toggle(spec.get("ssd", False), "ssd"),
        read_ahead=_toggle(spec.get("read_ahead", True), "read_ahead"),
        write_behind=_toggle(spec.get("write_behind", True), "write_behind"),
        n_cpus=_integer(spec.get("cpus", 1), "cpus"),
    )
    try:
        config = build_sim_config(**knobs)
    except ValueError as exc:
        raise JobSpecError(f"bad simulate config: {exc}") from exc
    config = _fault_config(spec, config)
    workload = TraceFileSpec(
        paths=tuple(traces),
        share_files=_toggle(spec.get("share_files", False), "share_files"),
    )
    label = spec.get("label") or f"simulate {' '.join(traces)}"
    return [SweepPointSpec(workload=workload, config=config, label=str(label))]


def _sweep_points(spec: dict) -> list[SweepPointSpec]:
    """Points for a ``sweep`` job -- mirrors ``repro sweep``."""
    app = str(spec.get("app", "venus"))
    if app not in available_models():
        raise JobSpecError(
            f"unknown application {app!r}; known: "
            f"{', '.join(available_models())}"
        )
    try:
        grid = GridSpec(
            app=app,
            n_copies=_integer(spec.get("copies", 2), "copies"),
            scale=_number(spec.get("scale", 0.25), "scale"),
            workload_seed=_integer(spec.get("seed", DEFAULT_SEED), "seed"),
            cache_sizes_mb=_axis_floats(
                spec.get("cache_mb", list(FIG8_CACHE_SIZES_MB)), "cache_mb"
            ),
            block_sizes_kb=_axis_floats(
                spec.get("block_kb", list(FIG8_BLOCK_SIZES_KB)), "block_kb"
            ),
            read_ahead=_axis_toggles(spec.get("read_ahead", True), "read_ahead"),
            write_behind=_axis_toggles(
                spec.get("write_behind", True), "write_behind"
            ),
            ssd=_toggle(spec.get("ssd", False), "ssd"),
            n_cpus=_integer(spec.get("cpus", 1), "cpus"),
        )
        return grid.points()
    except JobSpecError:
        raise
    except (TypeError, ValueError) as exc:
        raise JobSpecError(f"bad sweep grid: {exc}") from exc


_KINDS = {"simulate": _simulate_points, "sweep": _sweep_points}

#: Bound on worker processes one job may request (`spec.jobs`); a
#: client cannot fork-bomb the host through the API.
MAX_RUNNER_JOBS = 16


def parse_job(body: dict, job_id: str) -> Job:
    """Build a :class:`Job` from a submitted JSON body.

    Body shape: ``{"kind": "simulate" | "sweep", "spec": {...},
    "priority": int}``.  Raises :class:`JobSpecError` on anything
    malformed -- parsing happens at submission time so a bad job is a
    400 for its submitter, never a late failure in a worker.
    """
    kind = body.get("kind")
    builder = _KINDS.get(kind)
    if builder is None:
        raise JobSpecError(
            f"unknown job kind {kind!r}; expected one of {sorted(_KINDS)}"
        )
    spec = body.get("spec") or {}
    if not isinstance(spec, dict):
        raise JobSpecError(f"'spec' must be a JSON object: {spec!r}")
    priority = _integer(body.get("priority", 0), "priority")
    runner_jobs = _integer(spec.get("jobs", 1), "jobs")
    if not 1 <= runner_jobs <= MAX_RUNNER_JOBS:
        raise JobSpecError(
            f"jobs must be in [1, {MAX_RUNNER_JOBS}], got {runner_jobs}"
        )
    return Job(
        id=job_id,
        kind=kind,
        priority=priority,
        points=builder(spec),
        runner_jobs=runner_jobs,
        use_result_cache=_toggle(spec.get("result_cache", True), "result_cache"),
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
