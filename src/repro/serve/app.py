"""The sweep server: routing, worker pool, SSE bridging, shutdown.

One asyncio event loop owns all bookkeeping (jobs table, queue, SSE
subscribers); simulations run in a small thread pool so the loop never
blocks on a multi-second sweep.  Each job executes on a plain
:class:`~repro.exec.runner.SweepRunner` under a job-private
:class:`~repro.obs.registry.MetricsRegistry` installed thread-locally,
with an :class:`EventBridge` as the event sink -- every event the job
emits, the runner's ``sweep_start`` and ``point_done`` among them, is
marshalled onto the loop and fanned out to the job's server-sent-event
subscribers.  The runner tier is exactly the CLI tier (same points,
same result cache), which is what makes server results bit-identical
to batch results.

Cancellation is cooperative: the loop sets a per-job
:class:`threading.Event` that the runner polls between points (and
between queue completions); the backend abandons queued points and
terminates its workers before :class:`~repro.util.errors.SweepCancelled`
propagates.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import os
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from repro.exec.cache import ResultCache
from repro.exec.grid import SpecError
from repro.exec.runner import SweepRunner
from repro.obs.registry import MetricsRegistry, use_registry
from repro.obs.report import render_report
from repro.serve.jobs import Job, JobState, parse_job, point_payload
from repro.serve.protocol import (
    ProtocolError,
    Request,
    error_response,
    json_response,
    read_request,
    response_bytes,
    sse_event,
    sse_preamble,
)
from repro.serve.queue import JobQueue, QueueClosed, QueueFull
from repro.util.errors import SweepCancelled


@dataclass
class ServeConfig:
    """Knobs for one server instance (the ``repro serve`` flags)."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (tests); read it back from ``SweepServer.port``
    port: int = 8177
    #: concurrent job executions (thread pool size)
    workers: int = 2
    #: queued-job bound; a full queue answers 429
    max_pending: int = 16
    #: result-cache root (None -> the default resolution chain)
    cache_dir: str | Path | None = None
    #: disable the result cache entirely
    no_cache: bool = False
    #: how long shutdown waits for running jobs before cancelling them
    drain_timeout_s: float = 10.0

    def result_cache(self):
        if self.no_cache:
            return None
        if self.cache_dir is not None:
            return ResultCache(root=Path(self.cache_dir))
        return ResultCache()


class EventBridge:
    """Event sink that marshals events from a worker thread to the loop.

    Implements the obs event-sink protocol (``emit(kind, **fields)``), so
    a job's registry points straight at it.  Every record crosses to the
    event loop with ``call_soon_threadsafe`` where the server appends it
    to the job history and fans it out to SSE subscribers.

    Fork guard: queue workers of a ``jobs > 1`` sweep are forked from the
    executing thread and inherit its thread-local registry -- and with it
    this sink, whose loop does not exist in the child.  ``emit`` drops
    anything from a foreign pid instead of corrupting the parent loop.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, publish):
        self._loop = loop
        self._publish = publish
        self._pid = os.getpid()

    def emit(self, kind: str, **fields) -> None:
        if os.getpid() != self._pid:
            return
        record = {"kind": kind, **fields}
        try:
            self._loop.call_soon_threadsafe(self._publish, record)
        except RuntimeError:
            # Loop already closed (shutdown race); the event is
            # observability, never correctness -- drop it.
            pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class SweepServer:
    """The asyncio HTTP daemon.  See :mod:`repro.serve` for the API."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.registry = MetricsRegistry(enabled=True)
        self.jobs: dict[str, Job] = {}
        self._ids = itertools.count(1)
        self._queue = JobQueue(self.config.max_pending)
        self._cache = self.config.result_cache()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-serve"
        )
        self._server: asyncio.AbstractServer | None = None
        self._workers: list[asyncio.Task] = []
        self._conns: set[asyncio.Task] = set()
        self._running: set[Job] = set()

    # -- lifecycle -----------------------------------------------------

    @property
    def port(self) -> int:
        """The actually-bound port (meaningful after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        self._workers = [
            asyncio.create_task(self._worker(), name=f"serve-worker-{n}")
            for n in range(self.config.workers)
        ]

    async def shutdown(self, *, drain: bool | None = None) -> None:
        """Stop accepting, then drain or cancel in-flight jobs.

        ``drain=True`` (the default) lets running jobs finish for up to
        ``drain_timeout_s`` before cancelling them; ``drain=False``
        cancels immediately.  Queued-but-unstarted jobs are always
        cancelled -- they never observed any service.  Either way every
        worker joins, and each runner has already stopped its own
        worker processes, before this returns.
        """
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        for job in self._queue.drain():
            self._finish(job, JobState.CANCELLED, "server shutting down")
        self._queue.close()
        if drain is False:
            for job in list(self._running):
                job.cancel.set()
        if self._workers:
            done, pending = await asyncio.wait(
                self._workers, timeout=self.config.drain_timeout_s
            )
            if pending:
                for job in list(self._running):
                    job.cancel.set()
                await asyncio.wait(pending)
        self._executor.shutdown(wait=True)
        for task in list(self._conns):
            task.cancel()
        if self._conns:
            await asyncio.gather(*self._conns, return_exceptions=True)

    # -- job execution -------------------------------------------------

    async def _worker(self) -> None:
        """One consumer: pull jobs off the queue until the queue closes."""
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            if job is None:
                return
            if job.cancel.is_set():
                self._finish(job, JobState.CANCELLED, "cancelled while queued")
                continue
            job.state = JobState.RUNNING
            self._running.add(job)
            self._publish(job, {"kind": "job_state", "state": "running"})
            try:
                results, counters = await loop.run_in_executor(
                    self._executor, self._execute_job, job, loop
                )
            except SweepCancelled as exc:
                self._finish(job, JobState.CANCELLED, str(exc))
            except Exception as exc:
                self._finish(
                    job, JobState.FAILED, f"{type(exc).__name__}: {exc}"
                )
            else:
                job.results = results
                # Merge the job registry's counters here on the loop --
                # single-threaded by construction, so concurrent jobs
                # never race on the server's instruments.
                for name, value in counters.items():
                    self.registry.counter(name).add(value)
                self._finish(job, JobState.DONE)
            finally:
                self._running.discard(job)

    def _execute_job(self, job: Job, loop: asyncio.AbstractEventLoop):
        """Run one job on the runner tier (called in a worker thread)."""
        bridge = EventBridge(loop, lambda record: self._publish(job, record))
        registry = MetricsRegistry(enabled=True, event_sink=bridge)
        with use_registry(registry):
            runner = SweepRunner(
                jobs=job.runner_jobs,
                cache=self._cache if job.use_result_cache else None,
                should_cancel=job.cancel.is_set,
            )
            point_results = runner.run(job.points)
        payloads = [point_payload(r) for r in point_results]
        return payloads, registry.counters()

    def _finish(self, job: Job, state: JobState, error: str | None = None):
        """Move a job to a terminal state and end its event streams."""
        job.state = state
        job.error = error
        tally = {
            JobState.DONE: "serve.jobs.done",
            JobState.FAILED: "serve.jobs.failed",
            JobState.CANCELLED: "serve.jobs.cancelled",
        }[state]
        self.registry.counter(tally).inc()
        record = {"kind": "end", "state": state.value}
        if error is not None:
            record["error"] = error
        self._publish(job, record)
        for q in list(job.subscribers):
            q.put_nowait(None)

    def _publish(self, job: Job, record: dict) -> None:
        """Append one event to the job history and fan out (loop only)."""
        kind = record.get("kind")
        if kind == "point_done":
            job.done_points += 1
            if record.get("cached"):
                job.cached_points += 1
            job.elapsed_s = max(
                job.elapsed_s, float(record.get("elapsed_s") or 0.0)
            )
        record = job.record_event(record)
        for q in list(job.subscribers):
            q.put_nowait(record)

    # -- HTTP ----------------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conns.add(task)
        try:
            try:
                request = await read_request(reader)
            except ProtocolError as exc:
                writer.write(error_response(exc.status, str(exc)))
                return
            if request is None:
                return
            self.registry.counter("serve.http.requests").inc()
            try:
                await self._route(request, writer)
            except ProtocolError as exc:
                writer.write(error_response(exc.status, str(exc)))
            except (ConnectionError, asyncio.CancelledError):
                raise
            except Exception as exc:
                writer.write(
                    error_response(500, f"{type(exc).__name__}: {exc}")
                )
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._conns.discard(task)
            with contextlib.suppress(Exception):
                await writer.drain()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _route(self, request: Request, writer) -> None:
        method, path = request.method, request.path.rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]

        if path == "/healthz" and method == "GET":
            writer.write(json_response(200, self._health()))
        elif path == "/metrics" and method == "GET":
            report = render_report(self.registry, title="repro serve metrics")
            writer.write(
                response_bytes(
                    200,
                    (report + "\n").encode("utf-8"),
                    content_type="text/plain; charset=utf-8",
                )
            )
        elif path == "/jobs" and method == "POST":
            writer.write(self._submit(request))
        elif path == "/jobs" and method == "GET":
            writer.write(
                json_response(
                    200,
                    {"jobs": [j.describe() for j in self.jobs.values()]},
                )
            )
        elif len(parts) >= 2 and parts[0] == "jobs":
            job = self.jobs.get(parts[1])
            if job is None:
                raise ProtocolError(404, f"no such job {parts[1]!r}")
            await self._job_route(request, writer, job, parts[2:])
        else:
            raise ProtocolError(404, f"no route for {method} {path}")

    def _health(self) -> dict:
        states: dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state.value] = states.get(job.state.value, 0) + 1
        return {
            "ok": True,
            "pid": os.getpid(),
            "queued": len(self._queue),
            "max_pending": self._queue.max_pending,
            "workers": self.config.workers,
            "jobs": states,
        }

    def _submit(self, request: Request) -> bytes:
        body = request.json()
        job_id = f"j{next(self._ids):06d}"
        try:
            job = parse_job(body, job_id)
        except SpecError as exc:
            raise ProtocolError(400, str(exc)) from exc
        try:
            self._queue.put_nowait(job, priority=job.priority)
        except QueueFull as exc:
            self.registry.counter("serve.jobs.rejected").inc()
            raise ProtocolError(429, str(exc)) from exc
        except QueueClosed as exc:
            raise ProtocolError(503, str(exc)) from exc
        self.jobs[job.id] = job
        self.registry.counter("serve.jobs.submitted").inc()
        return json_response(202, job.describe())

    async def _job_route(
        self, request: Request, writer, job: Job, rest: list[str]
    ) -> None:
        method = request.method
        if not rest and method == "GET":
            writer.write(json_response(200, job.describe()))
        elif rest == ["result"] and method == "GET":
            writer.write(self._result(job))
        elif rest == ["cancel"] and method == "POST":
            writer.write(self._cancel(job))
        elif rest == ["events"] and method == "GET":
            await self._stream_events(writer, job)
        else:
            raise ProtocolError(
                404, f"no route for {method} /jobs/{job.id}/{'/'.join(rest)}"
            )

    def _result(self, job: Job) -> bytes:
        if job.state is JobState.DONE:
            payload = job.describe()
            payload["results"] = job.results
            return json_response(200, payload)
        if job.state.terminal:
            # failed or cancelled: the describe payload carries the error
            return json_response(200, job.describe())
        raise ProtocolError(
            409,
            f"job {job.id} is {job.state.value}; results exist once it "
            "is done",
        )

    def _cancel(self, job: Job) -> bytes:
        """Cancel a job; idempotent at every stage of its lifecycle."""
        if job.state.terminal:
            return json_response(200, job.describe())
        if job.state is JobState.QUEUED and self._queue.remove(job):
            self._finish(job, JobState.CANCELLED, "cancelled while queued")
            return json_response(200, job.describe())
        # Running (or about to be picked up): flip the event the runner
        # polls; the worker will observe SweepCancelled and finish it.
        job.cancel.set()
        return json_response(200, job.describe())

    async def _stream_events(self, writer, job: Job) -> None:
        """Serve one job's SSE stream: history replay, then live events.

        Subscribe *before* replaying -- both happen without an await in
        between, so on the loop-confined jobs table no event can fall in
        the gap; anything published after the snapshot arrives on the
        live queue.
        """
        queue: asyncio.Queue = asyncio.Queue()
        job.subscribers.append(queue)
        try:
            writer.write(sse_preamble())
            if job.dropped_events:
                writer.write(
                    sse_event(
                        {"kind": "gap", "dropped": job.dropped_events},
                        seq=-1,
                    )
                )
            history = list(job.events)
            for record in history:
                writer.write(sse_event(record, seq=record["seq"]))
            await writer.drain()
            if job.state.terminal:
                return
            while True:
                record = await queue.get()
                if record is None:
                    return
                writer.write(sse_event(record, seq=record["seq"]))
                await writer.drain()
        finally:
            with contextlib.suppress(ValueError):
                job.subscribers.remove(queue)


# -- entry points ------------------------------------------------------


async def _amain(config: ServeConfig) -> int:
    server = SweepServer(config)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(sig, stop.set)
    print(
        f"repro serve: listening on http://{config.host}:{server.port} "
        f"({config.workers} worker(s), queue bound {config.max_pending})",
        flush=True,
    )
    await stop.wait()
    print("repro serve: shutting down (draining jobs)...", flush=True)
    await server.shutdown()
    return 0


def run_server(config: ServeConfig | None = None) -> int:
    """Run a server until SIGINT/SIGTERM; the ``repro serve`` entry."""
    return asyncio.run(_amain(config or ServeConfig()))


class ServerThread:
    """A server on a background thread: the serve tests' in-process harness.

    >>> with ServerThread() as srv:                    # doctest: +SKIP
    ...     client = ServeClient(port=srv.port)

    The context manager owns the loop thread: entering starts the server
    (on an ephemeral port by default) and blocks until it is accepting;
    exiting requests shutdown and joins the thread.
    """

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig(port=0)
        self.server: SweepServer | None = None
        self.port: int | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server thread failed to start in time")
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=60)

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # surface startup failures to start()
            self._error = exc
            self._ready.set()

    async def _amain(self) -> None:
        server = SweepServer(self.config)
        await server.start()
        self.server = server
        self.port = server.port
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._ready.set()
        await self._stop.wait()
        await server.shutdown()

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
