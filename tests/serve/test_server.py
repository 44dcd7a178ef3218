"""Sweep-server lifecycle: bit-identity, SSE, cancel, admission, shutdown.

The contract under test is the one the package promises: a job submitted
over HTTP runs on the same runner tier as the CLI and returns the same
point keys and digests; progress streams as server-sent events; a full
queue answers 429; cancellation and shutdown end every job in a
terminal state.
"""

import threading
import time

import pytest

from repro.exec.grid import GridSpec
from repro.exec.runner import SweepRunner
from repro.serve import (
    ServeClient,
    ServeClientError,
    ServeConfig,
    ServerThread,
)
from repro.serve.app import SweepServer
from repro.util.errors import SweepCancelled

SCALE = 0.05
SWEEP_SPEC = {
    "app": "venus", "copies": 2, "scale": SCALE,
    "cache_mb": [8, 32], "block_kb": 4, "jobs": 1,
}


@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    """Isolate every on-disk cache the server tier can touch."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "results"))
    return tmp_path


def quick_server(**overrides):
    defaults = dict(port=0, workers=2, max_pending=4)
    config = ServeConfig(**{**defaults, **overrides})
    return ServerThread(config)


class TestLifecycle:
    def test_submit_stream_fetch_digests_match_cli(self, cache_env):
        """start -> submit -> stream SSE -> fetch; digests == CLI path."""
        with quick_server(cache_dir=cache_env / "results") as srv:
            client = ServeClient(port=srv.port)
            assert client.health()["ok"] is True

            job = client.submit_sweep(SWEEP_SPEC)
            assert job["state"] == "queued"
            assert job["points"] == 2

            events = list(client.events(job["id"]))
            kinds = [e["kind"] for e in events]
            assert kinds[-1] == "end"
            assert "sweep_start" in kinds
            assert kinds.count("point_done") == 2
            seqs = [e["seq"] for e in events]
            assert seqs == sorted(seqs)

            status = client.wait(job["id"], timeout=120)
            assert status["state"] == "done"
            assert status["done_points"] == 2

            payload = client.result(job["id"])
            results = payload["results"]

            # Bit-identity: the CLI sweep path is GridSpec -> SweepRunner;
            # the server must return the same keys and digests.
            grid = GridSpec(
                app="venus", n_copies=2, scale=SCALE,
                cache_sizes_mb=(8.0, 32.0), block_sizes_kb=(4.0,),
            )
            direct = SweepRunner(jobs=1, cache=None).run(grid.points())
            assert [r["key"] for r in results] == [d.key for d in direct]
            assert [r["digest"] for r in results] == [
                d.result.digest() for d in direct
            ]

            # a late subscriber gets the full history replayed, same order
            replay = list(client.events(job["id"]))
            assert [e["seq"] for e in replay] == seqs

            report = client.metrics()
            assert "exec.runner.points_simulated" in report
            assert "serve.jobs" in report

    def test_each_point_streams_once(self, cache_env):
        """An N-point sweep streams N ``point_done`` events, cold or
        served from the result cache, and no ``sweep_point``."""
        with quick_server(cache_dir=cache_env / "results") as srv:
            client = ServeClient(port=srv.port)
            for cached in (False, True):
                job = client.submit_sweep(SWEEP_SPEC)
                events = list(client.events(job["id"]))
                done = [e for e in events if e["kind"] == "point_done"]
                assert [e["index"] for e in done] == [0, 1]
                assert all(e["cached"] is cached for e in done)
                assert not [e for e in events if e["kind"] == "sweep_point"]
                status = client.wait(job["id"], timeout=120)
                assert status["done_points"] == 2
                assert status["cached_points"] == (2 if cached else 0)

    def test_resubmission_serves_from_result_cache(self, cache_env):
        with quick_server(cache_dir=cache_env / "results") as srv:
            client = ServeClient(port=srv.port)
            first = client.submit_sweep(SWEEP_SPEC)
            client.wait(first["id"], timeout=120)
            fresh = client.result(first["id"])["results"]

            second = client.submit_sweep(SWEEP_SPEC)
            client.wait(second["id"], timeout=120)
            warm = client.result(second["id"])["results"]

        assert all(not r["cached"] for r in fresh)
        assert all(r["cached"] for r in warm)
        assert [r["digest"] for r in warm] == [r["digest"] for r in fresh]
        assert [r["key"] for r in warm] == [r["key"] for r in fresh]


class TestCancellation:
    def test_cancel_mid_sweep_ends_cancelled(self, cache_env):
        """A queue sweep cancelled mid-flight ends in the cancelled state."""
        spec = {
            "app": "venus", "copies": 2, "scale": SCALE,
            "cache_mb": [4, 8, 16, 32, 64, 128], "block_kb": 4,
            "jobs": 2,  # queue path
        }
        with quick_server(no_cache=True) as srv:
            client = ServeClient(port=srv.port)
            job = client.submit_sweep(spec)
            # cancel as soon as the job starts running (points take
            # ~hundreds of ms each; the cancel lands well before done)
            for event in client.events(job["id"]):
                if event["kind"] == "job_state":
                    client.cancel(job["id"])
                if event["kind"] == "end":
                    final = event
            assert final["state"] == "cancelled"
            status = client.wait(job["id"], timeout=60)
            assert status["state"] == "cancelled"
            assert status["done_points"] < 6
            with_error = client.job(job["id"])
            assert "cancelled" in with_error.get("error", "")
            # result endpoint answers the terminal state, not 409
            assert client.result(job["id"])["state"] == "cancelled"

    def test_cancel_is_idempotent(self, cache_env):
        with quick_server(no_cache=True) as srv:
            client = ServeClient(port=srv.port)
            job = client.submit_sweep(SWEEP_SPEC)
            client.cancel(job["id"])
            status = client.wait(job["id"], timeout=60)
            assert status["state"] in ("cancelled", "done")
            again = client.cancel(job["id"])
            assert again["state"] == status["state"]


def blocked_executor(release: threading.Event):
    """Stand-in for ``SweepServer._execute_job``: park until released,
    honouring per-job cancellation like the real runner does."""

    def execute(self, job, loop):
        while not release.wait(timeout=0.01):
            if job.cancel.is_set():
                raise SweepCancelled("cancelled while parked")
        return [], {}

    return execute


class TestAdmissionControl:
    def test_full_queue_answers_429(self, cache_env, monkeypatch):
        release = threading.Event()
        monkeypatch.setattr(
            SweepServer, "_execute_job", blocked_executor(release)
        )
        with quick_server(workers=1, max_pending=1) as srv:
            client = ServeClient(port=srv.port)
            running = client.submit_sweep(SWEEP_SPEC)
            queued = client.submit_sweep(SWEEP_SPEC)

            # worker busy + one slot queued: the third job is rejected
            deadline = time.monotonic() + 10
            while client.health()["queued"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            with pytest.raises(ServeClientError) as err:
                client.submit_sweep(SWEEP_SPEC)
            assert err.value.status == 429

            # a running (not done) job's result is a 409 conflict
            with pytest.raises(ServeClientError) as err:
                client.result(running["id"])
            assert err.value.status == 409

            release.set()
            assert client.wait(running["id"], timeout=30)["state"] == "done"
            assert client.wait(queued["id"], timeout=30)["state"] == "done"
            assert "serve.jobs.rejected" in client.metrics()

    def test_bad_spec_is_400_unknown_job_404(self, cache_env):
        with quick_server() as srv:
            client = ServeClient(port=srv.port)
            with pytest.raises(ServeClientError) as err:
                client.submit("transmogrify", {})
            assert err.value.status == 400
            with pytest.raises(ServeClientError) as err:
                client.submit_sweep({"app": "no-such-app"})
            assert err.value.status == 400
            # The 400 carries the line ``repro sweep --scale 0`` prints.
            with pytest.raises(ServeClientError) as err:
                client.submit_sweep({"scale": 0})
            assert err.value.status == 400
            assert str(err.value) == "bad grid: scale must be in (0, 1], got 0.0"
            with pytest.raises(ServeClientError) as err:
                client.job("j999999")
            assert err.value.status == 404
            with pytest.raises(ServeClientError) as err:
                client._json("PUT", "/jobs")
            assert err.value.status == 404


class TestShutdown:
    def test_shutdown_cancels_queued_and_running(self, cache_env, monkeypatch):
        """Graceful shutdown: queued jobs cancel immediately; a running
        job that outlives the drain timeout is cancelled, not leaked."""
        release = threading.Event()  # never set: the job runs "forever"
        monkeypatch.setattr(
            SweepServer, "_execute_job", blocked_executor(release)
        )
        srv = quick_server(
            workers=1, max_pending=2, drain_timeout_s=0.2
        ).start()
        client = ServeClient(port=srv.port)
        running = client.submit_sweep(SWEEP_SPEC)
        queued = client.submit_sweep(SWEEP_SPEC)
        deadline = time.monotonic() + 10
        while client.job(running["id"])["state"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        srv.stop()

        states = {j.id: j.state.value for j in srv.server.jobs.values()}
        assert states[running["id"]] == "cancelled"
        assert states[queued["id"]] == "cancelled"
        # the listener is gone: new connections are refused
        with pytest.raises(OSError):
            client.health()
