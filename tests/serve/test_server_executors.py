"""Serve-layer regression: parallel jobs run on the queue backend.

A sweep job submitted with ``jobs: 2`` runs on the queue of worker
processes and must return the point keys and digests of the in-process
serial run (the backend is invisible in the results), and a second
identical job must be served from the server's result cache.
"""

import pytest

from repro.exec.grid import GridSpec
from repro.exec.runner import SweepRunner
from repro.serve import ServeClient, ServeConfig, ServerThread

SCALE = 0.05
SWEEP_SPEC = {
    "app": "venus", "copies": 2, "scale": SCALE,
    "cache_mb": [8, 32], "block_kb": 4, "jobs": 2,
}


@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    """Isolate every on-disk cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "results"))
    return tmp_path


def quick_server(**overrides):
    defaults = dict(port=0, workers=2, max_pending=4)
    return ServerThread(ServeConfig(**{**defaults, **overrides}))


def serial_reference():
    grid = GridSpec(
        app="venus", n_copies=2, scale=SCALE,
        cache_sizes_mb=(8.0, 32.0), block_sizes_kb=(4.0,),
    )
    direct = SweepRunner(jobs=1, cache=None).run(grid.points())
    return [d.key for d in direct], [d.result.digest() for d in direct]


class TestExecutorJobs:
    def test_parallel_job_digests_match_serial_and_rerun_served_from_cache(
        self, cache_env
    ):
        with quick_server(cache_dir=cache_env / "server-cache") as srv:
            client = ServeClient(port=srv.port)

            job = client.submit_sweep(SWEEP_SPEC)
            status = client.wait(job["id"], timeout=300)
            assert status["state"] == "done", status
            results = client.result(job["id"])["results"]

            ref_keys, ref_digests = serial_reference()
            assert [r["key"] for r in results] == ref_keys
            assert [r["digest"] for r in results] == ref_digests
            assert not any(r["cached"] for r in results)

            # a second parallel job is served from the result cache
            again = client.submit_sweep(SWEEP_SPEC)
            assert client.wait(again["id"], timeout=300)["state"] == "done"
            warm = client.result(again["id"])["results"]
            assert all(r["cached"] for r in warm)
            assert [r["digest"] for r in warm] == ref_digests
