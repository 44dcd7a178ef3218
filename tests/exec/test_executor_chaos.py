"""Chaos tests for the queue backend: workers die, sweeps survive.

Every sweep here runs with ``jobs=2`` and no other option, the default
parallel path, which is the queue.

Mirrors the fault-injection style of ``tests/sim/test_faults.py``: the
failure is injected deterministically (the ``REPRO_EXEC_KILL_FLAG``
hook -- a flag *file* kills exactly one worker, atomically consumed; a
flag *directory* kills every claiming worker, so retry exhaustion is
reachable) and the assertions are about the recovery contract:

* a killed worker is replaced (``exec.executor.worker_restarts`` goes
  nonzero) and its claimed point is re-queued and re-simulated to the
  bit-identical digest;
* a point whose workers die repeatedly fails the sweep with a named
  error instead of retrying forever;
* cancellation and failing points tear the worker fleet down cleanly.
"""

import pytest

from repro.exec.executor import MAX_TASK_RETRIES
from repro.exec.runner import AppWorkloadSpec, SweepPointSpec, SweepRunner
from repro.obs.registry import MetricsRegistry, use_registry
from repro.sim.config import CacheConfig, SimConfig
from repro.util.errors import SweepCancelled, SweepError
from repro.util.units import MB

SCALE = 0.05


def venus_points(n_sizes=(8, 32)):
    workload = AppWorkloadSpec(app="venus", scale=SCALE, n_copies=2)
    return [
        SweepPointSpec(
            workload=workload,
            config=SimConfig(cache=CacheConfig(size_bytes=mb * MB)),
            label=f"venus {mb}MB",
        )
        for mb in n_sizes
    ]


class TestWorkerDeath:
    def test_killed_worker_is_replaced_and_sweep_completes(
        self, tmp_path, monkeypatch
    ):
        points = venus_points()
        baseline = [
            (r.key, r.result.digest())
            for r in SweepRunner(jobs=1, cache=None).run(points)
        ]
        flag = tmp_path / "kill-one-worker"
        flag.touch()
        monkeypatch.setenv("REPRO_EXEC_KILL_FLAG", str(flag))
        registry = MetricsRegistry()
        with use_registry(registry):
            runner = SweepRunner(jobs=2, cache=None)
            results = runner.run(points)
        assert [(r.key, r.result.digest()) for r in results] == baseline
        assert not flag.exists()  # exactly one worker consumed the flag
        counters = registry.counters()
        assert counters.get("exec.executor.worker_restarts", 0) >= 1
        assert runner.simulated == len(points)

    def test_repeatedly_dying_point_fails_with_named_error(
        self, tmp_path, monkeypatch
    ):
        # A directory flag never gets consumed: every claiming worker
        # dies, so one point must exhaust MAX_TASK_RETRIES and fail the
        # sweep instead of looping forever.
        monkeypatch.setenv("REPRO_EXEC_KILL_FLAG", str(tmp_path))
        registry = MetricsRegistry()
        with use_registry(registry):
            with pytest.raises(SweepError, match="worker died"):
                SweepRunner(jobs=2, cache=None).run(venus_points())
        counters = registry.counters()
        assert counters.get(
            "exec.executor.worker_restarts", 0
        ) > MAX_TASK_RETRIES


class TestQueueFailurePropagation:
    def test_failing_point_fails_fast_with_label(self):
        points = venus_points((8,)) + [
            SweepPointSpec(
                workload=AppWorkloadSpec(app="doom", scale=SCALE),
                config=SimConfig(),
                label="doom point",
            )
        ]
        with pytest.raises(SweepError, match="doom point"):
            SweepRunner(jobs=2, cache=None).run(points)

    def test_worker_error_does_not_count_as_restart(self):
        # A point that *raises* is a failed point, not a dead worker --
        # it must not be retried.
        doomed = [
            SweepPointSpec(
                workload=AppWorkloadSpec(app="doom", scale=SCALE, seed=seed),
                config=SimConfig(),
                label=f"doom point {seed}",
            )
            for seed in (1, 2)
        ]
        registry = MetricsRegistry()
        with use_registry(registry):
            with pytest.raises(SweepError, match="doom"):
                SweepRunner(jobs=2, cache=None).run(doomed)
        assert registry.counters().get(
            "exec.executor.worker_restarts", 0
        ) == 0


class TestQueueCancellation:
    def test_cancel_mid_sweep_raises_and_cleans_up(self):
        points = venus_points((8, 16, 32, 64))
        seen = []

        class Sink:
            def emit(self, kind, **fields):
                if kind == "point_done":
                    seen.append(fields["index"])

        def should_cancel():
            return len(seen) >= 1

        with use_registry(MetricsRegistry(event_sink=Sink())):
            with pytest.raises(SweepCancelled, match="unfinished"):
                SweepRunner(
                    jobs=2, cache=None, should_cancel=should_cancel
                ).run(points)

    def test_cancel_before_start_raises_before_any_work(self):
        runner = SweepRunner(
            jobs=2, cache=None, should_cancel=lambda: True
        )
        with pytest.raises(SweepCancelled):
            runner.run(venus_points())
        assert runner.simulated == 0
