"""SweepRunner: serial/parallel bit-identity, seeding, failure handling.

The scales here are tiny (a venus point is under a second) so the whole
module stays interactive even though it spins up real worker processes.
"""

import hashlib

import pytest

from repro.exec.cache import ResultCache
from repro.exec.runner import (
    AppWorkloadSpec,
    SweepPointSpec,
    SweepRunner,
    TraceFileSpec,
    resolve_jobs,
)
from repro.obs.registry import MetricsRegistry, use_registry
from repro.sim.config import CacheConfig, SimConfig
from repro.util.errors import SweepError
from repro.util.units import MB

SCALE = 0.05


class ListSink:
    """An event sink that keeps every event as a dict with its ``kind``."""

    def __init__(self):
        self.events = []

    def emit(self, kind, **fields):
        self.events.append({"kind": kind, **fields})

    def of_kind(self, kind):
        return [e for e in self.events if e["kind"] == kind]


def two_venus_points():
    workload = AppWorkloadSpec(app="venus", scale=SCALE, n_copies=2)
    return [
        SweepPointSpec(
            workload=workload,
            config=SimConfig(cache=CacheConfig(size_bytes=mb * MB)),
            label=f"venus {mb}MB",
        )
        for mb in (8, 32)
    ]


class TestJobsResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_cpu_count_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) >= 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(0)

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_env_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(ValueError, match=r"\$REPRO_JOBS"):
            resolve_jobs(None)

    def test_serial_default_when_env_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None, default=1) == 1
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None, default=1) == 3

    def test_effective_jobs_capped_by_points(self):
        assert SweepRunner(jobs=8).effective_jobs(2) == 2
        assert SweepRunner(jobs=2).effective_jobs(10) == 2


class TestDeterminism:
    def test_serial_and_parallel_bit_identical(self):
        points = two_venus_points()
        serial = SweepRunner(jobs=1).run(points)
        parallel = SweepRunner(jobs=2).run(points)
        for s, p in zip(serial, parallel):
            assert s.key == p.key
            assert s.sim_seed == p.sim_seed
            assert s.result.digest() == p.result.digest()

    def test_order_independent(self):
        points = two_venus_points()
        forward = SweepRunner(jobs=1).run(points)
        backward = SweepRunner(jobs=1).run(list(reversed(points)))
        by_key = {r.key: r.result.digest() for r in backward}
        for r in forward:
            assert by_key[r.key] == r.result.digest()

    def test_all_points_share_stream(self):
        # Sweeps are paired comparisons: every point sees the same
        # disk-latency draws (common random numbers), so differences
        # across the grid come from the configs, not the stream.
        points = two_venus_points()
        runner = SweepRunner()
        seeds = {runner.sim_seed(p) for p in points}
        assert seeds == {points[0].config.seed}

    def test_matches_direct_simulate(self):
        # The default runner must reproduce a plain simulate() call
        # bit-exactly -- sweeps change how points execute, never what
        # they compute.
        from repro.sim.system import simulate

        point = two_venus_points()[0]
        via_runner = SweepRunner(jobs=1).run_point(point).result
        direct = simulate(point.workload.materialize(), point.config)
        assert via_runner.digest() == direct.digest()

    def test_sweep_seed_changes_results(self):
        point = two_venus_points()[0]
        a = SweepRunner(jobs=1, seed=1).run_point(point)
        b = SweepRunner(jobs=1, seed=2).run_point(point)
        assert a.key != b.key
        assert a.sim_seed != b.sim_seed

    def test_label_not_in_key(self):
        a, _ = two_venus_points()
        relabeled = SweepPointSpec(
            workload=a.workload, config=a.config, label="something else"
        )
        assert a.key(0) == relabeled.key(0)


class TestWorkloadTransport:
    def test_parallel_parent_does_no_workload_work(self, monkeypatch):
        """Queue workers materialize their own workloads; the parent
        ships specs only."""
        calls = []
        original = AppWorkloadSpec.materialize

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(AppWorkloadSpec, "materialize", counting)
        runner = SweepRunner(jobs=2)
        results = runner.run(two_venus_points())
        assert len(results) == 2 and runner.simulated == 2
        assert calls == []


class TestFailurePropagation:
    def test_serial_failure_raises_sweep_error(self):
        point = SweepPointSpec(
            workload=AppWorkloadSpec(app="doom", scale=SCALE),
            config=SimConfig(),
            label="doom point",
        )
        with pytest.raises(SweepError, match="doom point"):
            SweepRunner(jobs=1).run([point])

    def test_parallel_failure_raises_not_hangs(self):
        points = two_venus_points() + [
            SweepPointSpec(
                workload=AppWorkloadSpec(app="doom", scale=SCALE),
                config=SimConfig(),
                label="doom point",
            )
        ]
        with pytest.raises(SweepError, match="doom point"):
            SweepRunner(jobs=2).run(points)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cause_is_chained(self, jobs):
        # The good venus point makes jobs=2 really fan out to the queue.
        points = two_venus_points()[:1] + [
            SweepPointSpec(
                workload=AppWorkloadSpec(app="doom", scale=SCALE),
                config=SimConfig(),
            )
        ]
        with pytest.raises(SweepError) as excinfo:
            SweepRunner(jobs=jobs).run(points)
        assert excinfo.value.__cause__ is not None
        assert "no model registered for 'doom'" in str(excinfo.value)


class TestCachedRuns:
    def test_run_point_round_trip(self, tmp_path):
        point = two_venus_points()[0]
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
        first = runner.run_point(point)
        assert not first.cached
        assert runner.simulated == 1 and runner.cache_hits == 0
        second = runner.run_point(point)
        assert second.cached
        assert runner.simulated == 1 and runner.cache_hits == 1
        assert first.result.digest() == second.result.digest()

    def test_cache_shared_across_runners(self, tmp_path):
        points = two_venus_points()
        cache = ResultCache(tmp_path)
        baseline = SweepRunner(jobs=1, cache=cache).run(points)
        rerun = SweepRunner(jobs=2, cache=ResultCache(tmp_path)).run(points)
        assert all(r.cached for r in rerun)
        for a, b in zip(baseline, rerun):
            assert a.result.digest() == b.result.digest()

    def test_partial_hits_only_simulate_misses(self, tmp_path):
        points = two_venus_points()
        cache = ResultCache(tmp_path)
        SweepRunner(jobs=1, cache=cache).run(points[:1])
        runner = SweepRunner(jobs=1, cache=cache)
        results = runner.run(points)
        assert [r.cached for r in results] == [True, False]
        assert runner.simulated == 1 and runner.cache_hits == 1


class TestWorkloadMemo:
    """The per-process memo is a bounded LRU, not an unbounded dict."""

    @pytest.fixture(autouse=True)
    def _fresh_memo(self, monkeypatch):
        from repro.exec import runner

        monkeypatch.setattr(runner, "WORKLOAD_MEMO_CAPACITY", 2)
        runner.clear_workload_memo()
        yield
        runner.clear_workload_memo()

    def test_capacity_bound_evicts_oldest(self):
        from repro.exec import runner

        for seed in (1, 2, 3):
            runner.generated_workload("venus", SCALE, seed)
        assert len(runner._WORKLOADS) == 2
        assert ("venus", SCALE, 1) not in runner._WORKLOADS
        assert ("venus", SCALE, 3) in runner._WORKLOADS

    def test_lru_touch_protects_entry(self):
        from repro.exec import runner

        runner.generated_workload("venus", SCALE, 1)
        runner.generated_workload("venus", SCALE, 2)
        runner.generated_workload("venus", SCALE, 1)  # touch 1
        runner.generated_workload("venus", SCALE, 3)  # evicts 2
        assert ("venus", SCALE, 1) in runner._WORKLOADS
        assert ("venus", SCALE, 2) not in runner._WORKLOADS

    def test_hit_returns_same_object(self):
        from repro.exec import runner

        first = runner.generated_workload("venus", SCALE, 1)
        assert runner.generated_workload("venus", SCALE, 1) is first

    def test_generation_writes_no_file(self, tmp_path, monkeypatch):
        # A generated workload lives only in the memo: nothing lands in
        # the home directory or any cache directory.
        from repro.exec import runner

        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "results"))
        runner.clear_workload_memo()
        runner.generated_workload("venus", SCALE, 1)
        assert list(tmp_path.iterdir()) == []


class TestTraceFileKeys:
    """A trace file keys by its bytes: not by path, and never stale."""

    def test_same_bytes_at_two_paths_key_equal(self, tmp_path):
        a, b = tmp_path / "a.trace", tmp_path / "b" / "a.trace"
        b.parent.mkdir()
        a.write_bytes(b"255 run 1\n")
        b.write_bytes(a.read_bytes())
        assert (
            TraceFileSpec(paths=(str(a),)).key_material()
            == TraceFileSpec(paths=(str(b),)).key_material()
        )

    def test_one_edited_byte_changes_the_key(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_bytes(b"255 run 1\n")
        spec = TraceFileSpec(paths=(str(path),))
        before = spec.key_material()
        path.write_bytes(b"255 run 2\n")
        assert spec.key_material() != before

    def test_file_larger_than_one_chunk_hashes_whole(self, tmp_path):
        path = tmp_path / "big.trace"
        path.write_bytes(bytes(range(256)) * 4097 + b"tail")
        assert path.stat().st_size > 1 << 20
        material = TraceFileSpec(paths=(str(path),)).key_material()
        assert material["sha256"] == [
            hashlib.sha256(path.read_bytes()).hexdigest()
        ]



class TestProgressHook:
    """The runner's progress reaches the active registry's event sink."""

    def test_event_sequence_and_order(self):
        sink = ListSink()
        with use_registry(MetricsRegistry(event_sink=sink)):
            SweepRunner(jobs=1).run(two_venus_points())
        assert sink.events[0] == {
            "kind": "sweep_start", "points": 2, "todo": 2, "cached": 0,
        }
        done = sink.of_kind("point_done")
        assert [e["index"] for e in done] == [0, 1]
        assert all(not e["cached"] for e in done)
        assert all(e["key"] for e in done)
        assert sink.of_kind("sweep_point") == []

    def test_cache_hits_reported_as_cached(self, tmp_path):
        points = two_venus_points()
        cache = ResultCache(root=tmp_path)
        SweepRunner(jobs=1, cache=cache).run(points)
        sink = ListSink()
        with use_registry(MetricsRegistry(event_sink=sink)):
            SweepRunner(jobs=1, cache=cache).run(points)
        assert sink.events[0]["cached"] == 2 and sink.events[0]["todo"] == 0
        done = sink.of_kind("point_done")
        assert len(done) == 2 and all(e["cached"] for e in done)

    def test_hook_exceptions_propagate(self):
        class BrokenSink:
            def emit(self, kind, **fields):
                raise ValueError("broken sink")

        with use_registry(MetricsRegistry(event_sink=BrokenSink())):
            with pytest.raises(ValueError, match="broken sink"):
                SweepRunner(jobs=1).run(two_venus_points())


class TestCancellation:
    def test_serial_cancel_between_points(self):
        from repro.util.errors import SweepCancelled

        sink = ListSink()
        runner = SweepRunner(
            jobs=1, should_cancel=lambda: len(sink.of_kind("point_done")) >= 1
        )
        with use_registry(MetricsRegistry(event_sink=sink)):
            with pytest.raises(SweepCancelled):
                runner.run(two_venus_points())
        assert len(sink.of_kind("point_done")) == 1

    def test_parallel_cancel_abandons_pending(self):
        from repro.util.errors import SweepCancelled

        calls = []

        def cancel_after_first_poll():
            calls.append(None)
            return len(calls) > 1  # pre-run check passes, loop check fires

        runner = SweepRunner(jobs=2, should_cancel=cancel_after_first_poll)
        with pytest.raises(SweepCancelled, match="unfinished"):
            runner.run(two_venus_points())

    def test_no_hooks_no_behavior_change(self):
        # Neither an event sink nor a cancel poll changes a digest.
        plain = SweepRunner(jobs=1).run(two_venus_points())
        with use_registry(MetricsRegistry(event_sink=ListSink())):
            hooked = SweepRunner(jobs=1, should_cancel=lambda: False).run(
                two_venus_points()
            )
        assert [p.result.digest() for p in plain] == [
            p.result.digest() for p in hooked
        ]
