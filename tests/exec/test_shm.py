"""Shared-memory workload fan-out: equivalence, cleanup, fallbacks.

The transport invariant under test: publishing workloads over shared
memory changes *how* bytes reach the workers, never *what* the sweep
computes -- and every exit path (success, failing point, disabled
platform) leaves no segment behind.
"""

import numpy as np
import pytest

from repro.exec.executor import PointTask, publish_workloads
from repro.exec.runner import (
    AppWorkloadSpec,
    SweepPointSpec,
    SweepRunner,
    _simulate_point,
    generated_workload,
)
from repro.exec.shm import (
    SegmentPublisher,
    SharedWorkload,
    attach_workload,
    shm_available,
)
from repro.obs.registry import MetricsRegistry, use_registry
from repro.sim.config import CacheConfig, SimConfig
from repro.util.errors import SweepError
from repro.util.units import MB

SCALE = 0.05


def venus_points():
    workload = AppWorkloadSpec(app="venus", scale=SCALE, n_copies=2)
    return [
        SweepPointSpec(
            workload=workload,
            config=SimConfig(cache=CacheConfig(size_bytes=mb * MB)),
            label=f"venus {mb}MB",
        )
        for mb in (8, 32)
    ]


def point_tasks(points):
    return [
        PointTask(index=i, point=p, seed=p.config.seed, label=p.label)
        for i, p in enumerate(points)
    ]


def shm_leftovers():
    import pathlib

    dev = pathlib.Path("/dev/shm")
    if not dev.is_dir():
        return set()
    return {p.name for p in dev.glob("psm_*")}


class TestPublisherAttach:
    def test_attach_views_match_source(self):
        traces = AppWorkloadSpec(app="venus", scale=SCALE, n_copies=2).materialize()
        publisher = SegmentPublisher()
        try:
            ref = publisher.publish(traces)
            assert ref is not None
            attached = attach_workload(ref)
            assert len(attached) == len(traces)
            for src, view in zip(traces, attached):
                for name, col in src.columns().items():
                    got = getattr(view, name)
                    assert got.dtype == col.dtype, name
                    assert np.array_equal(got, col), name
                    assert not got.flags.writeable
        finally:
            publisher.close()

    def test_close_is_idempotent_and_counted(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            publisher = SegmentPublisher()
            traces = [generated_workload("venus", SCALE, seed=2).trace]
            publisher.publish(traces)
            assert publisher.open_segments == 1
            publisher.close()
            publisher.close()
        counters = registry.counters()
        assert counters["exec.shm.segments_opened"] == 1
        assert counters["exec.shm.segments_closed"] == 1
        assert counters["exec.shm.bytes_published"] > 0

    def test_attach_unknown_segment_raises(self):
        ref = SharedWorkload(segment="psm_does_not_exist", traces=(), nbytes=1)
        with pytest.raises((OSError, ValueError)):
            attach_workload(ref)

    def test_simulate_point_falls_back_on_bad_ref(self):
        # A worker handed a dead segment must reproduce the per-worker
        # result, not fail.
        point = venus_points()[0]
        bogus = SharedWorkload(segment="psm_gone_segment", traces=(), nbytes=1)
        via_fallback = _simulate_point(point, point.config.seed, bogus)
        direct = _simulate_point(point, point.config.seed)
        assert via_fallback.digest() == direct.digest()

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "off")
        assert not shm_available()
        assert publish_workloads(point_tasks(venus_points()), None) == (None, {})
        monkeypatch.setenv("REPRO_SHM", "1")
        assert shm_available()

    def test_forced_off_overrides_platform(self):
        assert publish_workloads(point_tasks(venus_points()), False) == (None, {})


class TestSweepEquivalence:
    def test_shm_matches_per_worker_and_serial(self):
        points = venus_points()
        serial = SweepRunner(jobs=1).run(points)
        shm = SweepRunner(jobs=2, shared_memory=True).run(points)
        plain = SweepRunner(jobs=2, shared_memory=False).run(points)
        for s, a, b in zip(serial, shm, plain):
            assert s.key == a.key == b.key
            assert s.result.digest() == a.result.digest() == b.result.digest()

    def test_publishes_each_distinct_workload_once(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            SweepRunner(jobs=2, shared_memory=True).run(venus_points())
        counters = registry.counters()
        # two points, one distinct workload
        assert counters["exec.shm.workloads_published"] == 1
        assert counters["exec.shm.segments_opened"] == 1
        assert counters["exec.shm.segments_closed"] == 1

    def test_no_segments_leak_on_success(self):
        before = shm_leftovers()
        SweepRunner(jobs=2, shared_memory=True).run(venus_points())
        assert shm_leftovers() <= before

    def test_no_segments_leak_on_failure(self):
        points = venus_points() + [
            SweepPointSpec(
                workload=AppWorkloadSpec(app="doom", scale=SCALE),
                config=SimConfig(),
                label="doom point",
            )
        ]
        before = shm_leftovers()
        registry = MetricsRegistry()
        with use_registry(registry):
            with pytest.raises(SweepError, match="doom point"):
                SweepRunner(jobs=2, shared_memory=True).run(points)
        assert shm_leftovers() <= before
        counters = registry.counters()
        assert counters.get("exec.shm.segments_opened", 0) == counters.get(
            "exec.shm.segments_closed", 0
        )

    def test_sweep_runs_with_shm_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "0")
        points = venus_points()
        off = SweepRunner(jobs=2).run(points)
        monkeypatch.delenv("REPRO_SHM")
        on = SweepRunner(jobs=2).run(points)
        for a, b in zip(off, on):
            assert a.result.digest() == b.result.digest()


class TestAttachFailureVisibility:
    """Regression: a failed attach used to be swallowed silently.

    The fallback still runs (results stay correct), but every failure
    now bumps ``exec.shm.attach_failures`` and the *first* failure per
    segment emits one RuntimeWarning -- a degraded sweep is visible.
    """

    @pytest.fixture(autouse=True)
    def fresh_warn_state(self, monkeypatch):
        from repro.exec import runner

        monkeypatch.setattr(runner, "_ATTACH_WARNED", set())

    def test_failure_counted_and_warned_once_per_segment(self):
        point = venus_points()[0]
        bogus = SharedWorkload(segment="psm_vanished", traces=(), nbytes=1)
        registry = MetricsRegistry()
        with use_registry(registry):
            with pytest.warns(RuntimeWarning, match="psm_vanished"):
                _simulate_point(point, point.config.seed, bogus)
            # second point, same dead segment: counted again, no new warning
            import warnings as warnings_module

            with warnings_module.catch_warnings():
                warnings_module.simplefilter("error", RuntimeWarning)
                _simulate_point(point, point.config.seed, bogus)
        assert registry.counters()["exec.shm.attach_failures"] == 2

    def test_distinct_segments_warn_separately(self):
        point = venus_points()[0]
        with pytest.warns(RuntimeWarning, match="psm_first"):
            _simulate_point(
                point,
                point.config.seed,
                SharedWorkload(segment="psm_first", traces=(), nbytes=1),
            )
        with pytest.warns(RuntimeWarning, match="psm_second"):
            _simulate_point(
                point,
                point.config.seed,
                SharedWorkload(segment="psm_second", traces=(), nbytes=1),
            )


class TestPublishSkipVisibility:
    """Regression: a workload whose pre-materialization failed used to be
    dropped from sharing with no trace at all."""

    @pytest.mark.skipif(not shm_available(), reason="no shared memory here")
    def test_skip_counted_and_warned_with_exception_type(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class ExplodingSpec:
            def materialize(self):
                raise RuntimeError("no columns today")

            def key_material(self):
                return {"kind": "exploding"}

        point = SweepPointSpec(
            workload=ExplodingSpec(), config=SimConfig(), label="boom"
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            with pytest.warns(RuntimeWarning, match="RuntimeError"):
                publisher, refs = publish_workloads(point_tasks([point]), True)
        if publisher is not None:
            publisher.close()
        assert refs[point.workload] is None
        assert registry.counters()["exec.shm.publish_skipped"] == 1
