"""Metric instruments, the registry, and the active-registry context."""

import pytest

from repro.obs.registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    use_registry,
)


class TestInstruments:
    def test_counter_inc_and_add(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        c.add(0.5)
        assert c.value == 5.5

    def test_gauge_tracks_peak(self):
        g = Gauge("x")
        g.set(3.0)
        g.set(1.0)
        assert g.value == 1.0
        assert g.peak == 3.0

    def test_gauge_set_max_only_moves_up(self):
        g = Gauge("x")
        g.set_max(5)
        g.set_max(2)
        assert g.value == 5
        assert g.peak == 5

    def test_histogram_summary_stats(self):
        h = Histogram("x")
        for v in (1, 2, 3, 10):
            h.observe(v)
        assert h.count == 4
        assert h.mean == pytest.approx(4.0)
        assert h.min == 1
        assert h.max == 10

    def test_histogram_power_of_two_buckets(self):
        h = Histogram("x")
        h.observe(0.5)  # bucket [0, 1)
        h.observe(1)  # [1, 2)
        h.observe(3)  # [2, 4)
        h.observe(3)
        labels = dict(h.nonzero_buckets())
        assert labels["[0, 1)"] == 1
        assert labels["[1, 2)"] == 1
        assert labels["[2, 4)"] == 2

    def test_histogram_huge_values_clamp_to_last_bucket(self):
        h = Histogram("x")
        h.observe(2.0**100)
        assert h.count == 1
        assert sum(n for _, n in h.nonzero_buckets()) == 1


class TestRegistry:
    def test_instruments_memoized_by_name(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")
        assert reg.gauge("a.g") is reg.gauge("a.g")
        assert reg.histogram("a.h") is reg.histogram("a.h")
        assert len(reg) == 3

    def test_disabled_registry_hands_out_shared_nulls(self):
        reg = MetricsRegistry(enabled=False)
        # Same singleton every time: nothing allocated, nothing stored.
        assert reg.counter("a") is reg.counter("b")
        assert reg.gauge("a") is reg.gauge("b")
        assert reg.histogram("a") is reg.histogram("b")
        reg.counter("a").inc(100)
        reg.gauge("a").set(7)
        reg.histogram("a").observe(3)
        with reg.span("a"):
            pass
        assert len(reg) == 0
        assert reg.snapshot() == {}

    def test_span_times_into_histogram(self):
        reg = MetricsRegistry()
        with reg.span("timer"):
            pass
        h = reg.histogram("timer")
        assert h.count == 1
        assert h.max >= 0.0

    def test_snapshot_shapes(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(4)
        reg.histogram("h").observe(8)
        snap = reg.snapshot()
        assert snap["c"] == 2
        assert snap["g"] == {"value": 4, "peak": 4}
        assert snap["h"]["count"] == 1 and snap["h"]["mean"] == 8

    def test_emit_without_sink_is_a_no_op(self):
        MetricsRegistry().emit("anything", n=1)

    def test_emit_forwards_to_sink(self):
        seen = []

        class Sink:
            def emit(self, kind, **fields):
                seen.append((kind, fields))

        reg = MetricsRegistry(event_sink=Sink())
        reg.emit("tick", n=3)
        assert seen == [("tick", {"n": 3})]

    def test_disabled_registry_never_emits(self):
        class Sink:
            def emit(self, kind, **fields):
                raise AssertionError("must not be called")

        MetricsRegistry(enabled=False, event_sink=Sink()).emit("tick")


class TestActiveRegistry:
    def test_default_is_the_null_registry(self):
        assert get_registry() is NULL_REGISTRY
        assert not get_registry().enabled

    def test_use_registry_scopes_and_restores(self):
        reg = MetricsRegistry()
        with use_registry(reg) as active:
            assert active is reg
            assert get_registry() is reg
        assert get_registry() is NULL_REGISTRY

    def test_use_registry_restores_on_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with use_registry(reg):
                raise RuntimeError("boom")
        assert get_registry() is NULL_REGISTRY

    def test_nested_use_registry(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with use_registry(outer):
            with use_registry(inner):
                assert get_registry() is inner
            assert get_registry() is outer
