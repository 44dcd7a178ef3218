"""The JSONL event sink (bounded buffering, batched flush) and reporting."""

import json

import pytest

from repro.obs.events import JsonlEventSink
from repro.obs.registry import MetricsRegistry
from repro.obs.report import metrics_to_jsonl, render_report


class TestJsonlEventSink:
    def test_buffers_until_full_then_flushes_batch(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlEventSink(path, buffer_events=3)
        sink.emit("a")
        sink.emit("b")
        assert path.read_text() == ""  # still buffered
        assert sink.flushes == 0
        sink.emit("c")  # buffer full -> one batched write
        assert sink.flushes == 1
        assert len(path.read_text().splitlines()) == 3
        sink.close()

    def test_close_flushes_remainder(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlEventSink(path, buffer_events=100) as sink:
            sink.emit("only")
        assert sink.flushes == 1
        kinds = [json.loads(line)["kind"] for line in path.read_text().splitlines()]
        assert kinds == ["only"]

    def test_seq_numbers_are_monotone_across_flushes(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlEventSink(path, buffer_events=2) as sink:
            for i in range(5):
                sink.emit("e", i=i)
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["seq"] for e in events] == [0, 1, 2, 3, 4]
        assert sink.events_emitted == 5
        assert sink.flushes == 3  # 2 full batches + the close flush

    def test_closed_sink_rejects_emits(self, tmp_path):
        sink = JsonlEventSink(tmp_path / "e.jsonl")
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(RuntimeError):
            sink.emit("late")

    def test_rejects_bad_buffer_size(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlEventSink(tmp_path / "e.jsonl", buffer_events=0)

    def test_fields_round_trip(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with JsonlEventSink(path) as sink:
            sink.emit("span", name="x", seconds=0.25, label="p1")
        (event,) = [json.loads(line) for line in path.read_text().splitlines()]
        assert event == {
            "seq": 0, "kind": "span", "name": "x",
            "seconds": 0.25, "label": "p1",
        }


class TestRenderReport:
    def test_empty_registry_renders_placeholder(self):
        text = render_report(MetricsRegistry(), title="t")
        assert "no metrics recorded" in text

    def test_groups_by_dotted_prefix(self):
        reg = MetricsRegistry()
        reg.counter("sim.cache.hits").inc(10)
        reg.counter("sim.disk.requests").inc(3)
        reg.gauge("sim.cache.depth").set_max(7)
        text = render_report(reg, title="== metrics ==")
        assert "== metrics ==" in text
        assert "sim.cache" in text and "sim.disk" in text
        # grouped: the cache counter and gauge share a table
        cache_section = text.split("sim.disk")[0]
        assert "sim.cache.hits" in cache_section
        assert "sim.cache.depth" in cache_section
        assert "(peak 7)" in cache_section

    def test_histogram_summarized_inline(self):
        reg = MetricsRegistry()
        reg.histogram("exec.runner.point_s").observe(2.0)
        text = render_report(reg)
        assert "n=1" in text and "mean=2" in text


class TestMetricsToJsonl:
    def test_dumps_every_instrument_kind(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc(5)
        reg.gauge("g").set(2)
        reg.histogram("h").observe(4)
        path = tmp_path / "m.jsonl"
        assert metrics_to_jsonl(reg, path) == 3
        rows = {r["metric"]: r for r in map(json.loads, path.read_text().splitlines())}
        assert rows["c"] == {"metric": "c", "type": "counter", "value": 5}
        assert rows["g"]["type"] == "gauge" and rows["g"]["peak"] == 2
        assert rows["h"]["type"] == "histogram"
        assert rows["h"]["count"] == 1
        assert rows["h"]["buckets"] == [["[4, 8)", 1]]
