"""Observability: counters, gauges, histograms, spans and a JSONL sink.

The paper's methodology is *instrumentation* -- library hooks feeding a
``procstat`` collector.  This package applies the same idea to the
reproduction itself: the simulator's hot layers report what they did to
a :class:`MetricsRegistry`, optionally streaming structured events to a
:class:`JsonlEventSink` with procstat-style bounded batched flushing.

The default registry is disabled and near-zero-cost; ``python -m repro
profile <experiment>`` installs an enabled one and renders the report.
"""

from repro.obs.events import JsonlEventSink
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    Span,
    get_registry,
    use_registry,
)
from repro.obs.report import metrics_to_jsonl, render_report

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlEventSink",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "Span",
    "get_registry",
    "metrics_to_jsonl",
    "render_report",
    "use_registry",
]
