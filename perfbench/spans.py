"""Span tracing of the ``repro`` layers, installed from outside the program.

The traced run wraps each layer's entry points -- the public methods
plus the callbacks a layer hands to ``Engine.schedule`` -- by patching
the class or module attribute, so no file under ``src/`` changes.  Every
call of a wrapped function records one span (site, start, end, parent)
in flat in-memory columns; nothing is aggregated while the program runs.
Self times are derived afterwards: a span's duration minus the durations
of the spans directly inside it.

Callbacks are attributed by the module that defines them: a closure the
buffer cache passes to the device (and the device schedules on the
calendar) runs as ``sim.cache`` time, because that is whose code runs.

The wrappers add a fixed cost per call (two clock reads and four column
appends), which inflates the layers with many short calls most; the
benchmark reports that cost as ``trace.overhead_frac`` against an
untraced run of the same inputs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

#: (layer, module, class or None, attribute) for every wrapped entry point.
SITES: tuple[tuple[str, str, str | None, str], ...] = (
    ("sim.cache", "repro.sim.cache", "BufferCache", "read"),
    ("sim.cache", "repro.sim.cache", "BufferCache", "write"),
    ("sim.events", "repro.sim.events", "Engine", "run"),
    ("sim.events", "repro.sim.events", "Engine", "schedule"),
    ("sim.events", "repro.sim.events", "Engine", "schedule_at"),
    ("sim.scheduler", "repro.sim.scheduler", "RoundRobinScheduler", "add"),
    ("sim.scheduler", "repro.sim.scheduler", "RoundRobinScheduler", "unblock"),
    ("sim.scheduler", "repro.sim.scheduler", "RoundRobinScheduler", "mark_blocked"),
    ("sim.scheduler", "repro.sim.scheduler", "RoundRobinScheduler", "mark_done"),
    ("sim.scheduler", "repro.sim.scheduler", "RoundRobinScheduler", "_run_slice"),
    ("sim.scheduler", "repro.sim.scheduler", "RoundRobinScheduler", "_slice_done"),
    ("sim.procmodel", "repro.sim.procmodel", "TraceProcess", "on_cpu_available"),
    ("sim.procmodel", "repro.sim.procmodel", "TraceProcess", "_io_done"),
    ("sim.recovery", "repro.sim.recovery", "RecoveringDevice", "submit"),
    ("sim.recovery", "repro.sim.recovery", "RecoveringDevice", "_attempt"),
    ("sim.devices", "repro.sim.devices", "DiskModel", "service_time"),
    ("sim.metrics", "repro.sim.metrics", "Metrics", "record_busy"),
    ("sim.metrics", "repro.sim.metrics", "Metrics", "record_busy_point"),
    ("sim.metrics", "repro.sim.metrics", "Metrics", "record_disk_transfer"),
    ("sim.metrics", "repro.sim.metrics", "Metrics", "record_demand"),
    ("sim.system", "repro.sim.system", "SimulatedSystem", "__init__"),
    ("sim.system", "repro.sim.system", "SimulatedSystem", "run"),
    ("exec", "repro.exec.runner", "SweepRunner", "run"),
    ("workloads", "repro.workloads.base", "ApplicationModel", "generate"),
    ("trace.packets", "repro.trace.packets", None, "dump_packets"),
    ("trace.packets", "repro.trace.packets", None, "load_packets"),
    ("trace.reconstruct", "repro.trace.reconstruct", None, "reconstruct_records"),
    ("trace.encode", "repro.trace.io", None, "write_trace"),
    ("trace.decode", "repro.trace.io", None, "read_trace_array"),
    ("analysis", "repro.analysis.summary", None, "summarize_table1"),
    ("analysis", "repro.analysis.summary", None, "summarize_table2"),
    ("analysis", "repro.analysis.sequentiality", None, "analyze_sequentiality"),
)

#: Layer that owns a calendar callback, by the module defining it.
CALLBACK_LAYERS = {
    "repro.sim.cache": "sim.cache",
    "repro.sim.scheduler": "sim.scheduler",
    "repro.sim.procmodel": "sim.procmodel",
    "repro.sim.recovery": "sim.recovery",
}

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, *_ in SITES))


class SpanRecorder:
    """Flat span columns plus the wrappers that fill them.

    ``site_names[i]`` and ``site_layers[i]`` describe site id ``i``;
    each span stores its site id, its parent span's index (-1 at top
    level) and ``perf_counter_ns`` start/end.  ``marks`` holds
    ``(first span index, label)`` per traced run, so spans can be
    grouped by run afterwards.
    """

    def __init__(self) -> None:
        self.site_names: list[str] = []
        self.site_layers: list[str] = []
        self.site = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.marks: list[tuple[int, str]] = []
        self._stack = [-1]
        self._sites: dict[str, int] = {}
        self._callback_sites: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def site_id(self, layer: str, name: str) -> int:
        sid = self._sites.get(name)
        if sid is None:
            sid = self._sites[name] = len(self.site_names)
            self.site_names.append(name)
            self.site_layers.append(layer)
        return sid

    def mark(self, label: str) -> int:
        """Start a new traced run; returns the index of its first span."""
        self.marks.append((len(self), label))
        return len(self)

    # -- wrappers -----------------------------------------------------------
    def traced(self, sid: int, fn):
        """``fn``, recording one span of site ``sid`` per call."""
        site_add = self.site.append
        parent_add = self.parent.append
        start_add = self.start.append
        end_add = self.end.append
        start_col = self.start
        end_col = self.end
        stack = self._stack
        push = stack.append
        pop = stack.pop
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            idx = len(start_col)
            site_add(sid)
            parent_add(stack[-1])
            end_add(0)
            push(idx)
            start_add(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end_col[idx] = clock()
                pop()

        functools.update_wrapper(span, fn)
        span._perfbench_site = sid
        return span

    def traced_generator(self, sid: int, fn):
        """Generator functions: one span per ``next`` on the generator."""

        @functools.wraps(fn)
        def gen(*args, **kwargs):
            step = self.traced(sid, next)
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item

        gen._perfbench_site = sid
        return gen

    def wrap_callback(self, fn):
        """The calendar callback ``fn``, traced under its defining layer."""
        target = getattr(fn, "__func__", fn)
        if hasattr(target, "_perfbench_site"):
            return fn
        module = getattr(target, "__module__", None)
        sid = self._callback_sites.get(module)
        if sid is None:
            layer = CALLBACK_LAYERS.get(module)
            if layer is None:
                return fn
            sid = self._callback_sites[module] = self.site_id(
                layer, f"{layer}:<callback>"
            )
        return self.traced(sid, fn)

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        """Patch every site in :data:`SITES`; undone by :meth:`uninstall`."""
        if self._patched:
            raise RuntimeError("spans already installed")
        for layer, module_name, cls_name, attr in SITES:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            original = owner.__dict__[attr] if cls_name else getattr(owner, attr)
            label = f"{cls_name}.{attr}" if cls_name else attr
            sid = self.site_id(layer, f"{layer}:{label}")
            fn = original
            if (cls_name, attr) == ("Engine", "schedule_at"):
                fn = self._schedule_at(original)
            if inspect.isgeneratorfunction(original):
                wrapped = self.traced_generator(sid, fn)
            else:
                wrapped = self.traced(sid, fn)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def _schedule_at(self, original):
        wrap_callback = self.wrap_callback

        def schedule_at(engine, when, fn, *args):
            return original(engine, when, wrap_callback(fn), *args)

        functools.update_wrapper(schedule_at, original)
        return schedule_at

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- analysis -------------------------------------------------------------
    def columns(self) -> dict[str, np.ndarray]:
        return {
            "site": np.frombuffer(self.site, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def layer_stats(self, first: int, last: int) -> dict[str, dict[str, float]]:
        """Per-layer ``calls`` and ``self_s`` over spans ``[first, last)``.

        Also keyed by site name, so a caller can single out one entry
        point (``schedule_calls``, ``build_s``).  A span's self time is
        its duration minus that of its direct children; spans of one run
        nest entirely inside that run, so the range cut is clean.
        """
        cols = self.columns()
        site = cols["site"][first:last].astype(np.int64)
        parent = cols["parent"][first:last] - first
        dur = (cols["end_ns"][first:last] - cols["start_ns"][first:last]).astype(
            np.float64
        )
        n = len(dur)
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=n)
        own = dur - child[:n]
        n_sites = len(self.site_names)
        calls = np.bincount(site, minlength=n_sites)
        self_ns = np.bincount(site, weights=own, minlength=n_sites)
        out: dict[str, dict[str, float]] = {}
        for sid, name in enumerate(self.site_names):
            for key in (self.site_layers[sid], name):
                entry = out.setdefault(key, {"calls": 0, "self_s": 0.0})
                entry["calls"] += int(calls[sid])
                entry["self_s"] += float(self_ns[sid]) / 1e9
        return out

    def write(self, path: Path, meta: dict) -> Path:
        """Write every span (and the run marks) to a compressed ``.npz``."""
        cols = self.columns()
        run = np.zeros(len(self), dtype=np.int32)
        for k, (first, _label) in enumerate(self.marks):
            run[first:] = k
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            run=run,
            site_names=np.array(self.site_names),
            site_layers=np.array(self.site_layers),
            run_labels=np.array([label for _, label in self.marks]),
            meta=np.array(repr(meta)),
            **cols,
        )
        return path
