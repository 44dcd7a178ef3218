"""Hierarchical metric instruments and the active-registry context.

The simulator's own ``procstat``: every hot layer (event engine,
scheduler, buffer cache, disk model, trace collector, sweep runner)
holds references to named instruments it bumps as it works.  Instruments
live in a :class:`MetricsRegistry`; names are dotted paths
(``sim.cache.evictions``) so reports can group them hierarchically.

Cost model
----------
Instrumentation must not perturb the reproduction.  A *disabled*
registry (the default) hands out shared null instruments whose methods
are empty, so nothing is allocated on the hot path.  The simulator's
components also keep ``registry.enabled`` in one attribute at wiring
time and make no instrument call when it is false: a disabled run
costs one attribute test per instrumented step, not a call.  Other
components pay one no-op call.  Crucially the instruments never touch
simulated state or RNG streams, so enabling metrics cannot change
simulation results; disabling them keeps default benchmark numbers
unchanged.

Threading the registry
----------------------
Components accept an explicit ``obs`` argument and fall back to the
*active* registry (:func:`get_registry`).  The CLI's ``profile``
command installs an enabled registry with :func:`use_registry` around
one experiment run and renders what accumulated.  Worker processes of a
parallel sweep start with the null registry, so profiling is an
in-process (``jobs=1``) affair by design.

:func:`use_registry` installs its registry for the *calling thread*
only; a thread with no override gets :data:`NULL_REGISTRY`.
Single-threaded callers see no difference, but concurrent jobs -- e.g.
the sweep server executing several requests in a worker-thread pool --
each get their own isolated instruments instead of trampling one
process-wide global.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator


class Counter:
    """Monotonically growing count (int or float increments)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def add(self, amount: float) -> None:
        self.value += amount


class Gauge:
    """Last-set value plus the peak it ever reached."""

    __slots__ = ("name", "value", "peak")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value

    def set_max(self, value: float) -> None:
        """Track only the peak (cheaper than set when the latest value
        is uninteresting)."""
        if value > self.peak:
            self.peak = value
            self.value = value


class Histogram:
    """Power-of-two bucketed distribution of nonnegative samples.

    Bucket *i* counts samples in ``[2**(i-1), 2**i)`` (bucket 0 holds
    samples < 1), which is plenty for seek distances and span latencies
    while keeping ``observe`` allocation-free.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    N_BUCKETS = 64

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        self.buckets = [0] * self.N_BUCKETS

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        i = int(value).bit_length() if value >= 1 else 0
        self.buckets[min(i, self.N_BUCKETS - 1)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def nonzero_buckets(self) -> list[tuple[str, int]]:
        """(bucket label, count) for every populated bucket."""
        out = []
        for i, n in enumerate(self.buckets):
            if n:
                lo = 0 if i == 0 else 2 ** (i - 1)
                out.append((f"[{lo}, {2 ** i})", n))
        return out


class Span:
    """Wall-time span context manager feeding a histogram.

    >>> with registry.span("exec.point"):            # doctest: +SKIP
    ...     simulate(...)
    """

    __slots__ = ("_hist", "_emit", "_label", "_t0")

    def __init__(
        self,
        hist: Histogram,
        emit: Callable[..., None] | None = None,
        label: str = "",
    ):
        self._hist = hist
        self._emit = emit
        self._label = label
        self._t0 = 0.0

    def __enter__(self) -> "Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        elapsed = time.perf_counter() - self._t0
        self._hist.observe(elapsed)
        if self._emit is not None:
            self._emit(
                "span", name=self._hist.name, label=self._label, seconds=elapsed
            )


class _NullCounter:
    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass

    def add(self, amount: float) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()
_NULL_SPAN = _NullSpan()


class MetricsRegistry:
    """Named instruments plus an optional event sink.

    ``enabled=False`` returns the shared null instruments from every
    accessor, so a disabled registry costs nothing to thread through.
    """

    def __init__(self, *, enabled: bool = True, event_sink=None):
        self.enabled = enabled
        self.event_sink = event_sink
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument accessors (memoized by name) -----------------------
    def counter(self, name: str):
        if not self.enabled:
            return _NULL_COUNTER
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str):
        if not self.enabled:
            return _NULL_GAUGE
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str):
        if not self.enabled:
            return _NULL_HISTOGRAM
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

    def span(self, name: str, label: str = ""):
        if not self.enabled:
            return _NULL_SPAN
        emit = self.emit if self.event_sink is not None else None
        return Span(self.histogram(name), emit, label)

    # -- event log passthrough -----------------------------------------
    def emit(self, kind: str, **fields) -> None:
        """Forward a structured event to the sink, if one is attached."""
        if self.enabled and self.event_sink is not None:
            self.event_sink.emit(kind, **fields)

    # -- introspection --------------------------------------------------
    def snapshot(self) -> dict:
        """Flat ``{name: scalar-or-dict}`` view of every instrument."""
        out: dict = {}
        for name, c in sorted(self._counters.items()):
            out[name] = c.value
        for name, g in sorted(self._gauges.items()):
            out[name] = {"value": g.value, "peak": g.peak}
        for name, h in sorted(self._histograms.items()):
            out[name] = {
                "count": h.count,
                "total": h.total,
                "mean": h.mean,
                "min": h.min if h.count else 0.0,
                "max": h.max,
            }
        return out

    def counters(self) -> dict[str, float]:
        return {name: c.value for name, c in sorted(self._counters.items())}

    def histograms(self) -> dict[str, Histogram]:
        return dict(self._histograms)

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)


#: Shared disabled registry: the default for every instrumented component.
NULL_REGISTRY = MetricsRegistry(enabled=False)

_local = threading.local()


def get_registry() -> MetricsRegistry:
    """The active registry: this thread's override, else the null
    registry."""
    registry = getattr(_local, "registry", None)
    # ``is None``, not truthiness: an empty enabled registry is falsy
    # through ``__len__``.
    return registry if registry is not None else NULL_REGISTRY


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scoped thread-local override; restores the previous registry.

    Only the calling thread sees ``registry``; concurrent threads (e.g.
    other jobs in the sweep server's worker pool) keep their own.
    """
    previous = getattr(_local, "registry", None)
    _local.registry = registry
    try:
        yield registry
    finally:
        _local.registry = previous
