"""Performance microbenchmarks: the ``repro bench`` harness.

The simulator's value rests on replaying multi-million-record traces
quickly, so this module pins a number on each layer of the hot path:

* ``engine`` -- raw calendar throughput (events/s): self-rescheduling
  callback chains through :class:`~repro.sim.events.Engine`, nothing
  else.  This is the ceiling every other benchmark lives under.
* ``cache`` -- buffer-cache request throughput (ops/s): a serial stream
  of multi-block reads and writes over a working set larger than the
  cache, exercising allocation, eviction, write-behind and read-ahead.
* ``decode`` -- ASCII trace decode bandwidth (MB/s) through the batch
  columnar path (:meth:`~repro.trace.decode.TraceDecoder.decode_array`).
* ``fig8`` -- end-to-end wall-clock of the Figure 8 cache-size sweep,
  the workload the paper's headline figure is built from.  The rows are
  digested so a perf run that silently changes results is an error, not
  a speedup.

Every benchmark returns a :class:`BenchResult`; :func:`run_suite`
assembles them into the ``BENCH_sim.json`` payload and
:func:`compare_to_baseline` turns a committed baseline
(``benchmarks/perf/baseline.json``) into a regression verdict.  Times
come from ``time.perf_counter``; run-to-run noise on shared CI workers
is why the regression gate is deliberately loose (25% by default) and
non-gating.  The short sections (``engine``, ``cache``, ``decode``) run
a discarded warm-up pass where it matters (recorded in the detail), then
time each pass against a fixed probe of interpreter work run just
before and after it, and report the median ratio at a reference host's
speed (:data:`PROBE_REF_S`), with the fastest raw pass in the detail:
on a shared host the core's own speed drifts by half within tens of
seconds, which no number of repeats averages out.  ``fig8`` stays a raw
wall-clock.

``repro bench --profile`` additionally wraps every section in
:mod:`cProfile` and writes per-section top-30 cumulative reports to
``BENCH_profile.txt`` (uploaded as a CI artifact), so the next perf PR
starts from measured hot paths instead of guesses; profiled payloads
are flagged and refused by the baseline comparison.
"""

from __future__ import annotations

import cProfile
import hashlib
import io
import json
import pstats
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.obs.registry import MetricsRegistry
from repro.sim.config import CacheConfig, SimConfig
from repro.sim.devices import DiskModel
from repro.sim.events import Engine
from repro.sim.experiments import cache_size_sweep
from repro.sim.faults import FaultInjector
from repro.sim.metrics import Metrics
from repro.sim.recovery import RecoveringDevice
from repro.trace.array import TraceArray
from repro.trace.decode import TraceDecoder
from repro.trace.encode import TraceEncoder
from repro.util.rng import DEFAULT_SEED
from repro.util.units import KB, MB
from repro.workloads.base import generate_workload

#: Payload format version for ``BENCH_sim.json``.
SCHEMA = "repro-bench/1"


@dataclass(frozen=True)
class BenchResult:
    """One benchmark's outcome.

    ``higher_is_better`` tells the baseline comparison which direction
    is a regression: throughputs regress downward, wall-clocks upward.
    """

    name: str
    value: float
    unit: str
    wall_s: float
    higher_is_better: bool
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "unit": self.unit,
            "wall_s": round(self.wall_s, 4),
            "higher_is_better": self.higher_is_better,
            "detail": self.detail,
        }


# -- individual benchmarks --------------------------------------------------

#: Median time of one probe slice (:func:`probe_s`) on the reference
#: host, an unloaded 2.1 GHz Xeon vCPU: ``engine`` reports its
#: throughput at that host's speed.
PROBE_REF_S = 0.004


def _probe_slice() -> int:
    """A fixed slice of interpreter work: dict, integer and list traffic."""
    table: dict[int, int] = {}
    items = []
    total = 0
    for i in range(20000):
        key = i & 1023
        total += table.get(key, 0) + (i * i) % 7
        table[key] = total & 0xFFFF
        if not i & 15:
            items.append((key, total))
    return len(items) + total


def probe_s(slices: int = 5) -> float:
    """The host's current speed: median time of ``slices`` probe slices."""
    times = []
    for _ in range(slices):
        t0 = time.perf_counter()
        _probe_slice()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _probed(once: Callable[[], tuple], repeats: int) -> tuple[float, tuple]:
    """Run ``repeats`` timed passes, each between two host-speed probes.

    ``once`` returns its pass's wall time first.  Returns the median
    ratio of pass time to probe time, and the fastest pass's results.
    """
    ratios = []
    best: tuple | None = None
    for _ in range(max(1, repeats)):
        before = probe_s()
        result = once()
        ratios.append(result[0] / ((before + probe_s()) / 2))
        if best is None or result[0] < best[0]:
            best = result
    return statistics.median(ratios), best


def bench_engine(
    n_events: int = 200_000, *, chains: int = 4, repeats: int = 9
) -> BenchResult:
    """Calendar throughput: ``chains`` self-rescheduling event chains.

    One untimed warm-up pass (recorded in the detail, never ranked)
    absorbs allocator and bytecode-cache warm-up.  Each of ``repeats``
    timed passes is then timed against a fixed probe of interpreter
    work (:func:`probe_s`) run just before and after it, and the median
    ratio is reported as events/s at the reference host's speed
    (:data:`PROBE_REF_S`); the raw best pass is in the detail.

    On a shared 2-vCPU host the speed of the core itself drifts by half
    within tens of seconds (process CPU time follows wall time, so it is
    not descheduling).  Five back-to-back quick runs of the raw best of
    three 60k-event passes spread 36-56%, and of three 400k-event passes
    8-51%; the probe-relative median of nine 50k-event passes spread
    8-12%, under the 25% regression flag.
    """

    def _once() -> tuple[float, int]:
        reg = MetricsRegistry(enabled=False)
        engine = Engine(obs=reg)
        remaining = [n_events]

        def tick() -> None:
            left = remaining[0] - 1
            remaining[0] = left
            # `chains` events are always in flight; stop refilling when
            # the ones already scheduled will land exactly on n_events.
            if left >= chains:
                engine.schedule(1e-6, tick)

        t0 = time.perf_counter()
        for _ in range(chains):
            engine.schedule(1e-6, tick)
        engine.run()
        return time.perf_counter() - t0, engine.events_run

    warmup_wall, _ = _once()
    ratio, (wall, events_run) = _probed(_once, repeats)
    return BenchResult(
        name="engine",
        value=events_run / (ratio * PROBE_REF_S),
        unit="events/s",
        wall_s=wall,
        higher_is_better=True,
        detail={
            "events_run": events_run,
            "chains": chains,
            "repeats": max(1, repeats),
            "raw_events_per_s": round(events_run / wall),
            "warmup_wall_s": round(warmup_wall, 4),
        },
    )


def bench_cache(n_requests: int = 40_000, *, repeats: int = 3) -> BenchResult:
    """Buffer-cache request throughput over an eviction-heavy stream.

    One synthetic client issues 16 KB requests serially (each submitted
    from the previous one's completion callback, like a replayed
    process), alternating half-KB-aligned passes of writes and reads
    over a working set twice the cache -- so the stream exercises
    allocation, clean-LRU eviction, write-behind flushing and the
    sequential-read prefetcher rather than just the hit path.

    As with ``engine``: one warm-up pass recorded separately in the
    detail, then ``repeats`` probe-timed passes (fresh cache, engine
    and device each pass -- the stream must stay cold).
    """

    def _once() -> tuple[float, int, float]:
        reg = MetricsRegistry(enabled=False)
        cfg = SimConfig(
            cache=CacheConfig(size_bytes=16 * MB, block_bytes=4 * KB)
        )
        engine = Engine(obs=reg)
        metrics = Metrics()
        disk = DiskModel(cfg.disk, seed=DEFAULT_SEED, obs=reg)
        injector = FaultInjector(cfg.faults, seed=DEFAULT_SEED)
        device = RecoveringDevice(
            disk, engine, injector, cfg.recovery, metrics, obs=reg
        )
        from repro.sim.cache import BufferCache

        length = 16 * KB
        span = 32 * MB
        cache = BufferCache(
            cfg.cache, engine, disk, metrics,
            file_sizes={1: span}, device=device, obs=reg,
        )
        cursor = [0]
        pumping = [False]
        fired_inline = [False]

        def on_done(_penalty: float = 0.0) -> None:
            if pumping[0]:
                fired_inline[0] = True  # hit completed inside submit
            else:
                pump()  # miss completed from the calendar: keep going

        def pump() -> None:
            # Trampoline, not recursion: cached writes/hits complete
            # inline, and a callback-chained issue loop would overflow
            # the stack.
            pumping[0] = True
            while cursor[0] < n_requests:
                i = cursor[0]
                cursor[0] = i + 1
                offset = (i * length) % span
                fired_inline[0] = False
                if (i // 512) % 2:
                    cache.read(1, offset, length, 1, on_done)
                else:
                    cache.write(1, offset, length, 1, on_done)
                if not fired_inline[0]:
                    break
            pumping[0] = False

        t0 = time.perf_counter()
        pump()
        engine.run()
        wall = time.perf_counter() - t0
        return wall, engine.events_run, metrics.cache.hit_fraction

    warmup_wall, _, _ = _once()
    ratio, (wall, events_run, hit_fraction) = _probed(_once, repeats)
    return BenchResult(
        name="cache",
        value=n_requests / (ratio * PROBE_REF_S),
        unit="ops/s",
        wall_s=wall,
        higher_is_better=True,
        detail={
            "requests": n_requests,
            "events_run": events_run,
            "hit_fraction": round(hit_fraction, 4),
            "raw_ops_per_s": round(n_requests / wall),
            "repeats": max(1, repeats),
            "warmup_wall_s": round(warmup_wall, 4),
        },
    )


def bench_decode(
    scale: float = 0.1, *, min_mb: float = 8.0, repeats: int = 5
) -> BenchResult:
    """ASCII decode bandwidth through the batch columnar path.

    A single scaled venus trace is well under a megabyte, so the encoded
    stream is tiled until it reaches ``min_mb`` -- repeated lines are
    legal input (the decoder's reconstruction state simply carries
    across copies) and keep the measurement out of timer-noise range.

    The decode is run ``repeats`` times (a fresh decoder each time; the
    vectorized path only engages from a fresh one), each pass timed
    against the host probe as in ``engine``.
    """
    workload = generate_workload("venus", scale=scale, seed=DEFAULT_SEED)
    encoder = TraceEncoder(omit_operation_ids=True)
    lines = [encoder.encode(r) for r in workload.trace.to_records()]
    nbytes = sum(len(line) + 1 for line in lines)
    copies = max(1, -(-int(min_mb * MB) // max(1, nbytes)))
    lines = lines * copies
    nbytes *= copies

    def _once() -> tuple[float, TraceArray]:
        t0 = time.perf_counter()
        decoded = TraceDecoder().decode_array(lines)
        return time.perf_counter() - t0, decoded

    ratio, (wall, decoded) = _probed(_once, repeats)
    return BenchResult(
        name="decode",
        value=nbytes / MB / (ratio * PROBE_REF_S),
        unit="MB/s",
        wall_s=wall,
        higher_is_better=True,
        detail={
            "records": len(decoded),
            "ascii_bytes": nbytes,
            "raw_mb_per_s": round(nbytes / MB / wall, 1),
            "repeats": max(1, repeats),
        },
    )


def bench_fig8(scale: float = 0.1, *, jobs: int = 1) -> BenchResult:
    """End-to-end wall-clock of the Figure 8 cache-size sweep.

    Runs without the on-disk result cache, so the measurement stays
    *cold* -- a memoized sweep would benchmark JSON loading, and a warm
    user cache must not make a bench run incomparable to the committed
    baseline.  The sweep rows are digested into the detail so two bench
    runs can be checked for identical results, not just comparable
    speed.
    """
    t0 = time.perf_counter()
    points = cache_size_sweep(scale=scale, seed=DEFAULT_SEED, jobs=jobs)
    wall = time.perf_counter() - t0
    points_digest = hashlib.sha256(
        json.dumps(
            [
                (p.cache_mb, p.block_kb, p.idle_seconds, p.hit_fraction)
                for p in points
            ],
            sort_keys=True,
        ).encode()
    ).hexdigest()
    return BenchResult(
        name="fig8",
        value=wall,
        unit="s",
        wall_s=wall,
        higher_is_better=False,
        detail={
            "points": len(points),
            "scale": scale,
            "jobs": jobs,
            "digest": points_digest[:16],
        },
    )


# -- suite ------------------------------------------------------------------

#: name -> (quick kwargs, full kwargs)
_SUITE: dict[str, tuple[Callable[..., BenchResult], dict, dict]] = {
    "engine": (bench_engine, {"n_events": 50_000}, {"n_events": 200_000}),
    "cache": (bench_cache, {"n_requests": 10_000}, {"n_requests": 40_000}),
    # Shorter passes drift apart from the probe: five back-to-back quick
    # runs spread 32% at 1 MB x 3 passes, 16% at 4 MB x 5.
    "decode": (
        bench_decode,
        {"scale": 0.1, "min_mb": 4.0},
        {"scale": 0.1, "min_mb": 8.0},
    ),
    "fig8": (bench_fig8, {"scale": 0.05}, {"scale": 0.1}),
}


def run_suite(
    *,
    quick: bool = False,
    jobs: int = 1,
    repeats: int = 1,
    profile_to: str | Path | None = None,
) -> dict:
    """Run every benchmark; returns the ``BENCH_sim.json`` payload.

    ``repeats`` re-runs each benchmark and keeps the best measurement
    (throughput max / wall-clock min) -- the standard way to strip
    scheduler noise from a microbenchmark.

    ``profile_to`` wraps every section in :mod:`cProfile` and writes a
    per-section top-30 cumulative report to that path (the
    ``BENCH_profile.txt`` CI artifact).  Profiling taxes the hot path by
    design, so a profiled payload carries ``"profiled": true`` and its
    numbers must not be compared against an unprofiled baseline --
    :func:`compare_to_baseline` refuses to.
    """
    results: dict[str, BenchResult] = {}
    profiles: dict[str, cProfile.Profile] = {}
    for name, (fn, quick_kwargs, full_kwargs) in _SUITE.items():
        kwargs = dict(quick_kwargs if quick else full_kwargs)
        if name == "fig8":
            kwargs["jobs"] = jobs
        prof = cProfile.Profile() if profile_to is not None else None
        best: BenchResult | None = None
        for _ in range(max(1, repeats)):
            if prof is not None:
                prof.enable()
            r = fn(**kwargs)
            if prof is not None:
                prof.disable()
            if (
                best is None
                or (r.higher_is_better and r.value > best.value)
                or (not r.higher_is_better and r.value < best.value)
            ):
                best = r
        results[name] = best
        if prof is not None:
            profiles[name] = prof
    payload = {
        "schema": SCHEMA,
        "quick": quick,
        "repeats": repeats,
        "benchmarks": {name: r.to_json() for name, r in results.items()},
    }
    if profile_to is not None:
        payload["profiled"] = True
        payload["profile"] = str(write_profile_report(profiles, profile_to))
    return payload


def write_profile_report(
    profiles: dict[str, cProfile.Profile], path: str | Path
) -> Path:
    """Write one top-30 cumulative pstats block per bench section.

    The report is where the *next* perf PR starts: cumulative ordering
    names the layer to attack (kernel vs cache vs decode), and the
    per-section split keeps a fig8 sweep's two million calls from
    burying the cache bench's hot path.
    """
    path = Path(path)
    buf = io.StringIO()
    for name, prof in profiles.items():
        buf.write(f"== section: {name} (top 30 by cumulative time) ==\n")
        stats = pstats.Stats(prof, stream=buf)
        stats.strip_dirs().sort_stats("cumulative").print_stats(30)
        buf.write("\n")
    path.write_text(buf.getvalue())
    return path


def compare_to_baseline(
    payload: dict, baseline: dict, *, max_regression: float = 0.25
) -> list[str]:
    """Regression messages for every benchmark worse than the baseline.

    A throughput benchmark regresses when it drops below
    ``(1 - max_regression)`` of the baseline value; a wall-clock
    benchmark when it exceeds ``(1 + max_regression)``.  Benchmarks
    missing from either side are skipped (a new benchmark must not fail
    the first run that introduces it).  Quick and full payloads run
    different workload sizes, so comparing across modes is refused.
    """
    if payload.get("quick") != baseline.get("quick"):
        raise ValueError(
            "cannot compare a "
            f"{'quick' if payload.get('quick') else 'full'} run against a "
            f"{'quick' if baseline.get('quick') else 'full'} baseline"
        )
    if payload.get("profiled") and not baseline.get("profiled"):
        raise ValueError(
            "cannot compare a profiled run against an unprofiled "
            "baseline: cProfile instrumentation taxes every measurement"
        )
    problems: list[str] = []
    base_benches = baseline.get("benchmarks", {})
    for name, entry in payload.get("benchmarks", {}).items():
        base = base_benches.get(name)
        if base is None:
            continue
        value, ref = entry["value"], base["value"]
        if entry.get("higher_is_better", True):
            floor = ref * (1.0 - max_regression)
            if value < floor:
                problems.append(
                    f"{name}: {value:.1f} {entry['unit']} is below "
                    f"{floor:.1f} ({ref:.1f} baseline - {max_regression:.0%})"
                )
        else:
            ceiling = ref * (1.0 + max_regression)
            if value > ceiling:
                problems.append(
                    f"{name}: {value:.2f} {entry['unit']} exceeds "
                    f"{ceiling:.2f} ({ref:.2f} baseline + {max_regression:.0%})"
                )
    return problems


def _table_suffix(name: str, detail: dict) -> str:
    """Workload identity a reader needs on the table line itself.

    The ``cache`` section runs 10k requests in quick mode but 40k in
    full mode; without the request count (and the hit fraction it
    implies) on the line, a quick run reads as a 4x regression against
    a full baseline.  The sweep sections carry their result digest, so
    the table also says whether a timing came from the same simulation.
    """
    if name == "cache" and "requests" in detail:
        suffix = f"  requests={detail['requests']:,}"
        if "hit_fraction" in detail:
            suffix += f" hits={detail['hit_fraction']:.2%}"
        return suffix
    if "digest" in detail:
        return f"  digest={detail['digest']}"
    return ""


def render_table(payload: dict) -> str:
    """Human-readable summary of a bench payload."""
    lines = [
        f"== repro bench ({'quick' if payload.get('quick') else 'full'}) =="
    ]
    if payload.get("profiled"):
        lines[0] += " [profiled: timings include cProfile overhead]"
    for name, entry in payload["benchmarks"].items():
        lines.append(
            f"{name:8s} {entry['value']:>12,.1f} {entry['unit']:<9s}"
            f" [{entry['wall_s']:.2f} s]"
            + _table_suffix(name, entry.get("detail", {}))
        )
    return "\n".join(lines)


def write_payload(payload: dict, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())
