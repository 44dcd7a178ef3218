"""The three benchmark workloads: set-up, timed region, output checks.

Each workload follows one path of Miller's paper through the program:

* ``fig8_sweep`` -- Figure 8's grid (two venus copies on one CPU, main
  memory cache 4-256 MB x 4/8 KB blocks, scale 0.05), as one
  ``cache_size_sweep`` call.  Miss-bound: the cache miss and
  write-behind paths, recovery and devices do their most work here.
* ``ssd_apps`` -- section 6.3: each of the seven apps alone with a
  256 MB SSD cache, as one ``ssd_utilization_per_app`` call.  Hit-bound:
  many small requests, so per-request cost dominates.
* ``trace_pipeline`` -- section 4's collection path for the same seven
  apps: packet log written and reloaded, reconstructed, written as
  compressed ASCII, decoded, summarized.  No simulator layer runs.

A workload's ``setup`` generates every input from the seed (so the
timed ``run`` only replays, decodes or analyzes inputs that exist), and
``check`` turns one run's outputs into per-operation verdicts.  An
operation is one sweep point, one app, or one trace file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.analysis import sequentiality, summary
from repro.exec.runner import SweepRunner, clear_workload_memo, generated_workload
from repro.obs.registry import MetricsRegistry, use_registry
from repro.sim.experiments import cache_size_sweep, ssd_utilization_per_app
from repro.trace import io as trace_io
from repro.trace import packets as trace_packets
from repro.trace import reconstruct
from repro.trace.array import TraceArray
from repro.trace.procstat import ProcstatCollector
from repro.workloads.base import generate_workload, model_for

#: Figure 8 quick configuration (``repro bench``'s ``fig8`` section).
FIG8_SCALE = 0.05

#: Section 6.3's per-app scales (``ssd_utilization_per_app``'s defaults).
APP_SCALES = {
    "bvi": 0.05,
    "ccm": 0.2,
    "forma": 0.1,
    "gcm": 0.2,
    "les": 0.25,
    "venus": 0.2,
    "upw": 0.2,
}

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def short(digest: str) -> str:
    return digest[:16]


def fig8_rows_digest(points) -> str:
    """The row digest ``repro bench`` reports for its ``fig8`` section."""
    rows = [(p.cache_mb, p.block_kb, p.idle_seconds, p.hit_fraction) for p in points]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


class _RecordingRunner(SweepRunner):
    """A serial, uncached runner that keeps each sweep's point results."""

    def run(self, points):
        self.results = super().run(points)
        return self.results


def _runner() -> _RecordingRunner:
    return _RecordingRunner(jobs=1, cache=None, executor="serial", shared_memory=False)


@dataclass
class Outcome:
    """One repetition's outputs, reduced to what the checks need."""

    #: operation label -> digest of its output (None if it raised)
    digests: dict[str, str | None]
    #: operation label -> failure reason, for operations that failed
    failures: dict[str, str] = field(default_factory=dict)
    #: the program's deterministic counts for this repetition
    counts: dict[str, float] = field(default_factory=dict)
    #: extra digests that are recorded but are not per operation
    extra: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    #: operation labels, in order
    operations: tuple[str, ...]
    #: seed -> inputs (untimed)
    setup: Callable[[int, Path], dict]
    #: inputs -> raw outputs (the timed region)
    run: Callable[[dict], object]
    #: (inputs, raw outputs) -> Outcome (untimed)
    check: Callable[[dict, object], Outcome]


# -- simulator workloads -----------------------------------------------------


def _check_sim_result(result, records: int) -> str | None:
    """Invariants every fault-free simulation must satisfy, at any seed."""
    procs = result.processes.values()
    if not all(p.finished for p in procs):
        return "a process did not finish"
    if sum(p.n_ios for p in procs) != records:
        return f"replayed {sum(p.n_ios for p in procs)} I/Os, trace has {records}"
    cache = result.cache
    if cache.read_requests + cache.write_requests != records:
        return "cache saw a different number of requests than the trace holds"
    if result.faults.any_faults:
        return "faults reported in a fault-free configuration"
    if not 0.0 < result.utilization <= 1.0:
        return f"utilization {result.utilization} out of (0, 1]"
    return None


def _sim_counts(results) -> dict[str, float]:
    return {
        "sim.events.events_run": sum(r.events_run for r in results),
        "sim.cache.block_requests": sum(r.cache.block_requests for r in results),
        "sim.recovery.retries": sum(r.faults.retries for r in results),
    }


def _sim_outcome(labels, point_results, records_per_point) -> Outcome:
    results = [pr.result for pr in point_results]
    out = Outcome(digests={}, counts=_sim_counts(results))
    for label, result, records in zip(labels, results, records_per_point):
        out.digests[label] = short(result.digest())
        problem = _check_sim_result(result, records)
        if problem:
            out.failures[label] = problem
    return out


def _failed_outcome(labels, exc: BaseException) -> Outcome:
    reason = f"raised {type(exc).__name__}: {exc}"
    return Outcome(digests=dict.fromkeys(labels), failures=dict.fromkeys(labels, reason))


FIG8_POINTS = tuple(
    f"{mb}MB/{kb}KB" for kb in (4, 8) for mb in (4, 8, 16, 32, 64, 128, 256)
)


def fig8_setup(seed: int, workdir: Path) -> dict:
    clear_workload_memo()
    venus = generated_workload("venus", FIG8_SCALE, seed)
    per_point = 2 * len(venus.trace)
    return {
        "seed": seed,
        "records_per_point": [per_point] * len(FIG8_POINTS),
        "records": per_point * len(FIG8_POINTS),
    }


def fig8_run(inputs: dict):
    runner = _runner()
    try:
        points = cache_size_sweep(scale=FIG8_SCALE, seed=inputs["seed"], jobs=1, runner=runner)
    except Exception as exc:  # counted as failed operations, not a crash
        traceback.print_exc()
        return exc
    return points, runner.results


def fig8_check(inputs: dict, raw) -> Outcome:
    if isinstance(raw, Exception):
        return _failed_outcome(FIG8_POINTS, raw)
    points, point_results = raw
    out = _sim_outcome(FIG8_POINTS, point_results, inputs["records_per_point"])
    out.extra["rows"] = short(fig8_rows_digest(points))
    return out


def ssd_setup(seed: int, workdir: Path) -> dict:
    clear_workload_memo()
    lengths = [len(generated_workload(a, s, seed).trace) for a, s in APP_SCALES.items()]
    return {"seed": seed, "records_per_point": lengths, "records": sum(lengths)}


def ssd_run(inputs: dict):
    runner = _runner()
    try:
        ssd_utilization_per_app(
            scales=APP_SCALES, apps=tuple(APP_SCALES), seed=inputs["seed"], jobs=1,
            runner=runner,
        )
    except Exception as exc:
        traceback.print_exc()
        return exc
    return runner.results


def ssd_check(inputs: dict, raw) -> Outcome:
    if isinstance(raw, Exception):
        return _failed_outcome(tuple(APP_SCALES), raw)
    return _sim_outcome(tuple(APP_SCALES), raw, inputs["records_per_point"])


# -- trace collection path ---------------------------------------------------


def trace_setup(seed: int, workdir: Path) -> dict:
    """Collect each app's I/O through procstat into in-memory packets."""
    apps = {}
    for app, scale in APP_SCALES.items():
        packets: list = []
        collector = ProcstatCollector(packets.append)
        meta = model_for(app, scale=scale, seed=seed).generate(collector=collector)
        apps[app] = (packets, meta)
    records = sum(len(p) for packets, _ in apps.values() for p in packets)
    return {"seed": seed, "apps": apps, "records": records, "workdir": workdir}


def _pipeline_one(app: str, packets, meta, workdir: Path) -> dict:
    packet_log = workdir / f"{app}.packets"
    trace_file = workdir / f"{app}.trace"
    trace_packets.dump_packets(packet_log, packets)
    reloaded = list(trace_packets.load_packets(packet_log))
    records = reconstruct.reconstruct_records(reloaded)
    trace_io.write_trace(
        trace_file, records, header_comments=[c.text for c in meta.comments]
    )
    decode_counts = MetricsRegistry()
    with use_registry(decode_counts):
        decoded = trace_io.read_trace_array(trace_file)
    workload = dataclasses.replace(meta, trace=decoded)
    return {
        "records": records,
        "decoded": decoded,
        "table1": summary.summarize_table1(workload),
        "table2": summary.summarize_table2(workload),
        "sequentiality": sequentiality.analyze_sequentiality(decoded),
        "packet_bytes": packet_log.stat().st_size,
        "trace_bytes": trace_file.stat().st_size,
        "decode_counts": decode_counts.counters(),
    }


def trace_run(inputs: dict):
    out = {}
    for app, (packets, meta) in inputs["apps"].items():
        try:
            out[app] = _pipeline_one(app, packets, meta, inputs["workdir"])
        except Exception as exc:
            traceback.print_exc()
            out[app] = exc
    return out


def _trace_digest(res: dict) -> str:
    h = hashlib.sha256()
    for col in res["decoded"].columns().values():
        h.update(np.ascontiguousarray(col).tobytes())
    h.update(repr((res["table1"], res["table2"], res["sequentiality"])).encode())
    return short(h.hexdigest())


def _reference_tables(inputs: dict) -> dict:
    """Table 1/2 rows of the in-memory generated traces (computed once)."""
    ref = inputs.get("reference")
    if ref is None:
        ref = {}
        for app, scale in APP_SCALES.items():
            w = generate_workload(app, scale=scale, seed=inputs["seed"])
            ref[app] = (summary.summarize_table1(w), summary.summarize_table2(w))
        inputs["reference"] = ref
    return ref


def _columns_equal(a: TraceArray, b: TraceArray) -> bool:
    ca, cb = a.columns(), b.columns()
    return len(a) == len(b) and all(np.array_equal(ca[k], cb[k]) for k in ca)


def trace_check(inputs: dict, raw: dict) -> Outcome:
    """Full checks on the first repetition of these inputs.

    Later repetitions are held to the first one's digests (see the
    repeatability check in ``run.py``), which hash the decoded columns
    and the summary rows, so they need not repeat the slow comparisons.
    """
    full = not inputs.get("verified")
    inputs["verified"] = True
    reference = _reference_tables(inputs) if full else {}
    out = Outcome(digests={})
    totals = {"trace.reconstruct.records": 0, "trace.packets.bytes": 0,
              "trace.encode.bytes": 0}
    for app in APP_SCALES:
        res = raw[app]
        if isinstance(res, Exception):
            out.digests[app] = None
            out.failures[app] = f"raised {type(res).__name__}: {res}"
            continue
        out.digests[app] = _trace_digest(res)
        totals["trace.reconstruct.records"] += len(res["records"])
        totals["trace.packets.bytes"] += res["packet_bytes"]
        totals["trace.encode.bytes"] += res["trace_bytes"]
        if full and not _columns_equal(
            res["decoded"], TraceArray.from_records(res["records"])
        ):
            out.failures[app] = "decoded records differ from reconstructed records"
        elif full and (res["table1"], res["table2"]) != reference[app]:
            out.failures[app] = "Table 1/2 rows differ from the in-memory trace's"
    decode = [raw[a]["decode_counts"] for a in APP_SCALES if isinstance(raw[a], dict)]
    vectorized = sum(c.get("trace.decode.vectorized_lines", 0) for c in decode)
    scalar = sum(c.get("trace.decode.scalar_fallback_lines", 0) for c in decode)
    totals["trace.decode.vectorized_fraction"] = (
        vectorized / (vectorized + scalar) if vectorized + scalar else 0.0
    )
    out.counts = totals
    return out


WORKLOADS: dict[str, Workload] = {
    "fig8_sweep": Workload("fig8_sweep", FIG8_POINTS, fig8_setup, fig8_run, fig8_check),
    "ssd_apps": Workload("ssd_apps", tuple(APP_SCALES), ssd_setup, ssd_run, ssd_check),
    "trace_pipeline": Workload(
        "trace_pipeline", tuple(APP_SCALES), trace_setup, trace_run, trace_check
    ),
}


def recorded_digests(workload: str, seed: int) -> dict | None:
    """The digests recorded for ``(workload, seed)``, or None."""
    if not DIGESTS_PATH.is_file():
        return None
    return json.loads(DIGESTS_PATH.read_text()).get(workload, {}).get(str(seed))


def digest_record(outcome: Outcome) -> dict:
    """What :func:`recorded_digests` stores for one outcome."""
    return {**outcome.digests, **outcome.extra}
