"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig8_sweep --seed 7 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` measures the workload untraced, then once more with span
wrappers installed on every layer (see ``spans.py``), and reports the
per-layer metrics plus the tracing overhead.  End-to-end times are
rescaled to a reference host speed (see HostClock); the raw ones are
printed too.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

Run from the root of a source checkout: the program is imported from
``src/``.  Everything the run writes (trace store, packet logs, span
files) stays under ``.perfbench_tmp/`` and ``.perfbench_out/`` there.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import LAYERS, SpanRecorder  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("fig8_sweep", "ssd_apps", "trace_pipeline")

#: Set-up passes per untraced run; ``setup_s`` reports their median.
SETUP_PASSES = 3

#: Median time of one probe slice on an unloaded host (a 2.1 GHz Xeon
#: vCPU).  Reported times are rescaled to this host speed; see HostClock.
PROBE_REF_S = 0.004

#: How strongly the program's time follows the probe's.  Between runs
#: minutes apart on that host, when the probe slowed by a factor k,
#: fig8_sweep and ssd_apps both slowed by about k**0.6.
PROBE_ELASTICITY = 0.6


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


def probe_s() -> float:
    """The host's current speed: median time of 15 probe slices."""
    times = []
    for _ in range(15):
        t0 = time.perf_counter()
        _probe_slice()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class HostClock:
    """Rescales measured times to the reference host speed.

    The host shares its CPUs with other tenants: the same fixed work
    takes up to 1.6x longer from one second to the next, and the level
    drifts over minutes, so whole runs land in slow or fast phases.  A
    probe timed right before and right after each measured interval
    gives the host's speed around it, and the interval is reported as
    ``raw * (PROBE_REF_S / probe) ** PROBE_ELASTICITY``: the time it
    would have taken at the reference speed.  The probe is the
    benchmark's own code, so a change to the program moves the rescaled
    time in proportion to the raw one.
    """

    def __init__(self) -> None:
        self.probes = [probe_s()]

    def rescale(self, raw_s: float) -> float:
        """Rescale an interval that ended just now (probes after it)."""
        before = self.probes[-1]
        self.probes.append(probe_s())
        return raw_s * speed_factor((before + self.probes[-1]) / 2)


def speed_factor(probe: float) -> float:
    """Multiplier taking a time measured at ``probe`` to the reference speed."""
    return (PROBE_REF_S / probe) ** PROBE_ELASTICITY


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=None, help="default: the repo seed")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_environment(scratch: Path) -> list[str]:
    """Clear every ``REPRO_*`` knob and keep all writes under ``scratch``.

    Returns the names of the variables that were cleared, so a stray
    shell setting shows in the output instead of changing the program.
    """
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in cleared:
        del os.environ[key]
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "results")
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    return cleared


def setup_pass(workload, seed: int, scratch: Path, k: int) -> tuple[dict, float]:
    """One cold set-up: a fresh trace store, every input generated."""
    store = scratch / f"store-{k}"
    workdir = scratch / "work"
    workdir.mkdir(exist_ok=True)
    os.environ["REPRO_TRACE_CACHE"] = str(store)
    gc.collect()
    t0 = time.perf_counter()
    inputs = workload.setup(seed, workdir)
    return inputs, time.perf_counter() - t0


def measure(workload, inputs: dict, budget_s: float, clock: HostClock) -> list:
    """Repeat the timed region until ``budget_s`` of it has run.

    Returns ``(raw wall_s, rescaled wall_s, outcome)`` per repetition.
    Outputs are checked after the clock stops, so the benchmark's own
    comparisons do not count as program time.
    """
    reps = []
    while True:
        gc.collect()
        t0 = time.perf_counter()
        raw = workload.run(inputs)
        wall = time.perf_counter() - t0
        reps.append((wall, clock.rescale(wall), workload.check(inputs, raw)))
        del raw
        walls = [w for w, _, _ in reps]
        if sum(walls) + statistics.median(walls) > budget_s:
            return reps


def verdicts(workload, outcomes, expected: dict | None) -> dict[str, int]:
    """Failed-operation count per reason over every repetition.

    An operation fails when it raised, broke an invariant, differed from
    the first repetition (determinism), or differed from the recorded
    digest for this seed.
    """
    first = outcomes[0]
    failed = {"raised or invariant": 0, "not repeatable": 0, "digest mismatch": 0}
    for out in outcomes:
        for op in workload.operations:
            if op in out.failures:
                failed["raised or invariant"] += 1
            elif out.digests[op] != first.digests[op] or out.counts != first.counts:
                failed["not repeatable"] += 1
            elif expected is not None and (
                expected.get(op) != out.digests[op]
                or any(expected.get(k) != v for k, v in out.extra.items())
            ):
                failed["digest mismatch"] += 1
    return failed


def traced_run(workload, seed: int, scratch: Path, clock: HostClock):
    """Set up and run once more with spans on.

    Returns the recorder, the span ranges of set-up and run, the raw and
    rescaled traced wall, the outcome and the inputs.
    """
    rec = SpanRecorder()
    with rec:
        setup_first = rec.mark("setup")
        inputs, _ = setup_pass(workload, seed, scratch, SETUP_PASSES)
        run_first = rec.mark("run")
        gc.collect()
        t0 = time.perf_counter()
        raw = workload.run(inputs)
        wall = time.perf_counter() - t0
        run_last = len(rec)
    rescaled = clock.rescale(wall)
    outcome = workload.check(inputs, raw)
    return rec, (setup_first, run_first, run_last), wall, rescaled, outcome, inputs


def per_layer_metrics(rec, ranges, traced_wall, overhead_frac, outcome, inputs):
    """Every per-layer metric of ``BENCHMARK.json`` as ``name -> (value, unit)``."""
    setup_first, run_first, run_last = ranges
    run = rec.layer_stats(run_first, run_last)
    setup = rec.layer_stats(setup_first, run_first)

    def layer(name):
        return run.get(name, {"calls": 0, "self_s": 0.0})

    counts = outcome.counts
    m = {}
    for name in ("sim.cache", "sim.scheduler", "sim.procmodel", "sim.recovery",
                 "sim.devices", "sim.metrics"):
        m[f"{name}.calls"] = (layer(name)["calls"], "count")
        m[f"{name}.self_s"] = (layer(name)["self_s"], "s")
    blocks = counts.get("sim.cache.block_requests", 0)
    m["sim.cache.block_requests"] = (blocks, "count")
    m["sim.cache.us_per_block"] = (
        layer("sim.cache")["self_s"] / blocks * 1e6 if blocks else 0.0, "us")
    m["sim.events.self_s"] = (layer("sim.events")["self_s"], "s")
    m["sim.events.schedule_calls"] = (
        layer("sim.events:Engine.schedule_at")["calls"], "count")
    m["sim.events.events_run"] = (counts.get("sim.events.events_run", 0), "count")
    m["sim.recovery.retries"] = (counts.get("sim.recovery.retries", 0), "count")
    m["sim.system.build_s"] = (layer("sim.system:SimulatedSystem.__init__")["self_s"], "s")
    m["sim.system.self_s"] = (layer("sim.system")["self_s"], "s")
    m["exec.self_s"] = (layer("exec")["self_s"], "s")
    m["workloads.self_s"] = (setup.get("workloads", {"self_s": 0.0})["self_s"], "s")
    m["workloads.records"] = (inputs["records"], "count")
    m["trace.packets.self_s"] = (layer("trace.packets")["self_s"], "s")
    m["trace.packets.bytes"] = (counts.get("trace.packets.bytes", 0), "bytes")
    m["trace.reconstruct.self_s"] = (layer("trace.reconstruct")["self_s"], "s")
    m["trace.reconstruct.records"] = (counts.get("trace.reconstruct.records", 0), "count")
    trace_mb = counts.get("trace.encode.bytes", 0) / 2**20  # written, then decoded
    for stage in ("encode", "decode"):
        self_s = layer(f"trace.{stage}")["self_s"]
        m[f"trace.{stage}.self_s"] = (self_s, "s")
        m[f"trace.{stage}.mb_per_s"] = (trace_mb / self_s if self_s else 0.0, "MB/s")
    m["trace.decode.vectorized_fraction"] = (
        counts.get("trace.decode.vectorized_fraction", 0.0), "fraction")
    m["analysis.self_s"] = (layer("analysis")["self_s"], "s")
    attributed = sum(layer(name)["self_s"] for name in LAYERS)
    m["trace.traced_wall_s"] = (traced_wall, "s")
    m["trace.overhead_frac"] = (overhead_frac, "fraction")
    m["trace.unattributed_s"] = (traced_wall - attributed, "s")
    m["trace.spans"] = (run_last - run_first, "count")
    return m


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    try:
        return _main(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass


def _main(args, scratch: Path) -> int:
    cleared = pin_environment(scratch)
    sys.path.insert(0, str(ROOT / "src"))
    import suite
    from repro.util.rng import DEFAULT_SEED

    import_s = time.perf_counter() - _PROCESS_START
    clock = HostClock()
    seed = DEFAULT_SEED if args.seed is None else args.seed
    workload = suite.WORKLOADS[args.workload]

    print(f"perfbench {workload.name} seed={seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  environment: REPRO_* cleared {cleared or 'none set'}; jobs=1 executor=serial "
          f"result_cache=off engine=default cache=default trace_store=throwaway under {scratch}")

    passes = 1 if args.trace else SETUP_PASSES
    setup_raw, setup_rescaled = [], []
    for k in range(passes):
        inputs = None  # let the previous pass's inputs go before the next
        inputs, seconds = setup_pass(workload, seed, scratch, k)
        setup_raw.append(seconds)
        setup_rescaled.append(clock.rescale(seconds))
    raw_setup_s = import_s + statistics.median(setup_raw)
    setup_s = import_s * speed_factor(clock.probes[0]) + statistics.median(setup_rescaled)
    print(f"  set-up: import {import_s:.3f} s + median of {passes} passes "
          f"{statistics.median(setup_raw):.3f} s; {inputs['records']} input records")

    budget = args.seconds / 2 if args.trace else args.seconds
    reps = measure(workload, inputs, budget, clock)
    walls = [w for w, _, _ in reps]
    rescaled = [r for _, r, _ in reps]
    outcomes = [o for _, _, o in reps]
    print(f"  timed region: {len(walls)} repetitions, raw wall_s "
          + " ".join(f"{w:.3f}" for w in walls))
    print("    rescaled to the reference host speed: "
          + " ".join(f"{w:.3f}" for w in rescaled))

    traced = None
    if args.trace:
        traced = traced_run(workload, seed, scratch, clock)
        outcomes.append(traced[4])

    expected = suite.recorded_digests(workload.name, seed)
    failed_by = verdicts(workload, outcomes, expected)
    attempted = len(workload.operations) * len(outcomes)
    failed = sum(failed_by.values())
    digests = suite.digest_record(outcomes[0])
    if expected is None:
        print(f"  digest check NOT APPLIED: no digests recorded for seed {seed}; "
              f"checked invariants and repeatability only. digests: {json.dumps(digests)}")
    else:
        print(f"  digest check applied against recorded digests for seed {seed}")
    print(f"  operations: {attempted} attempted, {failed} failed {failed_by}")
    for op, reason in outcomes[0].failures.items():
        print(f"    {op}: {reason}")

    wall_s = statistics.median(rescaled)
    print(f"  host probe: median {statistics.median(clock.probes) * 1e3:.3f} ms over "
          f"{len(clock.probes)} probes (reference {PROBE_REF_S * 1e3:g} ms); "
          f"raw wall_s {statistics.median(walls):.4f} s, raw setup_s {raw_setup_s:.4f} s")
    if args.trace:
        rec, ranges, traced_wall, traced_rescaled, outcome, traced_inputs = traced
        metrics = per_layer_metrics(rec, ranges, traced_wall, traced_rescaled / wall_s - 1.0,
                                    outcome, traced_inputs)
        out_dir = ROOT / ".perfbench_out"
        path = rec.write(out_dir / f"spans-{workload.name}-{seed}.npz",
                         {"workload": workload.name, "seed": seed})
        print(f"  traced wall {traced_wall:.3f} s raw, {traced_rescaled:.3f} s rescaled, vs "
              f"untraced {wall_s:.3f} s rescaled; {len(rec)} spans written to "
              f"{path.relative_to(ROOT)}")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": (wall_s, "s"),
            "records_per_s": (inputs["records"] / wall_s, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        print(f"  failed_fraction {failed / attempted:.4f} fraction")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
