"""Command-line interface.

Usage (``python -m repro <command>``):

* ``experiments`` -- list every reproducible table/figure/claim;
* ``run EXPID [--scale S]`` -- reproduce one of them and print the report;
* ``generate APP -o FILE [--scale S] [--seed N]`` -- write a calibrated
  synthetic trace in the paper's ASCII format;
* ``compile-trace FILE [FILE...] [-o OUT] [--cache] [--verify]`` --
  compile ASCII traces into binary columnar store bundles (``.rpt``)
  that later runs memory-map with zero per-record work; ``--cache``
  compiles into the content-addressed trace cache instead
  (``$REPRO_TRACE_CACHE``, see ``docs/FORMAT.md``);
* ``analyze FILE`` -- Table-1/2-style summary, sequentiality and class
  breakdown of any trace file (ASCII or compiled store bundle);
* ``simulate FILE [FILE...] [--cache-mb M] [--block-kb K] [--ssd]
  [--no-read-ahead] [--no-write-behind] [--cpus N] [--jobs N]
  [--cached] [--trace-store] [--faults SPEC | --fault-plan FILE]`` --
  replay trace files (ASCII or compiled) through the buffering
  simulator, optionally under a seeded fault-injection plan with
  retry/backoff recovery; ``--trace-store`` routes ASCII inputs through
  the compile cache so repeat runs skip decode entirely;
* ``sweep [--cache-mb LIST] [--block-kb LIST] [--read-ahead on,off]
  [--write-behind on,off] [--jobs N] [--executor NAME]
  [--cache-tier DIR[=BUDGET]] ...`` -- run a configuration grid
  through the parallel sweep runner with on-disk result memoization;
  ``--executor`` picks the backend (serial/pool/queue) and two
  ``--cache-tier`` flags stack a budgeted local tier over a shared
  one (see ``docs/EXECUTORS.md``);
* ``serve [--host H] [--port P] [--workers N] [--queue-size N]
  [--cache-dir DIR | --cache-tiers SPEC] [--no-cache]
  [--executor NAME]`` -- run the async sweep server: an
  HTTP/JSON daemon accepting simulate/sweep jobs, streaming progress as
  server-sent events and answering with results bit-identical to the
  CLI (see ``docs/SERVER.md``);
* ``profile EXPID [--metrics-out FILE] [--events-out FILE]`` -- run one
  experiment with the observability registry enabled and render the
  per-subsystem metrics report (cache hit rates, per-device busy time,
  scheduler activity, engine event counts);
* ``bench [--quick] [--out FILE] [--baseline FILE]
  [--max-regression F] [--repeats N] [--profile]`` -- run the perf
  microbenchmark suite (engine events/s, cache ops/s, decode MB/s,
  Figure-8 sweep wall-clock) and write ``BENCH_sim.json``; with
  ``--baseline`` the exit status reflects whether any benchmark
  regressed beyond the threshold (see ``docs/PERFORMANCE.md``); with
  ``--profile`` each section is run under cProfile and per-section
  top-30 cumulative stats land in ``BENCH_profile.txt``.

``simulate`` and ``run`` also accept ``--metrics-out FILE`` to dump the
same metrics as JSONL without the full profile report.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Sequence

from repro.analysis.classify import classify_trace
from repro.analysis.sequentiality import analyze_sequentiality
from repro.analysis.summary import trace_table1
from repro.core.registry import EXPERIMENTS, run_experiment
from repro.core.study import Study
from repro.exec.cache import ResultCache
from repro.exec.cache_tiers import resolve_cache_tiers
from repro.exec.executor import EXECUTOR_NAMES
from repro.exec.grid import (
    GridSpec,
    build_sim_config,
    parse_floats,
    parse_toggles,
    render_sweep_table,
    sweep_summary,
)
from repro.exec.runner import (
    SweepPointSpec,
    SweepRunner,
    TraceFileSpec,
    resolve_jobs,
)
from repro.obs import (
    JsonlEventSink,
    MetricsRegistry,
    metrics_to_jsonl,
    render_report,
    use_registry,
)
from repro.sim.faults import FaultPlan
from repro.trace.io import read_any_trace_array, write_trace_array
from repro.util.errors import SweepError
from repro.util.rng import DEFAULT_SEED
from repro.util.units import MB
from repro.workloads.base import available_models, generate_workload


def _cmd_experiments(args: argparse.Namespace) -> int:
    for exp_id, exp in EXPERIMENTS.items():
        print(f"{exp_id:16s} [section {exp.paper_section}] {exp.title}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    study = Study(scale=args.scale, jobs=args.jobs if args.jobs else 1)
    metrics_out = getattr(args, "metrics_out", None)
    registry = MetricsRegistry(enabled=metrics_out is not None)
    try:
        with use_registry(registry):
            print(run_experiment(args.experiment, study))
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if metrics_out:
        n = metrics_to_jsonl(registry, metrics_out)
        print(f"wrote {n} metrics to {metrics_out}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run one experiment under an enabled registry; render the metrics.

    Runs in-process (``jobs=1``) on purpose: pool workers are separate
    processes whose registries cannot flow back, and profiling wants the
    complete picture of one serial execution.
    """
    sink = (
        JsonlEventSink(args.events_out, buffer_events=args.event_buffer)
        if args.events_out
        else None
    )
    registry = MetricsRegistry(event_sink=sink)
    study = Study(scale=args.scale, jobs=1)
    try:
        with use_registry(registry):
            report = run_experiment(args.experiment, study)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    finally:
        if sink is not None:
            sink.close()
    if not args.metrics_only:
        print(report)
        print()
    print(render_report(registry, title=f"== metrics: {args.experiment} =="))
    if args.metrics_out:
        n = metrics_to_jsonl(registry, args.metrics_out)
        print(f"wrote {n} metrics to {args.metrics_out}")
    if sink is not None:
        print(
            f"wrote {sink.events_emitted} events to {args.events_out} "
            f"({sink.flushes} batched flushes)"
        )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.app not in available_models():
        print(
            f"unknown application {args.app!r}; known: "
            f"{', '.join(available_models())}",
            file=sys.stderr,
        )
        return 2
    workload = generate_workload(args.app, scale=args.scale, seed=args.seed)
    header = [
        f"synthetic {workload.name} trace, scale={workload.scale}, "
        f"seed={args.seed}"
    ] + [c.text for c in workload.comments]
    stats = write_trace_array(
        args.output, workload.trace, header_comments=header,
        omit_operation_ids=True,
    )
    print(
        f"wrote {stats.records} records to {args.output} "
        f"({stats.bytes_written} bytes, "
        f"{stats.bytes_written / max(1, stats.records):.1f} B/record)"
    )
    return 0


def _cmd_compile_trace(args: argparse.Namespace) -> int:
    from repro.trace.store import (
        TraceStoreCache,
        compile_trace,
        file_digest,
        load_compiled,
    )
    from repro.util.errors import StoreFormatError

    if args.output and len(args.traces) > 1:
        print("-o/--output needs exactly one input trace", file=sys.stderr)
        return 2
    if args.output and args.cache:
        print("use either -o/--output or --cache, not both", file=sys.stderr)
        return 2
    cache = TraceStoreCache.default() if args.cache else None
    if cache is not None and not cache.enabled:
        print(
            "trace cache is disabled (REPRO_TRACE_CACHE=off)", file=sys.stderr
        )
        return 2
    for trace_path in args.traces:
        t0 = time.perf_counter()
        try:
            if cache is not None:
                digest = file_digest(trace_path)
                cache.get_or_compile_file(trace_path)
                out = cache.path_for(digest)
            else:
                out = compile_trace(trace_path, args.output)
        except (OSError, StoreFormatError) as exc:
            print(f"{trace_path}: {exc}", file=sys.stderr)
            return 1
        compile_s = time.perf_counter() - t0
        compiled = load_compiled(out, verify=args.verify)
        ascii_bytes = os.path.getsize(trace_path)
        print(
            f"{trace_path} -> {out}: {compiled.header.records} records, "
            f"{ascii_bytes} -> {out.stat().st_size} bytes, "
            f"compiled in {compile_s:.2f} s"
            f"{' (payload verified)' if args.verify else ''}"
        )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    trace = read_any_trace_array(args.trace)
    if len(trace) == 0:
        print("trace is empty", file=sys.stderr)
        return 1
    row = trace_table1(args.trace, trace)
    print(f"records:        {row.n_ios}")
    print(f"CPU time:       {row.running_seconds:.2f} s")
    print(f"total I/O:      {row.total_io_mb:.1f} MB "
          f"({row.mb_per_sec:.2f} MB/s, {row.ios_per_sec:.1f} I/Os/s)")
    print(f"avg request:    {row.avg_io_mb * 1024:.1f} KB")
    reads = trace.read_bytes
    writes = trace.write_bytes
    ratio = reads / writes if writes else float("inf")
    print(f"read/write:     {ratio:.2f} (data)")
    seq = analyze_sequentiality(trace)
    print(
        f"sequentiality:  {seq.sequential_fraction:.1%} sequential, "
        f"{seq.same_size_fraction:.1%} same-size, dominant "
        f"{seq.dominant_size // 1024} KB"
    )
    cls = classify_trace(trace, max(row.running_seconds, 1e-9))
    for io_class, breakdown in cls.breakdown.items():
        if breakdown.n_ios:
            print(
                f"  {io_class.value:10s} {breakdown.n_ios:8d} I/Os  "
                f"{breakdown.total_bytes / MB:10.1f} MB  "
                f"{breakdown.mb_per_sec:8.3f} MB/s  "
                f"({breakdown.n_files} file(s))"
            )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = build_sim_config(
        cache_mb=args.cache_mb,
        block_kb=args.block_kb,
        ssd=args.ssd,
        read_ahead=not args.no_read_ahead,
        write_behind=not args.no_write_behind,
        n_cpus=args.cpus,
    )
    if args.faults and args.fault_plan:
        print("use either --faults or --fault-plan, not both", file=sys.stderr)
        return 2
    try:
        if args.fault_plan:
            config = FaultPlan.load(args.fault_plan).apply(config)
        elif args.faults:
            config = FaultPlan.from_spec(args.faults).apply(config)
    except (OSError, ValueError) as exc:
        print(f"bad fault plan: {exc}", file=sys.stderr)
        return 2
    point = SweepPointSpec(
        workload=TraceFileSpec(
            paths=tuple(args.traces),
            share_files=args.share_files,
            use_store=args.trace_store,
        ),
        config=config,
        label=f"simulate {' '.join(args.traces)}",
    )
    # --cache-tier implies caching; --cached alone honors $REPRO_CACHE_TIERS
    # before falling back to the flat single-directory cache.
    tiered = resolve_cache_tiers(args.cache_tier)
    if args.cache_tier:
        point_cache = tiered
    elif args.cached:
        point_cache = tiered if tiered is not None else ResultCache()
    else:
        point_cache = None
    runner = SweepRunner(
        jobs=args.jobs if args.jobs else 1,
        cache=point_cache,
        executor=args.executor,
    )
    registry = MetricsRegistry(enabled=args.metrics_out is not None)
    try:
        with use_registry(registry):
            point_result = runner.run_point(point)
    except SweepError as exc:
        print(str(exc.__cause__ or exc), file=sys.stderr)
        return 2
    print(point_result.result.summary())
    if point_cache is not None:
        source = "result cache" if point_result.cached else "fresh simulation"
        print(f"[{source}, key {point_result.key[:16]}]")
    if args.metrics_out:
        n = metrics_to_jsonl(registry, args.metrics_out)
        print(f"wrote {n} metrics to {args.metrics_out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        grid = GridSpec(
            app=args.app,
            n_copies=args.copies,
            scale=args.scale,
            workload_seed=args.seed,
            cache_sizes_mb=parse_floats(args.cache_mb),
            block_sizes_kb=parse_floats(args.block_kb),
            read_ahead=parse_toggles(args.read_ahead),
            write_behind=parse_toggles(args.write_behind),
            ssd=args.ssd,
            n_cpus=args.cpus,
        )
    except ValueError as exc:
        print(f"bad grid: {exc}", file=sys.stderr)
        return 2
    if args.app not in available_models():
        print(
            f"unknown application {args.app!r}; known: "
            f"{', '.join(available_models())}",
            file=sys.stderr,
        )
        return 2
    if args.no_cache:
        result_cache = None
    else:
        # --cache-tier / $REPRO_CACHE_TIERS selects the tiered stack;
        # --cache-dir keeps the flat single-directory cache.
        result_cache = resolve_cache_tiers(args.cache_tier)
        if result_cache is None:
            result_cache = (
                ResultCache(args.cache_dir) if args.cache_dir else ResultCache()
            )
    jobs = resolve_jobs(args.jobs)
    runner = SweepRunner(jobs=jobs, cache=result_cache, executor=args.executor)
    t0 = time.perf_counter()
    try:
        results = runner.run(grid.points())
    except SweepError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - t0
    kind = "SSD" if args.ssd else "mem"
    print(
        render_sweep_table(
            results,
            title=(
                f"sweep: {args.copies}x{args.app} ({kind}), "
                f"scale={args.scale:g}, seed={args.seed}"
            ),
        )
    )
    where = "cache disabled" if result_cache is None else f"cache {result_cache.root}"
    print(f"{sweep_summary(results)} | jobs={jobs} | {elapsed:.1f} s | {where}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_pending=args.queue_size,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        drain_timeout_s=args.drain_timeout,
        executor=args.executor,
        cache_tiers=args.cache_tiers,
    )
    return run_server(config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Miller 1991, 'Input/Output Behavior of "
            "Supercomputing Applications'"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("experiments", help="list reproducible experiments")

    p_run = sub.add_parser("run", help="reproduce one table/figure/claim")
    p_run.add_argument("experiment", help="experiment id (see `experiments`)")
    p_run.add_argument(
        "--scale", type=float, default=None,
        help="workload scale in (0,1]; default: per-app presets",
    )
    p_run.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for sweep-shaped experiments (default: serial)",
    )
    p_run.add_argument(
        "--metrics-out", default=None,
        help="enable the observability registry and dump metrics as JSONL",
    )

    p_prof = sub.add_parser(
        "profile",
        help="run one experiment with metrics enabled and report them",
    )
    p_prof.add_argument("experiment", help="experiment id (see `experiments`)")
    p_prof.add_argument(
        "--scale", type=float, default=None,
        help="workload scale in (0,1]; default: per-app presets",
    )
    p_prof.add_argument(
        "--metrics-out", default=None,
        help="also dump every instrument as JSONL to this file",
    )
    p_prof.add_argument(
        "--events-out", default=None,
        help="stream structured events (spans, simulations) as JSONL",
    )
    p_prof.add_argument(
        "--event-buffer", type=int, default=512,
        help="event sink buffer size (events per batched flush)",
    )
    p_prof.add_argument(
        "--metrics-only", action="store_true",
        help="suppress the experiment report, print only the metrics",
    )

    p_gen = sub.add_parser("generate", help="write a synthetic trace file")
    p_gen.add_argument("app", help="application model name")
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.add_argument("--scale", type=float, default=0.1)
    p_gen.add_argument("--seed", type=int, default=19910616)

    p_ct = sub.add_parser(
        "compile-trace",
        help="compile ASCII traces into binary columnar store bundles",
    )
    p_ct.add_argument("traces", nargs="+")
    p_ct.add_argument(
        "-o", "--output", default=None,
        help="bundle path (single input only; default: INPUT.rpt alongside)",
    )
    p_ct.add_argument(
        "--cache", action="store_true",
        help="compile into the content-addressed trace cache "
        "($REPRO_TRACE_CACHE, default under the result-cache dir)",
    )
    p_ct.add_argument(
        "--verify", action="store_true",
        help="re-load each bundle and check its payload digest",
    )

    p_an = sub.add_parser(
        "analyze", help="summarize a trace file (ASCII or compiled store)"
    )
    p_an.add_argument("trace")

    p_sim = sub.add_parser("simulate", help="replay traces through the cache")
    p_sim.add_argument("traces", nargs="+")
    p_sim.add_argument("--cache-mb", type=float, default=32.0)
    p_sim.add_argument("--block-kb", type=float, default=4.0)
    p_sim.add_argument("--ssd", action="store_true")
    p_sim.add_argument("--no-read-ahead", action="store_true")
    p_sim.add_argument("--no-write-behind", action="store_true")
    p_sim.add_argument("--cpus", type=int, default=1)
    p_sim.add_argument(
        "--share-files",
        action="store_true",
        help="let the traces address the same files (default: each trace "
        "gets a private file-id space, like the paper's non-sharing copies)",
    )
    p_sim.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (a single point always runs inline)",
    )
    p_sim.add_argument(
        "--cached", action="store_true",
        help="memoize the result in the on-disk result cache "
        "($REPRO_CACHE_DIR or ~/.cache/repro/results)",
    )
    p_sim.add_argument(
        "--executor", choices=EXECUTOR_NAMES, default=None,
        help="execution backend (default: auto -- serial inline for one "
        "job, process pool otherwise; see docs/EXECUTORS.md); equivalent "
        "to setting $REPRO_EXECUTOR",
    )
    p_sim.add_argument(
        "--cache-tier", action="append", default=None, metavar="DIR[=BUDGET]",
        help="cache tier directory with optional size budget (64M, 2G); "
        "repeat for local then shared tier -- implies caching; "
        "equivalent to $REPRO_CACHE_TIERS",
    )
    p_sim.add_argument(
        "--trace-store", action="store_true",
        help="route ASCII traces through the compiled trace store "
        "(decode once, memory-map on every later run; point keys and "
        "results are identical either way)",
    )
    p_sim.add_argument(
        "--metrics-out", default=None,
        help="enable the observability registry and dump metrics as JSONL",
    )
    p_sim.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inline fault plan, e.g. error=0.05,slow=0.1,max_retries=4 "
        "(keys: error, slow, slow_factor, crash_at, ssd_fail_at, seed, "
        "max_retries, backoff, backoff_factor, backoff_cap, jitter, "
        "timeout, max_reflushes, reflush_delay)",
    )
    p_sim.add_argument(
        "--fault-plan", default=None, metavar="FILE",
        help="JSON fault plan ({'faults': {...}, 'recovery': {...}}); "
        "see examples/fault_plan.json",
    )

    p_sweep = sub.add_parser(
        "sweep",
        help="run a config grid through the parallel, memoized sweep runner",
    )
    p_sweep.add_argument("--app", default="venus", help="application model")
    p_sweep.add_argument(
        "--copies", type=int, default=2,
        help="non-sharing instances per point (default 2, the paper's setup)",
    )
    p_sweep.add_argument("--scale", type=float, default=0.25)
    p_sweep.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sweep.add_argument(
        "--cache-mb", default="4,8,16,32,64,128,256",
        help="comma-separated cache sizes in MB (default: the Figure 8 axis)",
    )
    p_sweep.add_argument(
        "--block-kb", default="4,8",
        help="comma-separated cache block sizes in KB (default: 4,8)",
    )
    p_sweep.add_argument(
        "--read-ahead", default="on",
        help="read-ahead axis: on, off, or on,off to sweep the toggle",
    )
    p_sweep.add_argument(
        "--write-behind", default="on",
        help="write-behind axis: on, off, or on,off to sweep the toggle",
    )
    p_sweep.add_argument("--ssd", action="store_true")
    p_sweep.add_argument("--cpus", type=int, default=1)
    p_sweep.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: $REPRO_JOBS, else all cores)",
    )
    p_sweep.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache",
    )
    p_sweep.add_argument(
        "--cache-dir", default=None,
        help="result cache root (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/results)",
    )
    p_sweep.add_argument(
        "--executor", choices=EXECUTOR_NAMES, default=None,
        help="execution backend (default: auto -- serial inline for one "
        "job, process pool otherwise; see docs/EXECUTORS.md); equivalent "
        "to setting $REPRO_EXECUTOR",
    )
    p_sweep.add_argument(
        "--cache-tier", action="append", default=None, metavar="DIR[=BUDGET]",
        help="cache tier directory with optional size budget (64M, 2G); "
        "repeat for local then shared tier (overrides --cache-dir); "
        "equivalent to $REPRO_CACHE_TIERS",
    )

    p_srv = sub.add_parser(
        "serve",
        help="run the async sweep server (HTTP/JSON + SSE; docs/SERVER.md)",
    )
    p_srv.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1; 0.0.0.0 exposes the daemon)",
    )
    p_srv.add_argument(
        "--port", type=int, default=8177,
        help="bind port (default 8177; 0 picks an ephemeral port)",
    )
    p_srv.add_argument(
        "--workers", type=int, default=2,
        help="concurrent job executions (default 2)",
    )
    p_srv.add_argument(
        "--queue-size", type=int, default=16,
        help="pending-job bound; a full queue answers 429 (default 16)",
    )
    p_srv.add_argument(
        "--cache-dir", default=None,
        help="result cache root shared with the CLI (default: "
        "$REPRO_CACHE_DIR or ~/.cache/repro/results)",
    )
    p_srv.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache",
    )
    p_srv.add_argument(
        "--drain-timeout", type=float, default=10.0,
        help="seconds shutdown waits for running jobs before cancelling",
    )
    p_srv.add_argument(
        "--executor", choices=EXECUTOR_NAMES, default=None,
        help="default execution backend for jobs that do not name one "
        "(job spec field 'executor' wins; see docs/EXECUTORS.md)",
    )
    p_srv.add_argument(
        "--cache-tiers", default=None, metavar="DIR[=BUDGET],DIR[=BUDGET]",
        help="tiered result cache: local[,shared] directories with "
        "optional size budgets (overrides --cache-dir); equivalent to "
        "$REPRO_CACHE_TIERS",
    )

    p_bench = sub.add_parser(
        "bench", help="run the perf microbenchmark suite"
    )
    p_bench.add_argument(
        "--quick", action="store_true",
        help="smaller workloads for CI smoke runs",
    )
    p_bench.add_argument(
        "--out", default="BENCH_sim.json",
        help="where to write the JSON payload (default: BENCH_sim.json)",
    )
    p_bench.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="compare against a committed baseline payload "
        "(e.g. benchmarks/perf/baseline.json); exit 1 on regression",
    )
    p_bench.add_argument(
        "--max-regression", type=float, default=0.25,
        help="allowed fractional regression vs the baseline (default 0.25)",
    )
    p_bench.add_argument(
        "--repeats", type=int, default=1,
        help="run each benchmark N times, keep the best (default 1)",
    )
    p_bench.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the Figure-8 sweep benchmark",
    )
    p_bench.add_argument(
        "--profile", action="store_true",
        help="wrap each section in cProfile and write per-section "
        "top-30 cumulative stats to BENCH_profile.txt (timings then "
        "include profiler overhead; baseline comparison is refused)",
    )

    p_fig = sub.add_parser("figures", help="render the figures to SVG+CSV")
    p_fig.add_argument("--out", default="figures")
    p_fig.add_argument("--scale", type=float, default=None)
    return parser


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        compare_to_baseline,
        load_baseline,
        render_table,
        run_suite,
        write_payload,
    )

    payload = run_suite(
        quick=args.quick, jobs=args.jobs if args.jobs else 1,
        repeats=args.repeats,
        profile_to="BENCH_profile.txt" if args.profile else None,
    )
    print(render_table(payload))
    path = write_payload(payload, args.out)
    print(f"wrote {path}")
    if args.profile:
        print(f"wrote {payload['profile']}")
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"bad baseline {args.baseline}: {exc}", file=sys.stderr)
            return 2
        try:
            problems = compare_to_baseline(
                payload, baseline, max_regression=args.max_regression
            )
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if problems:
            for problem in problems:
                print(f"REGRESSION {problem}", file=sys.stderr)
            return 1
        print(
            f"no regression vs {args.baseline} "
            f"(threshold {args.max_regression:.0%})"
        )
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.core.figures import save_figures

    written = save_figures(Study(scale=args.scale), args.out)
    for path in written:
        print(f"wrote {path}")
    return 0


_COMMANDS = {
    "experiments": _cmd_experiments,
    "run": _cmd_run,
    "profile": _cmd_profile,
    "generate": _cmd_generate,
    "compile-trace": _cmd_compile_trace,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "serve": _cmd_serve,
    "bench": _cmd_bench,
    "figures": _cmd_figures,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
