"""Command-line interface.

Usage (``python -m repro <command>``):

* ``experiments`` -- list every reproducible table/figure/claim;
* ``run EXPID [--scale S]`` -- reproduce one of them and print the report;
* ``generate APP -o FILE [--scale S] [--seed N]`` -- write a calibrated
  synthetic trace in the paper's ASCII format;
* ``analyze FILE`` -- Table-1/2-style summary, sequentiality and class
  breakdown of a trace file;
* ``simulate FILE [FILE...] [--cache-mb M] [--block-kb K] [--ssd]
  [--no-read-ahead] [--no-write-behind] [--cpus N] [--cached]
  [--faults SPEC | --fault-plan FILE]`` -- replay trace files through
  the buffering simulator, optionally under a seeded fault-injection
  plan with retry/backoff recovery;
* ``sweep [--cache-mb LIST] [--block-kb LIST] [--read-ahead on,off]
  [--write-behind on,off] [--jobs N]
  [--cache-dir DIR | --no-cache] ...`` -- run a configuration grid
  through the parallel sweep runner with on-disk result memoization;
  ``--jobs 1`` runs inline, more run on a crash-tolerant queue of
  worker processes (see ``docs/EXECUTORS.md``);
* ``serve [--host H] [--port P] [--workers N] [--queue-size N]
  [--cache-dir DIR] [--no-cache]`` -- run the async sweep server: an
  HTTP/JSON daemon accepting simulate/sweep jobs, streaming progress as
  server-sent events and answering with results bit-identical to the
  CLI (see ``docs/SERVER.md``);
* ``profile EXPID [--metrics-out FILE] [--events-out FILE]`` -- run one
  experiment with the observability registry enabled and render the
  per-subsystem metrics report (cache hit rates, per-device busy time,
  scheduler activity, engine event counts).

``simulate`` and ``run`` also accept ``--metrics-out FILE`` to dump the
same metrics as JSONL without the full profile report.

Trace files are the paper's compressed ASCII format (``docs/FORMAT.md``).
A trace file that is missing or malformed makes ``analyze`` and
``simulate`` print one line to stderr and exit 2.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.analysis.classify import classify_trace
from repro.analysis.sequentiality import analyze_sequentiality
from repro.analysis.summary import trace_table1
from repro.core.registry import EXPERIMENTS, run_experiment
from repro.core.study import Study
from repro.exec.cache import ResultCache
from repro.exec.grid import (
    SpecError,
    render_sweep_table,
    simulate_points,
    sweep_points,
    sweep_summary,
)
from repro.exec.runner import SweepRunner, resolve_jobs
from repro.obs import (
    JsonlEventSink,
    MetricsRegistry,
    metrics_to_jsonl,
    render_report,
    use_registry,
)
from repro.sim.faults import FaultPlan
from repro.trace.io import read_trace_array, write_trace_array
from repro.util.errors import SweepError, TraceFormatError
from repro.util.units import MB
from repro.workloads.base import available_models, check_scale, generate_workload


def _cmd_experiments(args: argparse.Namespace) -> int:
    for exp_id, exp in EXPERIMENTS.items():
        print(f"{exp_id:16s} [section {exp.paper_section}] {exp.title}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    study = Study(scale=args.scale, jobs=args.jobs or 1)
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

    Runs in-process (``jobs=1``) on purpose: queue workers are separate
    processes whose registries cannot flow back, and profiling wants the
    complete picture of one serial execution.
    """
    sink = JsonlEventSink(args.events_out) if args.events_out else None
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


def _cmd_analyze(args: argparse.Namespace) -> int:
    try:
        trace = read_trace_array(args.trace)
    except OSError as exc:
        print(exc, file=sys.stderr)
        return 2
    except TraceFormatError as exc:
        print(f"{args.trace}: {exc}", file=sys.stderr)
        return 2
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


def _spec(args: argparse.Namespace, *keys: str) -> dict:
    """The spec dict of the knob flags given.  A flag left unset is
    ``None`` and stays out, so the spec parser's default holds."""
    return {
        key: getattr(args, key) for key in keys if getattr(args, key) is not None
    }


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = _spec(
        args, "traces", "cache_mb", "block_kb", "ssd", "read_ahead",
        "write_behind", "cpus", "share_files", "faults",
    )
    try:
        if args.fault_plan is not None:
            spec["fault_plan"] = FaultPlan.load(args.fault_plan).to_dict()
    except (OSError, ValueError) as exc:
        print(f"bad fault plan: {exc}", file=sys.stderr)
        return 2
    try:
        (point,) = simulate_points(spec)
    except SpecError as exc:
        print(exc, file=sys.stderr)
        return 2
    point_cache = ResultCache() if args.cached else None
    runner = SweepRunner(jobs=1, cache=point_cache)
    registry = MetricsRegistry(enabled=args.metrics_out is not None)
    try:
        with use_registry(registry):
            point_result = runner.run_point(point)
    except (SweepError, OSError) as exc:
        # OSError: a trace file is read to key the point, before the
        # runner wraps the point's own errors in SweepError.
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
    spec = _spec(
        args, "app", "copies", "scale", "seed", "cache_mb", "block_kb",
        "read_ahead", "write_behind", "ssd", "cpus",
    )
    try:
        points = sweep_points(spec)
    except SpecError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.no_cache:
        result_cache = None
    else:
        result_cache = ResultCache(args.cache_dir) if args.cache_dir else ResultCache()
    try:
        jobs = resolve_jobs(args.jobs)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    runner = SweepRunner(jobs=jobs, cache=result_cache)
    t0 = time.perf_counter()
    try:
        results = runner.run(points)
    except SweepError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - t0
    workload = points[0].workload
    kind = "SSD" if args.ssd else "mem"
    print(
        render_sweep_table(
            results,
            title=(
                f"sweep: {workload.n_copies}x{workload.app} ({kind}), "
                f"scale={workload.scale:g}, seed={workload.seed}"
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
    )
    return run_server(config)


def _positive_int(text: str) -> int:
    """argparse type for a count (``--jobs``, ``--workers``,
    ``--queue-size``): an integer >= 1, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        )
    return value


def _port(text: str) -> int:
    """argparse type for ``--port``: an integer in [0, 65535], else a
    usage error."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"must be an integer in [0, 65535], got {text!r}"
        )
    return value


def _scale(text: str) -> float:
    """argparse type for ``--scale``: a number in (0, 1], else a usage error."""
    try:
        return check_scale(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
        "--scale", type=_scale, default=None,
        help="workload scale in (0,1]; default: per-app presets",
    )
    p_run.add_argument(
        "--jobs", type=_positive_int, default=None,
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
        "--scale", type=_scale, default=None,
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
        "--metrics-only", action="store_true",
        help="suppress the experiment report, print only the metrics",
    )

    p_gen = sub.add_parser("generate", help="write a synthetic trace file")
    p_gen.add_argument("app", help="application model name")
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.add_argument("--scale", type=_scale, default=0.1)
    p_gen.add_argument("--seed", type=int, default=19910616)

    p_an = sub.add_parser("analyze", help="summarize a trace file")
    p_an.add_argument("trace")

    p_sim = sub.add_parser("simulate", help="replay traces through the cache")
    # Knob flags default to None: unset, they stay out of the spec.
    p_sim.add_argument("traces", nargs="+")
    p_sim.add_argument("--cache-mb", type=float, default=None)
    p_sim.add_argument("--block-kb", type=float, default=None)
    p_sim.add_argument("--ssd", action="store_true", default=None)
    p_sim.add_argument(
        "--no-read-ahead", dest="read_ahead", action="store_false", default=None
    )
    p_sim.add_argument(
        "--no-write-behind", dest="write_behind", action="store_false",
        default=None,
    )
    p_sim.add_argument("--cpus", type=int, default=None)
    p_sim.add_argument(
        "--share-files",
        action="store_true",
        default=None,
        help="let the traces address the same files (default: each trace "
        "gets a private file-id space, like the paper's non-sharing copies)",
    )
    p_sim.add_argument(
        "--cached", action="store_true",
        help="memoize the result in the on-disk result cache "
        "($REPRO_CACHE_DIR or ~/.cache/repro/results)",
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
    # Knob flags default to None: unset, they stay out of the spec, and
    # the GridSpec field is the default.
    p_sweep.add_argument("--app", default=None, help="application model")
    p_sweep.add_argument(
        "--copies", type=int, default=None,
        help="non-sharing instances per point (default 2, the paper's setup)",
    )
    p_sweep.add_argument("--scale", type=float, default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument(
        "--cache-mb", default=None,
        help="comma-separated cache sizes in MB (default: the Figure 8 axis)",
    )
    p_sweep.add_argument(
        "--block-kb", default=None,
        help="comma-separated cache block sizes in KB (default: 4,8, the "
        "Figure 8 axis)",
    )
    p_sweep.add_argument(
        "--read-ahead", default=None,
        help="read-ahead axis: on, off, or on,off to sweep the toggle",
    )
    p_sweep.add_argument(
        "--write-behind", default=None,
        help="write-behind axis: on, off, or on,off to sweep the toggle",
    )
    p_sweep.add_argument("--ssd", action="store_true", default=None)
    p_sweep.add_argument("--cpus", type=int, default=None)
    p_sweep.add_argument(
        "--jobs", type=_positive_int, default=None,
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

    p_srv = sub.add_parser(
        "serve",
        help="run the async sweep server (HTTP/JSON + SSE; docs/SERVER.md)",
    )
    p_srv.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1; 0.0.0.0 exposes the daemon)",
    )
    p_srv.add_argument(
        "--port", type=_port, default=8177,
        help="bind port (default 8177; 0 picks an ephemeral port)",
    )
    p_srv.add_argument(
        "--workers", type=_positive_int, default=2,
        help="concurrent job executions (default 2)",
    )
    p_srv.add_argument(
        "--queue-size", type=_positive_int, default=16,
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

    p_fig = sub.add_parser("figures", help="render the figures to SVG+CSV")
    p_fig.add_argument("--out", default="figures")
    p_fig.add_argument("--scale", type=_scale, default=None)
    return parser


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
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "serve": _cmd_serve,
    "figures": _cmd_figures,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
