"""Canned section-6 experiments: the figures and claims as functions.

Every table/figure benchmark calls one of these; the examples reuse them
too.  Each returns plain result objects so callers can print, assert or
plot as they wish.

All the sweep-shaped experiments (Figure 8, the per-app SSD runs, the
ablations, the n+1 rule) execute through :class:`repro.exec.SweepRunner`:
pass ``jobs`` to fan the points over worker processes (default: honour
``$REPRO_JOBS`` when set, else run serially), or a configured ``runner``
(for instance one with a result cache).  Every point simulates with its
config's own seed, so the numbers do not depend on ``jobs`` and match
what direct ``simulate()`` calls produce.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.exec.grid import FIG8_BLOCK_SIZES_KB, FIG8_CACHE_SIZES_MB, GridSpec
from repro.exec.runner import (
    AppWorkloadSpec,
    PointResult,
    SweepPointSpec,
    SweepRunner,
    generated_workload,
    resolve_jobs,
)
from repro.sim.config import CacheConfig, SimConfig, ssd_cache
from repro.sim.metrics import SimulationResult
from repro.sim.system import simulate
from repro.util.rng import DEFAULT_SEED
from repro.util.units import KB, MB

#: Per-app default scales: the heavier generators run fewer cycles so a
#: full study stays interactive, while every app runs at least ~4
#: cycles -- with fewer, the first (cold) sweep dominates a simulated
#: run and no window is "warm".
DEFAULT_SCALES: dict[str, float] = {
    "bvi": 0.05,
    "forma": 0.1,
    "ccm": 0.2,
    "gcm": 0.2,
    "les": 0.25,
    "venus": 0.2,
    "upw": 0.2,
}


def _runner(runner: SweepRunner | None, jobs: int | None) -> SweepRunner:
    """The runner an experiment should use (an explicit one wins).

    ``jobs=None`` honours ``$REPRO_JOBS`` when set and otherwise runs
    serially -- library calls never spawn workers unless asked to.
    """
    if runner is not None:
        return runner
    return SweepRunner(jobs=resolve_jobs(jobs, default=1))


@dataclass(frozen=True)
class BufferingRun:
    """One simulated configuration and its outcome."""

    label: str
    cache_mb: float
    block_kb: float
    result: SimulationResult

    @property
    def idle_seconds(self) -> float:
        return self.result.idle_seconds

    @property
    def utilization(self) -> float:
        return self.result.utilization


def _two_venus_point(
    *,
    cache_mb: float,
    block_kb: float,
    read_ahead: bool,
    write_behind: bool,
    ssd: bool,
    scale: float,
    seed: int | None,
    max_blocks_per_process: int | None,
) -> SweepPointSpec:
    """One point of the two-venus sweep grid, with the per-process
    buffer cap (if any) applied on top of the grid's config."""
    (point,) = GridSpec(
        scale=scale,
        workload_seed=DEFAULT_SEED if seed is None else seed,
        cache_sizes_mb=(cache_mb,),
        block_sizes_kb=(block_kb,),
        read_ahead=(read_ahead,),
        write_behind=(write_behind,),
        ssd=ssd,
    ).points()
    if max_blocks_per_process is None:
        return point
    config = point.config.with_cache(max_blocks_per_process=max_blocks_per_process)
    return replace(point, config=config)


def _buffering_run(point_result: PointResult, cache_mb: float, block_kb: float) -> BufferingRun:
    return BufferingRun(
        label=point_result.label,
        cache_mb=cache_mb,
        block_kb=block_kb,
        result=point_result.result,
    )


def run_two_venus(
    *,
    cache_mb: float = 32.0,
    block_kb: float = 4.0,
    read_ahead: bool = True,
    write_behind: bool = True,
    ssd: bool = False,
    scale: float = 0.25,
    seed: int | None = None,
    max_blocks_per_process: int | None = None,
    runner: SweepRunner | None = None,
) -> BufferingRun:
    """The paper's workhorse experiment: two venus copies, one CPU."""
    point = _two_venus_point(
        cache_mb=cache_mb,
        block_kb=block_kb,
        read_ahead=read_ahead,
        write_behind=write_behind,
        ssd=ssd,
        scale=scale,
        seed=seed,
        max_blocks_per_process=max_blocks_per_process,
    )
    r = _runner(runner, 1)
    return _buffering_run(r.run_point(point), cache_mb, block_kb)


@dataclass(frozen=True)
class SweepPoint:
    cache_mb: float
    block_kb: float
    idle_seconds: float
    utilization: float
    hit_fraction: float


def cache_size_sweep(
    *,
    cache_sizes_mb=FIG8_CACHE_SIZES_MB,
    block_sizes_kb=FIG8_BLOCK_SIZES_KB,
    scale: float = 0.25,
    ssd: bool = False,
    seed: int = DEFAULT_SEED,
    jobs: int | None = None,
    runner: SweepRunner | None = None,
) -> list[SweepPoint]:
    """Figure 8: idle time versus cache size, per block size.

    The venus traces are generated once (per worker) and re-simulated per
    configuration, exactly like re-running the paper's simulator with new
    parameters over fixed trace files.  ``jobs`` fans the grid over
    worker processes; the results are identical at any worker count.
    """
    points = GridSpec(
        scale=scale,
        workload_seed=seed,
        cache_sizes_mb=tuple(cache_sizes_mb),
        block_sizes_kb=tuple(block_sizes_kb),
        ssd=ssd,
    ).points()
    r = _runner(runner, jobs)
    out = []
    for spec, pr in zip(points, r.run(points)):
        out.append(
            SweepPoint(
                cache_mb=spec.config.cache.size_bytes / MB,
                block_kb=spec.config.cache.block_bytes / KB,
                idle_seconds=pr.result.idle_seconds,
                utilization=pr.result.utilization,
                hit_fraction=pr.result.cache.hit_fraction,
            )
        )
    return out


def no_idle_execution_seconds(scale: float = 0.25) -> float:
    """The sweep's "761 seconds" baseline at this scale: total CPU demand."""
    venus = generated_workload("venus", scale, DEFAULT_SEED)
    return 2 * venus.cpu_seconds


@dataclass(frozen=True)
class AppSSDRun:
    name: str
    utilization: float
    #: utilization excluding the cold-start window; the paper's >99%
    #: figures come from full-length runs where the first sweep's
    #: compulsory misses amortize away
    warm_utilization: float
    idle_seconds: float
    wall_seconds: float
    hit_fraction: float


def ssd_utilization_per_app(
    *,
    ssd_mb: float = 256.0,
    scales: dict[str, float] | None = None,
    apps=("bvi", "ccm", "forma", "gcm", "les", "venus", "upw"),
    warmup_fraction: float = 0.25,
    seed: int = DEFAULT_SEED,
    jobs: int | None = None,
    runner: SweepRunner | None = None,
) -> list[AppSSDRun]:
    """Section 6.3: each application alone with a 32 MW (256 MB) SSD cache.

    "all but one of the applications nearly completely utilized a Cray
    Y-MP CPU by itself when using a 32 MW SSD cache."
    """
    scales = {**DEFAULT_SCALES, **(scales or {})}
    points = [
        SweepPointSpec(
            workload=AppWorkloadSpec(app=name, scale=scales[name], seed=seed),
            config=SimConfig(cache=ssd_cache(int(ssd_mb * MB))),
            label=f"{name} SSD {ssd_mb:g}MB",
        )
        for name in apps
    ]
    r = _runner(runner, jobs)
    runs = []
    for name, pr in zip(apps, r.run(points)):
        result = pr.result
        runs.append(
            AppSSDRun(
                name=name,
                utilization=result.utilization,
                warm_utilization=result.utilization_after(
                    warmup_fraction * result.completion_seconds
                ),
                idle_seconds=result.idle_seconds,
                wall_seconds=result.wall_seconds,
                hit_fraction=result.cache.hit_fraction,
            )
        )
    return runs


def _two_venus_pair(
    without_kwargs: dict,
    with_kwargs: dict,
    *,
    jobs: int | None,
    runner: SweepRunner | None,
) -> tuple[BufferingRun, BufferingRun]:
    """Run an (off, on) ablation pair through one runner."""
    points = [_two_venus_point(**without_kwargs), _two_venus_point(**with_kwargs)]
    r = _runner(runner, jobs)
    results = r.run(points)
    return tuple(
        _buffering_run(pr, kw["cache_mb"], kw["block_kb"])
        for pr, kw in zip(results, (without_kwargs, with_kwargs))
    )


def _ablation_kwargs(**overrides) -> dict:
    base = dict(
        cache_mb=32.0,
        block_kb=4.0,
        read_ahead=True,
        write_behind=True,
        ssd=False,
        scale=0.25,
        seed=None,
        max_blocks_per_process=None,
    )
    base.update(overrides)
    return base


def writebehind_ablation(
    *,
    cache_mb: float = 128.0,
    scale: float = 0.25,
    ssd: bool = True,
    jobs: int | None = None,
    runner: SweepRunner | None = None,
) -> tuple[BufferingRun, BufferingRun]:
    """Section 6.2's claim: "writebehind reduced idle time from 211 seconds
    to 1 second for a simulation of two identical copies of venus running
    with a 128 MB cache."  Returns (without, with) write-behind.
    """
    return _two_venus_pair(
        _ablation_kwargs(cache_mb=cache_mb, scale=scale, ssd=ssd, write_behind=False),
        _ablation_kwargs(cache_mb=cache_mb, scale=scale, ssd=ssd, write_behind=True),
        jobs=jobs,
        runner=runner,
    )


def readahead_ablation(
    *,
    cache_mb: float = 32.0,
    scale: float = 0.25,
    jobs: int | None = None,
    runner: SweepRunner | None = None,
) -> tuple[BufferingRun, BufferingRun]:
    """Read-ahead off/on at a main-memory-sized cache."""
    return _two_venus_pair(
        _ablation_kwargs(cache_mb=cache_mb, scale=scale, read_ahead=False),
        _ablation_kwargs(cache_mb=cache_mb, scale=scale, read_ahead=True),
        jobs=jobs,
        runner=runner,
    )


def buffer_cap_ablation(
    *,
    cache_mb: float = 32.0,
    scale: float = 0.25,
    cap_fraction: float = 0.5,
    jobs: int | None = None,
    runner: SweepRunner | None = None,
) -> tuple[BufferingRun, BufferingRun]:
    """Section 6.2: capping per-process buffer ownership "did not relieve
    the problem, and actually worsened CPU utilization in several cases."
    Returns (uncapped, capped at cap_fraction of the cache).
    """
    cap_blocks = int(cache_mb * MB / (4 * KB) * cap_fraction)
    return _two_venus_pair(
        _ablation_kwargs(cache_mb=cache_mb, scale=scale),
        _ablation_kwargs(
            cache_mb=cache_mb, scale=scale, max_blocks_per_process=cap_blocks
        ),
        jobs=jobs,
        runner=runner,
    )


@dataclass(frozen=True)
class FaultSweepPoint:
    """One (error_rate, slow_rate) measurement under the fault layer."""

    error_rate: float
    slow_rate: float
    utilization: float
    idle_seconds: float
    retries: int
    recovered: int
    failed_ios: int
    lost_mb: float
    goodput_mb: float


def fault_rate_sweep(
    *,
    error_rates=(0.0, 0.01, 0.02, 0.05, 0.1),
    slow_rate: float = 0.0,
    slow_factor: float = 8.0,
    cache_mb: float = 32.0,
    block_kb: float = 4.0,
    ssd: bool = True,
    scale: float = 0.25,
    seed: int = DEFAULT_SEED,
    jobs: int | None = None,
    runner: SweepRunner | None = None,
) -> list[FaultSweepPoint]:
    """Figure-8-style utilization versus device fault rate.

    The same two-venus workload as the cache-size sweep, but the cache
    is fixed and the *device error rate* sweeps instead: how fast does
    the write-behind/read-ahead win decay when flushes start failing and
    retrying?  All points share one workload seed (common random
    numbers), so the curve isolates the fault effect.
    """
    points = []
    for rate in error_rates:
        spec = _two_venus_point(
            cache_mb=cache_mb,
            block_kb=block_kb,
            read_ahead=True,
            write_behind=True,
            ssd=ssd,
            scale=scale,
            seed=seed,
            max_blocks_per_process=None,
        )
        config = spec.config.with_faults(
            error_rate=rate, slow_rate=slow_rate, slow_factor=slow_factor
        )
        points.append(
            SweepPointSpec(
                workload=spec.workload,
                config=config,
                label=f"{spec.label} err={rate:g} slow={slow_rate:g}",
            )
        )
    r = _runner(runner, jobs)
    out = []
    for rate, pr in zip(error_rates, r.run(points)):
        res = pr.result
        fs = res.faults
        out.append(
            FaultSweepPoint(
                error_rate=rate,
                slow_rate=slow_rate,
                utilization=res.utilization,
                idle_seconds=res.idle_seconds,
                retries=fs.retries,
                recovered=fs.recovered,
                failed_ios=fs.failed_reads + fs.failed_writes,
                lost_mb=fs.lost_bytes / MB,
                goodput_mb=res.goodput_bytes / MB,
            )
        )
    return out


@dataclass(frozen=True)
class PagingComparison:
    """Program-controlled staging vs demand-paging-sized requests.

    The decisive metric is completion time for the same useful work:
    fault-handling CPU inflates the paged run's *utilization* while
    slowing the program down.
    """

    staged_completion_s: float
    paged_completion_s: float
    staged_utilization: float
    paged_utilization: float
    staged_ios_per_sec: float
    paged_ios_per_sec: float

    @property
    def staging_wins(self) -> bool:
        return self.staged_completion_s < self.paged_completion_s

    @property
    def slowdown(self) -> float:
        return self.paged_completion_s / self.staged_completion_s


def paging_vs_staging(
    *,
    page_bytes: int = 16 * KB,
    cache_mb: float = 32.0,
    scale: float = 0.08,
    fault_cpu_s: float = 150e-6,
) -> PagingComparison:
    """Section 5.1: "These I/Os are the equivalent of paging under a
    paging virtual memory operating system ... Even when paging exists,
    the program is better able than the operating system to predict
    which data it will need."

    Runs the same venus computation two ways through the same cache:

    * **staged** -- the real model: 456 KB program-chosen requests, with
      the file system's predictive read-ahead working for it;
    * **paged** -- the identical byte volume moved in page-sized demand
      faults: no predictive read-ahead (the VM does not know what comes
      next) and ``fault_cpu_s`` of kernel fault-handling CPU per page.

    The asymmetry is exactly the paper's argument: prediction, and
    per-request overhead amortization.

    (Runs directly, not through the sweep runner: the paged variant uses
    an ad-hoc unregistered model class that cannot be named by a spec.)
    """
    from repro.workloads.apps.venus import VenusModel

    class PagedVenus(VenusModel):
        """venus forced to page-granular transfers (not registered)."""

        read_chunk = page_bytes
        write_chunk = page_bytes

    staged_w = VenusModel(scale=scale).generate()
    paged_w = PagedVenus(scale=scale).generate()
    staged_config = SimConfig(cache=CacheConfig(size_bytes=int(cache_mb * MB)))
    paged_config = staged_config.with_cache(
        size_bytes=int(cache_mb * MB), read_ahead=False
    ).with_scheduler(fs_overhead_s=fault_cpu_s)
    staged = simulate([staged_w.trace], staged_config)
    paged = simulate([paged_w.trace], paged_config)
    return PagingComparison(
        staged_completion_s=staged.completion_seconds,
        paged_completion_s=paged.completion_seconds,
        staged_utilization=staged.utilization,
        paged_utilization=paged.utilization,
        staged_ios_per_sec=len(staged_w.trace) / staged_w.cpu_seconds,
        paged_ios_per_sec=len(paged_w.trace) / paged_w.cpu_seconds,
    )


@dataclass(frozen=True)
class NPlusOnePoint:
    """One (n_cpus, n_jobs) multiprogramming measurement."""

    n_cpus: int
    n_jobs: int
    utilization: float
    idle_seconds: float


def n_plus_one_rule(
    *,
    app: str = "venus",
    n_cpus: int = 2,
    max_extra_jobs: int = 3,
    cache_mb: float = 48.0,
    scale: float = 0.1,
    seed: int = DEFAULT_SEED,
    jobs: int | None = None,
    runner: SweepRunner | None = None,
) -> list[NPlusOnePoint]:
    """Section 2.2's multiprogramming rule, measured.

    "In practice, n+1 jobs resident in main memory will keep n
    processors busy, given a typical supercomputer workload.  ...  If
    all currently in-memory programs make many I/O requests, it is
    likely that more than one will be awaiting I/O all the time."

    Runs ``n_cpus`` CPUs with job counts from ``n_cpus`` up to
    ``n_cpus + max_extra_jobs`` identical instances of ``app`` and
    reports the utilizations.  With an I/O-intensive app at a modest
    cache, n+1 is *not* enough -- the paper's caveat.
    """
    job_counts = [n_cpus + extra for extra in range(0, max_extra_jobs + 1)]
    points = [
        SweepPointSpec(
            workload=AppWorkloadSpec(
                app=app, scale=scale, seed=seed, n_copies=n_jobs
            ),
            config=SimConfig(
                cache=CacheConfig(size_bytes=int(cache_mb * MB))
            ).with_scheduler(n_cpus=n_cpus),
            label=f"{n_jobs}x{app} on {n_cpus} CPUs",
        )
        for n_jobs in job_counts
    ]
    r = _runner(runner, jobs)
    return [
        NPlusOnePoint(
            n_cpus=n_cpus,
            n_jobs=n_jobs,
            utilization=pr.result.utilization,
            idle_seconds=pr.result.idle_seconds,
        )
        for n_jobs, pr in zip(job_counts, r.run(points))
    ]
