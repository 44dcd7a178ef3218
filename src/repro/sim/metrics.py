"""Simulation metrics and results.

Everything the figures and claims need: CPU busy/idle time (Figure 8 and
the utilization claims), disk-traffic-over-wall-time series (Figures 6
and 7), cache hit accounting (the "speed-matching buffer, not a locality
cache" contrast with the BSD study), and per-process completion times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.timeseries import BinnedSeries, RateSeries
from repro.util.units import MB


@dataclass
class CacheStats:
    """Counts from the buffer cache."""

    read_requests: int = 0
    read_bytes: int = 0
    write_requests: int = 0
    write_bytes: int = 0
    #: demand-read blocks found resident
    block_hits: int = 0
    #: demand-read blocks absent (disk reads issued)
    block_misses: int = 0
    #: demand-read blocks found in flight (prefetch or another's miss)
    block_inflight_hits: int = 0
    #: resident hits on blocks brought in by the prefetcher
    readahead_hits: int = 0
    prefetch_issued: int = 0
    prefetch_blocks: int = 0
    #: writes absorbed by write-behind (returned before disk)
    writes_absorbed: int = 0
    #: delayed-write extents whose file was deleted before the flush
    #: fired (Sprite's temporary-file win, section 2.1)
    writes_cancelled: int = 0
    #: requests that had to wait for a free buffer frame
    frame_stalls: int = 0
    #: requests too large for the cache (or the owner's cap) that went
    #: straight to the disk
    bypass_requests: int = 0

    @property
    def block_requests(self) -> int:
        return self.block_hits + self.block_misses + self.block_inflight_hits

    @property
    def hit_fraction(self) -> float:
        """Fraction of demand-read blocks served without a new disk read."""
        total = self.block_requests
        if total == 0:
            return 0.0
        return (self.block_hits + self.block_inflight_hits) / total

    @property
    def resident_hit_fraction(self) -> float:
        total = self.block_requests
        return self.block_hits / total if total else 0.0


@dataclass
class FaultStats:
    """Counts from the fault-injection and recovery layers.

    All zeros in a fault-free run -- the digest only folds these in when
    ``any_faults`` is true, so fault-free results hash identically to
    pre-fault-layer builds.
    """

    #: injector verdicts
    injected_errors: int = 0
    injected_slowdowns: int = 0
    #: recovery-layer outcomes
    timeouts: int = 0
    retries: int = 0
    #: requests that succeeded after at least one retry
    recovered: int = 0
    #: most attempts any single request consumed (1 = first try)
    max_attempts: int = 0
    failed_reads: int = 0
    failed_writes: int = 0
    failed_read_bytes: int = 0
    failed_write_bytes: int = 0
    #: dirty extents re-queued after a failed write-behind flush
    reflushes: int = 0
    #: write-behind data dropped: flush retries exhausted, or dirty at crash
    lost_bytes: int = 0
    #: requests routed around a failed SSD straight to disk
    degraded_requests: int = 0
    crashed: bool = False
    crash_time_s: float | None = None
    degraded_at_s: float | None = None

    @property
    def any_faults(self) -> bool:
        """Did anything at all deviate from the fault-free path?"""
        return bool(
            self.injected_errors
            or self.injected_slowdowns
            or self.timeouts
            or self.retries
            or self.reflushes
            or self.lost_bytes
            or self.degraded_requests
            or self.crashed
            or self.degraded_at_s is not None
        )


@dataclass
class ProcessStats:
    """Per-process outcome."""

    process_id: int
    cpu_seconds: float = 0.0
    blocked_seconds: float = 0.0
    finish_time: float | None = None
    n_ios: int = 0

    @property
    def finished(self) -> bool:
        return self.finish_time is not None


@dataclass
class Metrics:
    """Mutable accumulator the simulator components write into."""

    traffic_bin_s: float = 1.0
    busy_seconds: float = 0.0
    switch_seconds: float = 0.0
    interrupt_seconds: float = 0.0
    cache: CacheStats = field(default_factory=CacheStats)
    faults: FaultStats = field(default_factory=FaultStats)
    processes: dict[int, ProcessStats] = field(default_factory=dict)
    disk_read_series: BinnedSeries = field(init=False)
    disk_write_series: BinnedSeries = field(init=False)
    demand_series: BinnedSeries = field(init=False)
    busy_series: BinnedSeries = field(init=False)

    def __post_init__(self) -> None:
        self.disk_read_series = BinnedSeries(self.traffic_bin_s)
        self.disk_write_series = BinnedSeries(self.traffic_bin_s)
        self.demand_series = BinnedSeries(self.traffic_bin_s)
        self.busy_series = BinnedSeries(self.traffic_bin_s)

    def record_busy(self, t_start: float, t_end: float) -> None:
        """Attribute a CPU busy interval to the busy-time series."""
        if t_end > t_start:
            self.busy_series.add_spread(t_start, t_end, t_end - t_start)

    def record_busy_point(self, t: float, seconds: float) -> None:
        """Attribute short system CPU (interrupts, switches) at time t."""
        if seconds > 0:
            self.busy_series.add(t, seconds)

    def process(self, pid: int) -> ProcessStats:
        if pid not in self.processes:
            self.processes[pid] = ProcessStats(pid)
        return self.processes[pid]

    def record_disk_transfer(
        self, *, is_write: bool, t_start: float, t_end: float, nbytes: int
    ) -> None:
        series = self.disk_write_series if is_write else self.disk_read_series
        series.add_spread(t_start, t_end, nbytes / MB)

    def record_demand(self, t: float, nbytes: int) -> None:
        self.demand_series.add(t, nbytes / MB)


@dataclass
class SimulationResult:
    """Immutable outcome of one simulation run.

    ``wall_seconds`` is when the simulation fully drained (including
    write-behind flushes still in flight after the last process exited);
    ``completion_seconds`` is when the last process finished, which is
    the window idle time and utilization are measured over -- a CPU with
    no processes left has nothing to be idle *from*.
    """

    wall_seconds: float
    completion_seconds: float
    n_cpus: int
    busy_seconds: float
    switch_seconds: float
    interrupt_seconds: float
    cache: CacheStats
    processes: dict[int, ProcessStats]
    disk_read_rate: RateSeries
    disk_write_rate: RateSeries
    demand_rate: RateSeries
    busy_rate: RateSeries
    disk_sequential_fraction: float
    #: sum of all disk service times (device-seconds of positioning +
    #: transfer) -- the load the I/O system carried
    disk_busy_seconds: float
    events_run: int
    faults: FaultStats = field(default_factory=FaultStats)

    @property
    def idle_seconds(self) -> float:
        """Processor time with nothing to run (the Figure 8 quantity).

        Summed across CPUs: with n CPUs the available processor time over
        the completion window is ``n * completion_seconds``.
        """
        return max(
            0.0,
            self.n_cpus * self.completion_seconds - self.accounted_busy_seconds,
        )

    @property
    def accounted_busy_seconds(self) -> float:
        return self.busy_seconds + self.switch_seconds + self.interrupt_seconds

    @property
    def utilization(self) -> float:
        """Fraction of the completion window the CPUs were busy."""
        if self.completion_seconds == 0:
            return 0.0
        return min(
            1.0,
            self.accounted_busy_seconds / (self.n_cpus * self.completion_seconds),
        )

    def utilization_after(self, warmup_seconds: float) -> float:
        """CPU utilization excluding a cold-start window.

        The paper's full-length runs amortize the first data-set sweep's
        compulsory misses over hundreds of cycles; scaled-down replays do
        not, so steady-state claims (the >99% SSD utilizations) are
        checked on the post-warm-up window.
        """
        if warmup_seconds >= self.completion_seconds:
            return self.utilization
        rates = self.busy_rate.rates
        times = self.busy_rate.times
        mask = (times >= warmup_seconds) & (times < self.completion_seconds)
        busy = float((rates[mask] * self.busy_rate.bin_width).sum())
        window = (self.completion_seconds - warmup_seconds) * self.n_cpus
        return min(1.0, busy / window) if window > 0 else 0.0

    @property
    def disk_rate(self) -> RateSeries:
        """Combined read+write disk traffic in MB/s over wall time."""
        import numpy as np

        r, w = self.disk_read_rate, self.disk_write_rate
        n = max(r.rates.size, w.rates.size)
        rates = np.zeros(n)
        rates[: r.rates.size] += r.rates
        rates[: w.rates.size] += w.rates
        times = np.arange(n) * r.bin_width
        return RateSeries(times, rates, r.bin_width)

    @property
    def goodput_bytes(self) -> int:
        """Application bytes that actually made it: requested minus failed.

        Under faults some reads are reported failed and some write-behind
        data is dropped (flush retries exhausted, or dirty at a crash);
        this is the delivered remainder -- the numerator of any
        "utilization under faults" curve.
        """
        total = self.cache.read_bytes + self.cache.write_bytes
        # failed_write_bytes is a device-level count; the application-level
        # write loss is lost_bytes (what the cache actually dropped).
        lost = self.faults.failed_read_bytes + self.faults.lost_bytes
        return max(0, total - lost)

    def digest(self) -> str:
        """SHA-256 over every scalar and series in the result.

        Two runs are the same simulation iff their digests match -- the
        determinism contract the parallel sweep runner is tested against
        (serial and parallel execution must be bit-identical).
        """
        import hashlib
        import struct

        h = hashlib.sha256()

        def f(x: float) -> None:
            h.update(struct.pack("<d", float(x)))

        def i(x: int) -> None:
            h.update(struct.pack("<q", int(x)))

        f(self.wall_seconds)
        f(self.completion_seconds)
        i(self.n_cpus)
        f(self.busy_seconds)
        f(self.switch_seconds)
        f(self.interrupt_seconds)
        f(self.disk_sequential_fraction)
        f(self.disk_busy_seconds)
        i(self.events_run)
        for name in (
            "read_requests", "read_bytes", "write_requests", "write_bytes",
            "block_hits", "block_misses", "block_inflight_hits",
            "readahead_hits", "prefetch_issued", "prefetch_blocks",
            "writes_absorbed", "writes_cancelled", "frame_stalls",
            "bypass_requests",
        ):
            i(getattr(self.cache, name))
        if self.faults.any_faults:
            # Folded in only when something deviated, so fault-free runs
            # keep the pre-fault-layer digest (golden tables stay valid).
            for name in (
                "injected_errors", "injected_slowdowns", "timeouts",
                "retries", "recovered", "max_attempts",
                "failed_reads", "failed_writes",
                "failed_read_bytes", "failed_write_bytes",
                "reflushes", "lost_bytes", "degraded_requests",
            ):
                i(getattr(self.faults, name))
            i(1 if self.faults.crashed else 0)
            f(-1.0 if self.faults.crash_time_s is None else self.faults.crash_time_s)
            f(-1.0 if self.faults.degraded_at_s is None else self.faults.degraded_at_s)
        for pid in sorted(self.processes):
            p = self.processes[pid]
            i(pid)
            f(p.cpu_seconds)
            f(p.blocked_seconds)
            f(-1.0 if p.finish_time is None else p.finish_time)
            i(p.n_ios)
        for series in (
            self.disk_read_rate, self.disk_write_rate,
            self.demand_rate, self.busy_rate,
        ):
            f(series.bin_width)
            h.update(series.rates.astype("<f8").tobytes())
        return h.hexdigest()

    def summary(self) -> str:
        lines = [
            f"wall time: {self.wall_seconds:.2f} s",
            f"CPU busy:  {self.accounted_busy_seconds:.2f} s "
            f"(utilization {self.utilization:.1%})",
            f"CPU idle:  {self.idle_seconds:.2f} s",
            f"cache hit fraction: {self.cache.hit_fraction:.1%} "
            f"(resident {self.cache.resident_hit_fraction:.1%})",
            f"disk traffic: read {self.disk_read_rate.total:.1f} MB, "
            f"write {self.disk_write_rate.total:.1f} MB "
            f"(sequential fraction {self.disk_sequential_fraction:.1%})",
        ]
        if self.faults.any_faults:
            fs = self.faults
            lines.append(
                f"faults: {fs.injected_errors} errors, "
                f"{fs.injected_slowdowns} slowdowns, {fs.timeouts} timeouts; "
                f"{fs.retries} retries ({fs.recovered} recovered, "
                f"max {fs.max_attempts} attempts); "
                f"lost {fs.lost_bytes / MB:.2f} MB, "
                f"goodput {self.goodput_bytes / MB:.1f} MB"
            )
            if fs.crashed:
                lines.append(f"CRASHED at {fs.crash_time_s:.2f} s")
            if fs.degraded_at_s is not None:
                lines.append(
                    f"degraded mode (SSD bypassed) from {fs.degraded_at_s:.2f} s "
                    f"({fs.degraded_requests} requests rerouted)"
                )
        for pid in sorted(self.processes):
            p = self.processes[pid]
            finish = f"{p.finish_time:.2f}" if p.finish_time is not None else "DNF"
            lines.append(
                f"process {pid}: cpu {p.cpu_seconds:.2f} s, "
                f"blocked {p.blocked_seconds:.2f} s, finished at {finish} s"
            )
        return "\n".join(lines)
