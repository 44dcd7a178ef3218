"""Simulator configuration.

One :class:`SimConfig` captures every knob section 6 describes:

* the scheduler's quantum and overheads ("a simple round-robin scheduler
  with a quantum that can be specified each time it is run.  The
  process-switching overhead, file system code overhead, and interrupt
  service time are also parameters");
* the buffer cache's size, block size, read-ahead and write-behind
  policies, and the optional per-process buffer-ownership cap whose
  failure section 6.2 reports;
* whether the cache is *main memory* (free hits) or the *SSD* ("we
  treated it as a huge main-memory cache, and added per-block penalties
  for cache hits ... approximately 1 us per kilobyte transferred (at
  1 GB/sec), with some additional overhead to set up the transfer");
* the disk model's timing constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace

from repro.util.units import KB, MB


def _config_dict(obj) -> dict:
    """A plain dict of a config dataclass in declared field order.

    Field order is the dataclass declaration order (not ``sorted``) so the
    serialized form is stable across Python versions and refactors that
    merely reorder keyword arguments at call sites.  Values are left as
    the native ints/floats/bools/None; callers that need a drift-proof
    text form (cache keys, golden fixtures) should render floats with
    ``float.hex`` -- see :mod:`repro.exec.keys`.
    """
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        out[f.name] = _config_dict(value) if is_dataclass(value) else value
    return out


@dataclass(frozen=True)
class DiskConfig:
    """Analytic disk-timing model (no queueing, per the paper)."""

    bandwidth_bytes_per_sec: float = 9.6 * MB
    #: fixed controller/OS overhead per request
    base_overhead_s: float = 1.0e-3
    #: seek cost when the request is not sequential with the previous
    #: access to the same file; scales with logical distance up to max.
    min_seek_s: float = 5.0e-3
    max_seek_s: float = 25.0e-3
    #: logical distance at which seek cost saturates at max_seek_s
    seek_span_bytes: int = 1024 * MB
    #: full platter rotation ("the Cray Y-MP disks seek relatively
    #: slowly"; DD-49-class drives rotate in ~16.7 ms)
    rotation_period_s: float = 16.7e-3
    #: number of spindles files are spread over; 0 = one disk per file
    #: (the logical-trace default: "it was impossible to map requests to
    #: individual disks"), a positive value hashes files onto that many
    #: disks so their head positions interfere
    n_disks: int = 0

    def to_dict(self) -> dict:
        """Deterministic plain-dict form (stable field order)."""
        return _config_dict(self)


@dataclass(frozen=True)
class CacheConfig:
    """Buffer cache geometry and policies."""

    size_bytes: int = 32 * MB
    block_bytes: int = 4 * KB
    read_ahead: bool = True
    write_behind: bool = True
    #: None = unlimited; otherwise the per-process buffer-ownership cap
    #: (the 6.2 experiment that "actually worsened CPU utilization")
    max_blocks_per_process: int | None = None
    #: read-ahead depth in requests; None = auto (deeper when buffer
    #: space allows, reproducing "the cache did not have enough buffer
    #: space to allow full read-ahead")
    read_ahead_depth: int | None = None
    #: Sprite-style delayed writes (section 2.1): dirty data sits in the
    #: cache this long before the flush is issued, so short-lived files
    #: can be deleted without ever reaching the disk.  0 = flush
    #: immediately (the paper's write-behind).  The paper argues delay
    #: buys nothing for supercomputer workloads -- "iterations take
    #: hundreds of seconds and files are hundreds of megabytes long".
    flush_delay_s: float = 0.0
    #: SSD-as-cache hit penalties; zero for a main-memory cache
    hit_setup_s: float = 0.0
    hit_per_kb_s: float = 0.0

    def __post_init__(self) -> None:
        if self.block_bytes <= 0:
            raise ValueError(f"block_bytes must be > 0: {self.block_bytes}")
        if self.size_bytes < self.block_bytes:
            raise ValueError(
                f"size_bytes must be >= block_bytes ({self.block_bytes}): "
                f"{self.size_bytes}"
            )

    @property
    def n_blocks(self) -> int:
        return self.size_bytes // self.block_bytes

    def hit_penalty_s(self, nbytes: int) -> float:
        if self.hit_setup_s == 0.0 and self.hit_per_kb_s == 0.0:
            return 0.0
        return self.hit_setup_s + self.hit_per_kb_s * (nbytes / KB)

    def auto_depth(self, request_bytes: int) -> int:
        """Read-ahead depth achievable for a stream of this request size.

        Depth grows with the buffer space per stream: roughly one request
        of look-ahead per 16 requests' worth of cache, clamped to [1, 8].
        """
        if self.read_ahead_depth is not None:
            return self.read_ahead_depth
        request_bytes = max(request_bytes, self.block_bytes)
        depth = self.size_bytes // (16 * request_bytes)
        return int(min(8, max(1, depth)))

    def to_dict(self) -> dict:
        """Deterministic plain-dict form (stable field order)."""
        return _config_dict(self)


@dataclass(frozen=True)
class FaultConfig:
    """Deterministic, seeded device-fault injection.

    The paper's simulator assumes perfectly reliable devices; this layer
    models the three failure modes a host-side buffering system actually
    meets (transient I/O errors, slow-device latency spikes, and a crash
    that loses whatever write-behind had not yet made durable).  All
    rates default to zero, in which case the injector draws *no* random
    numbers and the simulation is bit-identical to a build without the
    fault layer.
    """

    #: probability a device request fails with a transient error
    error_rate: float = 0.0
    #: probability a device request suffers a latency spike
    slow_rate: float = 0.0
    #: service-time multiplier for a spiked request
    slow_factor: float = 8.0
    #: simulated crash instant: the run stops, and dirty (unflushed)
    #: cache bytes are counted as lost -- the data-at-risk metric.
    #: None = never crash.  A crash time past natural completion is a
    #: no-op (the run drained first).
    crash_at_s: float | None = None
    #: instant the cache device (the SSD) fails: its dirty contents are
    #: lost, residency is dropped, and every later request bypasses the
    #: cache straight to disk (degraded mode).  None = never.
    ssd_fail_at_s: float | None = None
    #: fault-stream seed; None derives it from the simulation seed, so
    #: repeated runs of one config replay the identical fault schedule
    seed: int | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.error_rate <= 1.0):
            raise ValueError(f"error_rate must be in [0,1]: {self.error_rate}")
        if not (0.0 <= self.slow_rate <= 1.0):
            raise ValueError(f"slow_rate must be in [0,1]: {self.slow_rate}")
        if self.error_rate + self.slow_rate > 1.0:
            raise ValueError("error_rate + slow_rate must not exceed 1")
        if self.slow_factor < 1.0:
            raise ValueError(f"slow_factor must be >= 1: {self.slow_factor}")

    @property
    def injects(self) -> bool:
        """True when per-request fault decisions are needed at all."""
        return self.error_rate > 0.0 or self.slow_rate > 0.0

    @property
    def enabled(self) -> bool:
        """True when any fault mechanism is configured."""
        return (
            self.injects
            or self.crash_at_s is not None
            or self.ssd_fail_at_s is not None
        )

    def to_dict(self) -> dict:
        """Deterministic plain-dict form (stable field order)."""
        return _config_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultConfig":
        return cls(**data)


@dataclass(frozen=True)
class RecoveryConfig:
    """Retry/backoff policy for transient device failures.

    A failed (or timed-out) device request is retried up to
    ``max_retries`` times with exponential backoff: retry *k* waits
    ``min(backoff_cap_s, backoff_base_s * backoff_factor**k *
    (1 + backoff_jitter * u))`` where ``u`` is a seeded uniform draw.
    ``backoff_jitter`` is clamped to ``backoff_factor - 1`` so the delay
    sequence stays monotone non-decreasing up to the cap (the property
    the chaos suite pins).
    """

    max_retries: int = 3
    backoff_base_s: float = 2e-3
    backoff_factor: float = 2.0
    backoff_cap_s: float = 0.25
    #: jitter fraction in [0, backoff_factor - 1]; 0 = deterministic
    backoff_jitter: float = 0.5
    #: per-request deadline: an attempt whose service time would exceed
    #: this is abandoned at the deadline and counts as a failed attempt.
    #: None = no timeout (the default, and the bit-identical fast path).
    timeout_s: float | None = None
    #: times a dirty extent is re-queued for flushing after its disk
    #: write permanently failed (write-behind's last line of defence);
    #: beyond this the dirty bytes are dropped and counted as lost
    max_reflushes: int = 2
    #: delay before a failed flush extent is re-queued
    reflush_delay_s: float = 0.05

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {self.max_retries}")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1: {self.backoff_factor}")
        if not (0.0 <= self.backoff_jitter <= self.backoff_factor - 1.0):
            raise ValueError(
                "backoff_jitter must be in [0, backoff_factor - 1] to keep "
                f"backoff monotone: {self.backoff_jitter}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive: {self.timeout_s}")
        if self.max_reflushes < 0:
            raise ValueError(f"max_reflushes must be >= 0: {self.max_reflushes}")
        if self.reflush_delay_s < 0:
            raise ValueError("reflush_delay_s must be >= 0")

    def to_dict(self) -> dict:
        """Deterministic plain-dict form (stable field order)."""
        return _config_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RecoveryConfig":
        return cls(**data)


#: SSD penalties from section 6.3: ~1 us/KB at 1 GB/s plus setup.
SSD_HIT_SETUP_S = 50e-6
SSD_HIT_PER_KB_S = 1e-6


def ssd_cache(size_bytes: int, *, block_bytes: int = 32 * KB, **kw) -> CacheConfig:
    """A CacheConfig modelling the SSD as a huge cache with hit penalties."""
    return CacheConfig(
        size_bytes=size_bytes,
        block_bytes=block_bytes,
        hit_setup_s=SSD_HIT_SETUP_S,
        hit_per_kb_s=SSD_HIT_PER_KB_S,
        **kw,
    )


@dataclass(frozen=True)
class SchedulerConfig:
    """Round-robin CPU scheduling parameters."""

    #: identical processors sharing one ready queue (the paper models 1;
    #: the Y-MP had 8 -- see the n+1-rule experiment)
    n_cpus: int = 1
    quantum_s: float = 0.05
    switch_overhead_s: float = 20e-6
    interrupt_service_s: float = 30e-6
    #: per-I/O file system code CPU charged by the simulator on top of
    #: the trace's own process-time deltas (which already include the
    #: traced system's library path); default 0 to avoid double counting.
    fs_overhead_s: float = 0.0

    def __post_init__(self) -> None:
        if self.n_cpus < 1:
            raise ValueError(f"n_cpus must be >= 1: {self.n_cpus}")

    def to_dict(self) -> dict:
        """Deterministic plain-dict form (stable field order)."""
        return _config_dict(self)


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation run needs."""

    cache: CacheConfig = field(default_factory=CacheConfig)
    disk: DiskConfig = field(default_factory=DiskConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)
    seed: int = 0
    #: wall-clock bin width for the disk-traffic series (the figures)
    traffic_bin_s: float = 1.0

    def with_cache(self, **changes) -> "SimConfig":
        return replace(self, cache=replace(self.cache, **changes))

    def with_scheduler(self, **changes) -> "SimConfig":
        return replace(self, scheduler=replace(self.scheduler, **changes))

    def with_disk(self, **changes) -> "SimConfig":
        return replace(self, disk=replace(self.disk, **changes))

    def with_faults(self, **changes) -> "SimConfig":
        return replace(self, faults=replace(self.faults, **changes))

    def with_recovery(self, **changes) -> "SimConfig":
        return replace(self, recovery=replace(self.recovery, **changes))

    def with_seed(self, seed: int) -> "SimConfig":
        return replace(self, seed=seed)

    def to_dict(self) -> dict:
        """Deterministic nested-dict form (stable field order throughout)."""
        return _config_dict(self)
