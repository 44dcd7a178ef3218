"""Grid specifications for the ``sweep`` CLI: axes -> sweep points.

A :class:`GridSpec` is the cross product of cache sizes x block sizes x
read-ahead x write-behind toggles over N copies of one application (the
Figure 6-8 family of experiments).  Points come out in a fixed nested
order -- block, cache, read-ahead, write-behind -- so tables, cache keys
and derived seeds never depend on argument order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exec.runner import AppWorkloadSpec, PointResult, SweepPointSpec
from repro.sim.config import CacheConfig, SimConfig, ssd_cache
from repro.util.rng import DEFAULT_SEED
from repro.util.tables import TextTable
from repro.util.units import KB, MB
from repro.workloads.base import check_scale

#: Figure 8's cache sizes, in MB.
FIG8_CACHE_SIZES_MB = (4, 8, 16, 32, 64, 128, 256)

#: Figure 8 compares 4 KB and 8 KB cache blocks.
FIG8_BLOCK_SIZES_KB = (4, 8)


def build_sim_config(
    *,
    cache_mb: float,
    block_kb: float,
    ssd: bool = False,
    read_ahead: bool = True,
    write_behind: bool = True,
    n_cpus: int = 1,
) -> SimConfig:
    """One :class:`SimConfig` from CLI/server-shaped knobs.

    Single source of truth for turning user-facing units (MB caches, KB
    blocks, on/off toggles) into a config: ``repro simulate``, the sweep
    grid and the sweep server all build configs here, which is what
    guarantees a job submitted over HTTP produces the *same* point key
    -- and therefore the same cached result and digest -- as the CLI.
    A non-finite size raises :class:`ValueError` naming the field.
    """
    for name, value in (("cache_mb", cache_mb), ("block_kb", block_kb)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite: {value}")
    kwargs = dict(
        block_bytes=int(block_kb * KB),
        read_ahead=read_ahead,
        write_behind=write_behind,
    )
    if ssd:
        cache = ssd_cache(int(cache_mb * MB), **kwargs)
    else:
        cache = CacheConfig(size_bytes=int(cache_mb * MB), **kwargs)
    return SimConfig(cache=cache).with_scheduler(n_cpus=n_cpus)


def _parse_axis(text: str, convert) -> tuple:
    """Parse a comma-separated CLI axis (``"4,8,16"``) into a tuple."""
    values = tuple(convert(tok.strip()) for tok in text.split(",") if tok.strip())
    if not values:
        raise ValueError(f"empty axis: {text!r}")
    return values


def parse_floats(text: str) -> tuple[float, ...]:
    return _parse_axis(text, float)


def parse_toggles(text: str) -> tuple[bool, ...]:
    """``"on,off"`` -> (True, False); accepts on/off, true/false, 1/0."""

    def one(tok: str) -> bool:
        low = tok.lower()
        if low in ("on", "true", "1", "yes"):
            return True
        if low in ("off", "false", "0", "no"):
            return False
        raise ValueError(f"bad toggle {tok!r} (want on/off)")

    values = _parse_axis(text, one)
    if len(set(values)) != len(values):
        raise ValueError(f"repeated toggle value in {text!r}")
    return values


@dataclass(frozen=True)
class GridSpec:
    """The cross product defining one sweep.

    A scale outside (0, 1] or fewer than one copy raises
    :class:`ValueError` here, so a bad grid fails when it is given, not
    when its first point runs.
    """

    app: str = "venus"
    n_copies: int = 2
    scale: float = 0.25
    workload_seed: int = DEFAULT_SEED
    cache_sizes_mb: tuple[float, ...] = FIG8_CACHE_SIZES_MB
    block_sizes_kb: tuple[float, ...] = FIG8_BLOCK_SIZES_KB
    read_ahead: tuple[bool, ...] = (True,)
    write_behind: tuple[bool, ...] = (True,)
    ssd: bool = False
    n_cpus: int = 1

    def __post_init__(self) -> None:
        check_scale(self.scale)
        if self.n_copies < 1:
            raise ValueError(f"n_copies must be >= 1: {self.n_copies}")

    @property
    def n_points(self) -> int:
        return (
            len(self.cache_sizes_mb)
            * len(self.block_sizes_kb)
            * len(self.read_ahead)
            * len(self.write_behind)
        )

    def points(self) -> list[SweepPointSpec]:
        workload = AppWorkloadSpec(
            app=self.app,
            scale=self.scale,
            seed=self.workload_seed,
            n_copies=self.n_copies,
        )
        kind = "SSD" if self.ssd else "mem"
        out = []
        for block_kb in self.block_sizes_kb:
            for cache_mb in self.cache_sizes_mb:
                for ra in self.read_ahead:
                    for wb in self.write_behind:
                        config = build_sim_config(
                            cache_mb=cache_mb,
                            block_kb=block_kb,
                            ssd=self.ssd,
                            read_ahead=ra,
                            write_behind=wb,
                            n_cpus=self.n_cpus,
                        )
                        label = (
                            f"{self.n_copies}x{self.app} {kind} "
                            f"{cache_mb:g}MB/{block_kb:g}KB "
                            f"ra={'on' if ra else 'off'} "
                            f"wb={'on' if wb else 'off'}"
                        )
                        out.append(
                            SweepPointSpec(
                                workload=workload, config=config, label=label
                            )
                        )
        return out


def render_sweep_table(results: list[PointResult], *, title: str = "sweep") -> str:
    """The result table the ``sweep`` CLI command prints."""
    table = TextTable(
        ["point", "idle(s)", "utilization", "hit%", "source", "sim(s)"],
        title=title,
    )
    for r in results:
        table.add_row(
            [
                r.label or r.key[:12],
                round(r.result.idle_seconds, 2),
                f"{r.result.utilization:.2%}",
                f"{r.result.cache.hit_fraction:.1%}",
                "cache" if r.cached else "run",
                "-" if r.cached else round(r.elapsed_s, 2),
            ]
        )
    return table.render()


def sweep_summary(results: list[PointResult]) -> str:
    """One line of accounting: how much work the memo cache saved."""
    n_cached = sum(1 for r in results if r.cached)
    n_run = len(results) - n_cached
    return (
        f"{len(results)} point(s): {n_run} simulated, "
        f"{n_cached} from cache"
    )
