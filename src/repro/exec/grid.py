"""Knobs -> sweep points: the one parser of ``simulate`` and ``sweep`` specs.

A :class:`GridSpec` is the cross product of cache sizes x block sizes x
read-ahead x write-behind toggles over N copies of one application (the
Figure 6-8 family of experiments).  Points come out in a fixed nested
order -- block, cache, read-ahead, write-behind -- so tables, cache keys
and derived seeds never depend on argument order.

:func:`simulate_points` and :func:`sweep_points` build points from a
JSON-shaped spec dict: ``repro simulate`` and ``repro sweep`` pass the
flags given, the sweep server each job's ``spec``, so HTTP and the CLI
build the same points -- keys, cached results, digests -- by
construction.  A key left out takes the default of the
:class:`GridSpec` field or :func:`build_sim_config` argument it sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exec.runner import (
    AppWorkloadSpec,
    PointResult,
    SweepPointSpec,
    TraceFileSpec,
)
from repro.sim.config import CacheConfig, SimConfig, ssd_cache
from repro.sim.faults import FaultPlan
from repro.util.rng import DEFAULT_SEED
from repro.util.tables import TextTable
from repro.util.units import KB, MB
from repro.workloads.base import available_models, check_scale

#: Figure 8's cache sizes, in MB.
FIG8_CACHE_SIZES_MB = (4, 8, 16, 32, 64, 128, 256)

#: Figure 8 compares 4 KB and 8 KB cache blocks.
FIG8_BLOCK_SIZES_KB = (4, 8)


def build_sim_config(
    *,
    cache_mb: float = 32.0,
    block_kb: float = 4.0,
    ssd: bool = False,
    read_ahead: bool = True,
    write_behind: bool = True,
    n_cpus: int = 1,
) -> SimConfig:
    """One :class:`SimConfig` from CLI/server-shaped knobs.

    Single source of truth for turning user-facing units (MB caches, KB
    blocks, on/off toggles) into a config: every ``simulate`` spec and
    every :class:`GridSpec` point is built here.  The keyword defaults
    are a ``simulate`` spec's.  A non-finite size raises
    :class:`ValueError` naming the field.
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


# -- spec dicts ----------------------------------------------------------------


class SpecError(ValueError):
    """A malformed ``simulate`` or ``sweep`` spec, as one line: ``repro
    simulate``/``repro sweep`` print it and exit 2, the sweep server
    answers it with a 400."""


def _is_number(value) -> bool:
    """A JSON number: an int or a float, never a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _read_number(value, name: str) -> float:
    """A float key: any JSON number.  An integer past the float range
    reads as infinity, as JSON reads ``1e400``."""
    if not _is_number(value):
        raise SpecError(f"bad {name} {value!r} (want a number)")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def read_integer(value, name: str) -> int:
    """An integer key: a JSON number with no fractional part."""
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
    elif _is_number(value):
        return value
    raise SpecError(f"bad {name} {value!r} (want an integer)")


def read_toggle(value, name: str) -> bool:
    """One toggle: a JSON bool, or a string ``parse_toggles`` reads as
    exactly one value ("on", "off", "true", "false", "1", "0", ...)."""
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            (toggle,) = parse_toggles(value)
            return toggle
        except ValueError:
            pass
    raise SpecError(f"bad {name} toggle {value!r} (want true/false or on/off)")


def _read_float_axis(value, name: str) -> tuple[float, ...]:
    """A float axis from a JSON number, a non-empty list of them, or a
    CLI-style "4,8,16" string."""
    if isinstance(value, str):
        try:
            return parse_floats(value)
        except ValueError as exc:
            raise SpecError(f"bad {name} axis {value!r}: {exc}") from exc
    elements = value if isinstance(value, list) and value else [value]
    return tuple(_read_number(v, name) for v in elements)


def _read_toggle_axis(value, name: str) -> tuple[bool, ...]:
    """A toggle axis from a JSON bool/list or a CLI-style "on,off" string."""
    if isinstance(value, str):
        try:
            return parse_toggles(value)
        except ValueError as exc:
            raise SpecError(f"bad {name} axis {value!r}: {exc}") from exc
    if isinstance(value, bool):
        return (value,)
    if isinstance(value, list) and value:
        toggles = tuple(read_toggle(v, name) for v in value)
        if len(set(toggles)) != len(toggles):
            raise SpecError(f"bad {name} axis {value!r}: repeated toggle value")
        return toggles
    raise SpecError(f"bad {name} axis {value!r}")


#: ``simulate`` spec keys: the :func:`build_sim_config` argument each
#: sets, and the reader of its value.  ``share_files`` sets the
#: :class:`TraceFileSpec` field of that name.
_CONFIG_KEYS = {
    "cache_mb": ("cache_mb", _read_number),
    "block_kb": ("block_kb", _read_number),
    "ssd": ("ssd", read_toggle),
    "read_ahead": ("read_ahead", read_toggle),
    "write_behind": ("write_behind", read_toggle),
    "cpus": ("n_cpus", read_integer),
}
_TRACE_KEYS = {"share_files": ("share_files", read_toggle)}

#: ``sweep`` spec keys: the :class:`GridSpec` field each sets, and the
#: reader of its value.
_GRID_KEYS = {
    "app": ("app", lambda value, name: str(value)),
    "copies": ("n_copies", read_integer),
    "scale": ("scale", _read_number),
    "seed": ("workload_seed", read_integer),
    "cache_mb": ("cache_sizes_mb", _read_float_axis),
    "block_kb": ("block_sizes_kb", _read_float_axis),
    "read_ahead": ("read_ahead", _read_toggle_axis),
    "write_behind": ("write_behind", _read_toggle_axis),
    "ssd": ("ssd", read_toggle),
    "cpus": ("n_cpus", read_integer),
}


def _read_keys(spec: dict, keys: dict) -> dict:
    """The arguments ``spec`` sets: a key it leaves out sets none, so
    the callee's default holds."""
    return {
        arg: read(spec[key], key)
        for key, (arg, read) in keys.items()
        if key in spec
    }


def _with_faults(spec: dict, config: SimConfig) -> SimConfig:
    """``config`` under the spec's ``faults`` string or ``fault_plan``
    dict (:meth:`FaultPlan.to_dict`'s shape), if it has one."""
    faults = spec.get("faults")
    plan = spec.get("fault_plan")
    if faults and plan:
        raise SpecError("use either 'faults' or 'fault_plan', not both")
    if faults and not isinstance(faults, str):
        raise SpecError(f"'faults' must be a spec string: {faults!r}")
    if plan and not isinstance(plan, dict):
        raise SpecError(f"'fault_plan' must be a JSON object: {plan!r}")
    try:
        if faults:
            return FaultPlan.from_spec(faults).apply(config)
        if plan:
            return FaultPlan.from_dict(plan).apply(config)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad fault plan: {exc}") from exc
    return config


def simulate_points(spec: dict) -> list[SweepPointSpec]:
    """The one point of a ``simulate`` spec: its ``traces`` (required),
    each replayed as one process, under one config, optionally with
    ``faults`` or a ``fault_plan``."""
    traces = spec.get("traces")
    if (
        not isinstance(traces, list)
        or not traces
        or not all(isinstance(t, str) for t in traces)
    ):
        raise SpecError("'traces' must be a non-empty list of paths")
    knobs = _read_keys(spec, _CONFIG_KEYS)
    try:
        config = build_sim_config(**knobs)
    except ValueError as exc:
        raise SpecError(f"bad config: {exc}") from exc
    config = _with_faults(spec, config)
    workload = TraceFileSpec(paths=tuple(traces), **_read_keys(spec, _TRACE_KEYS))
    label = spec.get("label") or f"simulate {' '.join(traces)}"
    return [SweepPointSpec(workload=workload, config=config, label=str(label))]


def sweep_points(spec: dict) -> list[SweepPointSpec]:
    """The points of a ``sweep`` spec's :class:`GridSpec`."""
    fields = _read_keys(spec, _GRID_KEYS)
    try:
        grid = GridSpec(**fields)
        points = grid.points()
    except ValueError as exc:
        raise SpecError(f"bad grid: {exc}") from exc
    if grid.app not in available_models():
        raise SpecError(
            f"unknown application {grid.app!r}; known: "
            f"{', '.join(available_models())}"
        )
    return points


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
