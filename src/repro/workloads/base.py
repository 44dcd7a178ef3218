"""Workload model framework.

Each traced application is reproduced as an :class:`ApplicationModel`
subclass that *programs against* the simulated runtime API
(:class:`~repro.runtime.api.AppRuntime`), exactly the way the original
codes programmed against the Cray I/O libraries.  Generating a trace runs
the model with a tracing hook attached; the result is a
:class:`GeneratedWorkload` holding the columnar trace plus the metadata
Table 1 reports (the size of every file the program touched).

Models are calibrated to the catalog rows; ``scale`` shrinks the number
of iterations (for tests and quick runs) while preserving the per-second
rates, access sizes and cyclic structure.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from repro.runtime.api import AppRuntime
from repro.runtime.files import FileSystem
from repro.runtime.latency import DISK_PROFILE, SSD_PROFILE, DeviceLatencyModel
from repro.runtime.tracer import LibraryTracer
from repro.trace.array import TraceArray
from repro.trace.procstat import ProcstatCollector
from repro.trace.record import CommentRecord
from repro.trace.reconstruct import events_to_array
from repro.util.rng import DEFAULT_SEED, derive_rng
from repro.workloads.catalog import PaperAppRow, paper_row


@dataclass
class GeneratedWorkload:
    """A generated trace plus the context Table 1 needs."""

    name: str
    trace: TraceArray
    data_size_bytes: int  #: sum of sizes of all files accessed
    comments: list[CommentRecord]
    cpu_seconds: float
    wall_seconds: float
    scale: float
    paper: PaperAppRow

    @property
    def n_ios(self) -> int:
        return len(self.trace)

    @property
    def total_io_bytes(self) -> int:
        return self.trace.total_bytes


def check_scale(scale: float) -> float:
    """``scale`` itself if it lies in (0, 1], else :class:`ValueError`:
    the one check of a workload scale, wherever one is given."""
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    return scale


class ApplicationModel(ABC):
    """Base class for the seven traced-application models.

    Subclasses set ``name`` (a catalog key) and implement :meth:`run`,
    which drives an :class:`AppRuntime` through the application's I/O
    life cycle.  The base class provides the calibrated cycle-budget
    arithmetic all iterative models share.
    """

    name: ClassVar[str]

    def __init__(self, *, scale: float = 1.0, seed: int = DEFAULT_SEED):
        self.scale = check_scale(scale)
        self.seed = seed
        self.paper = paper_row(self.name)

    # -- to implement ----------------------------------------------------
    @abstractmethod
    def run(self, rt: AppRuntime) -> None:
        """Execute the application's I/O behaviour against the runtime."""

    # -- configuration ------------------------------------------------------
    @property
    def latency_profile(self) -> DeviceLatencyModel:
        """Device the app's synchronous I/O notionally hits while traced."""
        return SSD_PROFILE if self.paper.uses_ssd else DISK_PROFILE

    def rng(self, label: str = "") -> np.random.Generator:
        return derive_rng(self.seed, f"{self.name}/{label}")

    # -- generation ----------------------------------------------------------
    def generate(
        self,
        *,
        process_id: int = 1,
        start_wall: int = 0,
        collector: ProcstatCollector | None = None,
    ) -> GeneratedWorkload:
        """Run the model under tracing and return the generated workload.

        If a ``collector`` is given, events flow through the procstat
        batching path and the returned trace is empty (reconstruct it from
        the collector's packets); otherwise events are gathered in memory.
        """
        fs = FileSystem()
        tracer = LibraryTracer(collector)
        rt = AppRuntime(
            process_id,
            fs,
            tracer=tracer,
            latency=self.latency_profile,
        )
        self.run(rt)
        rt.wait_all()
        tracer.close()
        if collector is None:
            trace = events_to_array(tracer.events)
        else:
            trace = TraceArray.empty()
        return GeneratedWorkload(
            name=self.name,
            trace=trace,
            data_size_bytes=fs.total_bytes,
            comments=list(tracer.comments),
            cpu_seconds=rt.clock.cpu_seconds,
            wall_seconds=rt.clock.wall_seconds,
            scale=self.scale,
            paper=self.paper,
        )

    # -- shared cycle arithmetic ---------------------------------------------
    def scaled_cycles(self, full_cycles: int, minimum: int = 2) -> int:
        """Number of cycles to run at this scale (at least ``minimum``)."""
        return max(minimum, int(round(full_cycles * self.scale)))

    def per_io_overhead_ticks(self, rt: AppRuntime, io_bytes: int) -> int:
        """CPU ticks one traced I/O call itself burns on this runtime.

        Synchronous calls always pay the syscall path; on a
        non-suspending device (SSD) the transfer is charged as CPU too.
        """
        overhead = rt.syscall_cpu_ticks
        if not rt.latency.suspends:
            overhead += rt.latency.service_ticks(io_bytes)
        return overhead

    def compute_gap_ticks(
        self,
        rt: AppRuntime,
        *,
        phase_cpu_ticks: int,
        n_ios: int,
        io_bytes: int,
    ) -> int:
        """CPU slice to insert between I/Os so a phase hits its CPU budget.

        The phase's budget covers both the application compute between
        I/Os and the per-call CPU overhead of the I/Os themselves.
        """
        if n_ios <= 0:
            return 0
        overhead = self.per_io_overhead_ticks(rt, io_bytes) * n_ios
        return max(0, (phase_cpu_ticks - overhead) // n_ios)


# Registry ------------------------------------------------------------------

_REGISTRY: dict[str, Callable[..., ApplicationModel]] = {}


def register_model(cls):
    """Class decorator adding a model to the by-name registry."""
    _REGISTRY[cls.name] = cls
    return cls


def model_for(name: str, **kwargs) -> ApplicationModel:
    """Instantiate a registered application model by catalog name."""
    # Import the app modules lazily so the registry is populated even when
    # callers import only this module.
    from repro.workloads import apps  # noqa: F401

    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"no model registered for {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return cls(**kwargs)


def available_models() -> tuple[str, ...]:
    from repro.workloads import apps  # noqa: F401

    return tuple(sorted(_REGISTRY))


def generate_workload(
    name: str, *, scale: float = 1.0, seed: int = DEFAULT_SEED, process_id: int = 1
) -> GeneratedWorkload:
    """One-shot: build the named model and generate its trace."""
    return model_for(name, scale=scale, seed=seed).generate(process_id=process_id)
