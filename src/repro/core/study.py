"""The high-level `Study` facade: the whole paper in one object.

A :class:`Study` generates the seven application workloads at a chosen
scale (through the sweep runner's per-process workload memo), and
exposes each of the paper's tables, figures and claims as one method.
The examples and benchmarks are thin wrappers around it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.cycles import CycleReport, analyze_cycles
from repro.analysis.rates import data_rate_series
from repro.analysis.report import render_table1, render_table2
from repro.analysis.sequentiality import SequentialityReport, analyze_sequentiality
from repro.sim.experiments import (
    DEFAULT_SCALES,
    AppSSDRun,
    BufferingRun,
    SweepPoint,
    cache_size_sweep,
    run_two_venus,
    ssd_utilization_per_app,
    writebehind_ablation,
)
from repro.util.rng import DEFAULT_SEED
from repro.util.timeseries import RateSeries
from repro.workloads.base import GeneratedWorkload
from repro.workloads.catalog import APP_NAMES


@dataclass
class Study:
    """Cached access to every reproduced artifact."""

    scale: float | None = None  #: None = per-app DEFAULT_SCALES
    seed: int = DEFAULT_SEED
    #: worker processes for sweep-shaped experiments (1 = serial; the
    #: numbers are identical at any worker count)
    jobs: int | None = 1

    def app_scale(self, name: str) -> float:
        return self.scale if self.scale is not None else DEFAULT_SCALES[name]

    def workload(self, name: str) -> GeneratedWorkload:
        """The named application's generated workload.

        Memoized per process by the sweep runner's bounded memo, which
        the simulation figures read too, so a figure replays the very
        workload the trace figures analyzed instead of generating it
        again.
        """
        from repro.exec.runner import generated_workload

        return generated_workload(name, self.app_scale(name), self.seed)

    def all_workloads(self) -> list[GeneratedWorkload]:
        return [self.workload(name) for name in APP_NAMES]

    # -- tables --------------------------------------------------------------
    def table1(self) -> str:
        """Table 1, measured vs paper, totals extrapolated to full runs."""
        return render_table1(self.all_workloads())

    def table2(self) -> str:
        """Table 2, measured vs paper."""
        return render_table2(self.all_workloads())

    # -- application figures ---------------------------------------------------
    def app_rate_series(self, name: str) -> RateSeries:
        """MB per CPU second at 1 s bins (the Figure 3/4 curves)."""
        return data_rate_series(self.workload(name).trace, clock="cpu")

    def cycles(self, name: str) -> CycleReport:
        return analyze_cycles(self.app_rate_series(name))

    def sequentiality(self, name: str) -> SequentialityReport:
        return analyze_sequentiality(self.workload(name).trace)

    # -- simulation figures -----------------------------------------------------
    def figure6(self) -> BufferingRun:
        """Figure 6: 2 x venus through a 32 MB main-memory cache."""
        return run_two_venus(
            cache_mb=32, scale=self.app_scale("venus"), seed=self.seed
        )

    def figure7(self) -> BufferingRun:
        """Figure 7: 2 x venus through a 128 MB SSD-class cache."""
        return run_two_venus(
            cache_mb=128, ssd=True, scale=self.app_scale("venus"), seed=self.seed
        )

    def figure8(self, **kwargs) -> list[SweepPoint]:
        """Figure 8: idle time vs cache size, 4 KB and 8 KB blocks."""
        kwargs.setdefault("scale", self.app_scale("venus"))
        kwargs.setdefault("jobs", self.jobs)
        return cache_size_sweep(**kwargs)

    # -- claims ------------------------------------------------------------------
    def ssd_runs(self, **kwargs) -> list[AppSSDRun]:
        kwargs.setdefault("jobs", self.jobs)
        return ssd_utilization_per_app(**kwargs)

    def writebehind(self, **kwargs) -> tuple[BufferingRun, BufferingRun]:
        kwargs.setdefault("scale", self.app_scale("venus"))
        kwargs.setdefault("jobs", self.jobs)
        return writebehind_ablation(**kwargs)
