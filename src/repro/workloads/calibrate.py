"""Calibration checks: generated traces versus the catalog targets.

The models are hand-calibrated to the reconstructed Tables 1 and 2; this
module measures how close a generated trace actually lands and raises
:class:`CalibrationError` when a model drifts out of tolerance.  Totals
are compared **per CPU second** so that scaled-down generations (fewer
cycles) calibrate against the same targets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import CalibrationError
from repro.util.units import MB
from repro.workloads.base import GeneratedWorkload


@dataclass(frozen=True)
class CalibrationResult:
    """Measured-vs-target rates for one generated workload."""

    name: str
    cpu_seconds: float
    mb_per_sec: float
    ios_per_sec: float
    read_mb_per_sec: float
    write_mb_per_sec: float
    avg_io_kb: float
    rw_data_ratio: float

    target_mb_per_sec: float
    target_ios_per_sec: float
    target_rw_ratio: float

    def deviations(self) -> dict[str, float]:
        """Relative deviation of each calibrated quantity (0 is perfect)."""

        def rel(measured: float, target: float) -> float:
            if target == 0:
                return 0.0 if measured == 0 else float("inf")
            return abs(measured - target) / target

        return {
            "mb_per_sec": rel(self.mb_per_sec, self.target_mb_per_sec),
            "ios_per_sec": rel(self.ios_per_sec, self.target_ios_per_sec),
            "rw_data_ratio": rel(self.rw_data_ratio, self.target_rw_ratio),
        }


def measure(workload: GeneratedWorkload) -> CalibrationResult:
    """Compute a workload's achieved rates against its catalog row."""
    trace = workload.trace
    cpu = workload.cpu_seconds
    if cpu <= 0:
        raise CalibrationError(f"{workload.name}: zero CPU time")
    read_bytes = trace.read_bytes
    write_bytes = trace.write_bytes
    n = len(trace)
    return CalibrationResult(
        name=workload.name,
        cpu_seconds=cpu,
        mb_per_sec=(read_bytes + write_bytes) / MB / cpu,
        ios_per_sec=n / cpu,
        read_mb_per_sec=read_bytes / MB / cpu,
        write_mb_per_sec=write_bytes / MB / cpu,
        avg_io_kb=(read_bytes + write_bytes) / 1024 / n if n else 0.0,
        rw_data_ratio=read_bytes / write_bytes if write_bytes else float("inf"),
        target_mb_per_sec=workload.paper.mb_per_sec,
        target_ios_per_sec=workload.paper.ios_per_sec,
        target_rw_ratio=workload.paper.rw_data_ratio,
    )


def check(workload: GeneratedWorkload, *, tolerance: float = 0.25) -> CalibrationResult:
    """Measure and raise :class:`CalibrationError` beyond ``tolerance``.

    The default 25% band is loose on purpose: the reproduction promises
    *shape*, and scaled runs shift edge effects (startup/final phases
    amortize over fewer cycles).
    """
    result = measure(workload)
    bad = {
        key: dev for key, dev in result.deviations().items() if dev > tolerance
    }
    if bad:
        detail = ", ".join(f"{k} off by {v:.0%}" for k, v in sorted(bad.items()))
        raise CalibrationError(f"{workload.name}: {detail}")
    return result
