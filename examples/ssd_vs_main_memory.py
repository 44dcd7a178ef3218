#!/usr/bin/env python
"""Section 6's I/O-system configuration question: SSD vs main-memory cache.

"The best configuration for an I/O system, according to our simulations,
is to provide as much SSD storage as possible, and maintain a smaller
main memory cache."

This example runs every traced application alone against (a) a
main-memory-sized cache (4 MW of a processor's 16 MW allotment = 32 MB)
and (b) a 32 MW (256 MB) SSD cache, and prints the per-application CPU
utilizations side by side.  The fourteen runs are independent, so they
go through the sweep runner: set ``REPRO_JOBS`` to fan them over
worker processes (the numbers are identical at any worker count).

Run:  python examples/ssd_vs_main_memory.py
"""

from repro.core.study import DEFAULT_SCALES
from repro.exec.runner import AppWorkloadSpec, SweepPointSpec, SweepRunner
from repro.sim import CacheConfig, SimConfig, ssd_cache
from repro.util.tables import TextTable
from repro.util.units import MB
from repro.workloads import APP_NAMES


def main() -> None:
    points = []
    for name in APP_NAMES:
        workload = AppWorkloadSpec(app=name, scale=DEFAULT_SCALES[name])
        points.append(
            SweepPointSpec(
                workload=workload,
                config=SimConfig(cache=CacheConfig(size_bytes=32 * MB)),
                label=f"{name} mem 32MB",
            )
        )
        points.append(
            SweepPointSpec(
                workload=workload,
                config=SimConfig(cache=ssd_cache(256 * MB)),
                label=f"{name} ssd 256MB",
            )
        )
    runner = SweepRunner(jobs=None)  # $REPRO_JOBS, else one worker per CPU
    results = {r.label: r.result for r in runner.run(points)}

    table = TextTable(
        ["app", "32MB mem util", "256MB SSD util", "SSD idle (s)", "SSD hit%"],
        title="One application per run, single CPU",
    )
    worst = None
    for name in APP_NAMES:
        mem = results[f"{name} mem 32MB"]
        ssd = results[f"{name} ssd 256MB"]
        table.add_row(
            [
                name,
                f"{mem.utilization:.1%}",
                f"{ssd.utilization:.1%}",
                round(ssd.idle_seconds, 2),
                f"{ssd.cache.hit_fraction:.0%}",
            ]
        )
        if worst is None or ssd.utilization < worst[1]:
            worst = (name, ssd.utilization)
    print(table.render())
    assert worst is not None
    print(
        f"\nWith the SSD, every application runs nearly idle-free; the lowest "
        f"is {worst[0]} at {worst[1]:.1%}\n"
        '(the paper: "all but one of the applications nearly completely '
        'utilized a Cray Y-MP CPU by itself").'
    )


if __name__ == "__main__":
    main()
