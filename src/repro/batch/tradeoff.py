"""The venus designer's tradeoff, quantified.

"To get into a shorter job queue, the program's implementor decided to
use a very small in-memory array.  Thus, the program accessed the file
system frequently to stage the required data to and from memory."

The experiment submits the *same computation* two ways into a loaded
batch system:

* **big-memory variant** -- holds the whole array: large queue, full CPU
  duty (no staging);
* **small-memory variant** -- venus-style: small queue, CPU demand
  slightly inflated by staging overhead and duty below one (it waits on
  the disk some of the time).

Against a background population keeping the large queue busy, the small
variant starts much sooner and wins on turnaround despite running
longer once resident -- the paper's claimed incentive.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.batch.queues import BatchSimulator, Job, JobOutcome
from repro.util.rng import derive_rng


@dataclass(frozen=True)
class TradeoffResult:
    big: JobOutcome
    small: JobOutcome

    @property
    def small_wins(self) -> bool:
        return self.small.turnaround < self.big.turnaround

    @property
    def speedup(self) -> float:
        return self.big.turnaround / self.small.turnaround

    def __str__(self) -> str:  # pragma: no cover - presentation
        return (
            f"big-memory:   queue {self.big.queue}, wait "
            f"{self.big.queue_wait:.0f} s, residency {self.big.residency:.0f} s, "
            f"turnaround {self.big.turnaround:.0f} s\n"
            f"small-memory: queue {self.small.queue}, wait "
            f"{self.small.queue_wait:.0f} s, residency {self.small.residency:.0f} s, "
            f"turnaround {self.small.turnaround:.0f} s\n"
            f"small-memory variant {'wins' if self.small_wins else 'loses'} "
            f"(x{self.speedup:.2f})"
        )


def venus_design_tradeoff(
    *,
    cpu_seconds: float = 379.0,
    big_memory_mw: float = 48.0,
    small_memory_mw: float = 3.0,
    staging_overhead: float = 0.10,
    staging_duty: float = 0.75,
    background_large_jobs: int = 6,
    background_job_seconds: float = 1800.0,
    seed: int = 0,
) -> TradeoffResult:
    """Submit both variants into a machine kept busy with large jobs.

    The background jobs arrive first and saturate the large queue's
    memory slab; both probe variants arrive together afterwards.
    """
    rng = derive_rng(seed, "batch-tradeoff")
    sim = BatchSimulator()
    jobs: list[Job] = []
    for i in range(background_large_jobs):
        jobs.append(
            Job(
                name=f"bg{i}",
                memory_mw=float(rng.uniform(30.0, 60.0)),
                cpu_seconds=float(
                    background_job_seconds * rng.uniform(0.7, 1.3)
                ),
                arrival=float(i * 10.0),
            )
        )
    probe_arrival = background_large_jobs * 10.0 + 60.0
    jobs.append(
        Job(
            name="probe-big",
            memory_mw=big_memory_mw,
            cpu_seconds=cpu_seconds,
            arrival=probe_arrival,
        )
    )
    jobs.append(
        Job(
            name="probe-small",
            memory_mw=small_memory_mw,
            cpu_seconds=cpu_seconds * (1.0 + staging_overhead),
            arrival=probe_arrival,
            duty=staging_duty,
        )
    )
    outcomes = sim.run(jobs)
    return TradeoffResult(
        big=outcomes["probe-big"], small=outcomes["probe-small"]
    )
