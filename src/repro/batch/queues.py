"""The UNICOS-style batch system: memory-sized queues over shared CPUs.

Model (section 2.2):

* each queue admits jobs up to its memory limit and owns a fixed slab of
  machine memory; a job waits in its queue until the slab has room for
  its (contiguous, non-pageable) allocation;
* resident jobs are ready to "run on any of the eight processors that is
  available"; CPU service is modelled as processor sharing: with k
  resident jobs and n CPUs, each job progresses at rate min(1, n/k)
  scaled by its duty factor (the fraction of wall time it can use a CPU,
  < 1 for I/O-bound jobs);
* a job departs when its CPU demand is done, freeing queue memory for
  the next waiter.

Turnaround = queue wait + residency.  The paper's observation falls out:
small-memory jobs wait in shorter queues and start sooner.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.util.errors import SimulationError


@dataclass(frozen=True)
class QueueConfig:
    """One batch queue: its admission limit and its memory slab."""

    name: str
    memory_limit_mw: float  #: largest job it admits
    space_mw: float  #: total resident memory it may hold

    def __post_init__(self) -> None:
        if self.memory_limit_mw <= 0 or self.space_mw <= 0:
            raise ValueError("queue limits must be positive")
        if self.space_mw < self.memory_limit_mw:
            raise ValueError(
                f"queue {self.name}: space {self.space_mw} MW cannot hold "
                f"even one limit-sized job ({self.memory_limit_mw} MW)"
            )


def default_queues() -> list[QueueConfig]:
    """A NASA-flavoured split of 128 MW of Y-MP memory into queues."""
    return [
        QueueConfig("small", memory_limit_mw=4.0, space_mw=16.0),
        QueueConfig("medium", memory_limit_mw=16.0, space_mw=48.0),
        QueueConfig("large", memory_limit_mw=64.0, space_mw=64.0),
    ]


@dataclass(frozen=True)
class Job:
    """A batch submission."""

    name: str
    memory_mw: float
    cpu_seconds: float
    arrival: float = 0.0
    #: fraction of wall time the job can use a CPU once resident
    #: (1.0 = pure compute; venus-like staging jobs sit lower)
    duty: float = 1.0

    def __post_init__(self) -> None:
        if self.memory_mw <= 0 or self.cpu_seconds <= 0:
            raise ValueError("job resources must be positive")
        if not 0 < self.duty <= 1:
            raise ValueError("duty must be in (0, 1]")


@dataclass
class JobOutcome:
    """What happened to one job."""

    job: Job
    queue: str
    start_resident: float
    finish: float

    @property
    def queue_wait(self) -> float:
        return self.start_resident - self.job.arrival

    @property
    def residency(self) -> float:
        return self.finish - self.start_resident

    @property
    def turnaround(self) -> float:
        return self.finish - self.job.arrival


@dataclass
class _Resident:
    job: Job
    queue: QueueConfig
    start: float
    remaining_cpu: float


class BatchSimulator:
    """Processor-sharing batch simulation over memory queues."""

    def __init__(
        self, queues: list[QueueConfig] | None = None, *, n_cpus: int = 8
    ):
        if n_cpus < 1:
            raise SimulationError("need at least one CPU")
        self.queues = sorted(
            queues if queues is not None else default_queues(),
            key=lambda q: q.memory_limit_mw,
        )
        if not self.queues:
            raise SimulationError("need at least one queue")
        self.n_cpus = n_cpus

    def queue_for(self, job: Job) -> QueueConfig:
        """The smallest queue whose limit admits the job."""
        for queue in self.queues:
            if job.memory_mw <= queue.memory_limit_mw:
                return queue
        raise SimulationError(
            f"job {job.name}: {job.memory_mw} MW exceeds every queue limit"
        )

    def run(self, jobs: list[Job]) -> dict[str, JobOutcome]:
        """Simulate to completion; returns outcomes keyed by job name."""
        if len({j.name for j in jobs}) != len(jobs):
            raise SimulationError("job names must be unique")
        arrivals = sorted(jobs, key=lambda j: (j.arrival, j.name))
        waiting: dict[str, list[Job]] = {q.name: [] for q in self.queues}
        used: dict[str, float] = {q.name: 0.0 for q in self.queues}
        resident: list[_Resident] = []
        outcomes: dict[str, JobOutcome] = {}
        arrival_iter = iter(arrivals)
        next_arrival = next(arrival_iter, None)
        now = 0.0
        guard = itertools.count()

        def progress_rate(r: _Resident, k: int) -> float:
            share = min(1.0, self.n_cpus / k) if k else 0.0
            return share * r.job.duty

        def admit() -> None:
            for queue in self.queues:
                q = waiting[queue.name]
                while q and used[queue.name] + q[0].memory_mw <= queue.space_mw:
                    job = q.pop(0)
                    used[queue.name] += job.memory_mw
                    resident.append(
                        _Resident(job, queue, now, job.cpu_seconds)
                    )

        while True:
            if next(guard) > 10_000_000:
                raise SimulationError("batch simulation did not converge")
            # Admit anything that now fits.
            admit()
            k = len(resident)
            # Next completion under current rates.
            next_completion = None
            completing = None
            for r in resident:
                rate = progress_rate(r, k)
                if rate <= 0:
                    continue
                t = now + r.remaining_cpu / rate
                if next_completion is None or t < next_completion:
                    next_completion = t
                    completing = r
            # Next event: arrival or completion.
            if next_arrival is not None and (
                next_completion is None or next_arrival.arrival <= next_completion
            ):
                # Advance work to the arrival instant.
                dt = next_arrival.arrival - now
                for r in resident:
                    r.remaining_cpu -= dt * progress_rate(r, k)
                now = next_arrival.arrival
                waiting[self.queue_for(next_arrival).name].append(next_arrival)
                next_arrival = next(arrival_iter, None)
                continue
            if next_completion is None:
                if any(waiting[q.name] for q in self.queues):
                    raise SimulationError(
                        "jobs waiting but nothing resident can finish"
                    )
                break
            dt = next_completion - now
            for r in resident:
                r.remaining_cpu -= dt * progress_rate(r, k)
            now = next_completion
            assert completing is not None
            resident.remove(completing)
            used[completing.queue.name] -= completing.job.memory_mw
            outcomes[completing.job.name] = JobOutcome(
                job=completing.job,
                queue=completing.queue.name,
                start_resident=completing.start,
                finish=now,
            )
        return outcomes
