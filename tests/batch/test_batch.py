"""Batch queue simulation and the venus design tradeoff."""

import pytest

from repro.batch import (
    BatchSimulator,
    Job,
    QueueConfig,
    venus_design_tradeoff,
)
from repro.util.errors import SimulationError


class TestConfigs:
    def test_queue_validation(self):
        with pytest.raises(ValueError):
            QueueConfig("bad", memory_limit_mw=0, space_mw=10)
        with pytest.raises(ValueError):
            QueueConfig("bad", memory_limit_mw=16, space_mw=8)

    def test_job_validation(self):
        with pytest.raises(ValueError):
            Job("j", memory_mw=0, cpu_seconds=10)
        with pytest.raises(ValueError):
            Job("j", memory_mw=1, cpu_seconds=0)
        with pytest.raises(ValueError):
            Job("j", memory_mw=1, cpu_seconds=1, duty=0.0)

    def test_queue_routing(self):
        sim = BatchSimulator()
        assert sim.queue_for(Job("a", 2, 10)).name == "small"
        assert sim.queue_for(Job("b", 10, 10)).name == "medium"
        assert sim.queue_for(Job("c", 60, 10)).name == "large"
        with pytest.raises(SimulationError):
            sim.queue_for(Job("d", 100, 10))

    def test_simulator_validation(self):
        with pytest.raises(SimulationError):
            BatchSimulator(n_cpus=0)
        with pytest.raises(SimulationError):
            BatchSimulator(queues=[])


class TestScheduling:
    def test_single_job_runs_at_full_rate(self):
        sim = BatchSimulator(n_cpus=8)
        out = sim.run([Job("j", memory_mw=4, cpu_seconds=100)])
        assert out["j"].queue_wait == 0.0
        assert out["j"].residency == pytest.approx(100.0)

    def test_duty_stretches_residency(self):
        sim = BatchSimulator(n_cpus=8)
        out = sim.run([Job("j", memory_mw=4, cpu_seconds=100, duty=0.5)])
        assert out["j"].residency == pytest.approx(200.0)

    def test_processor_sharing_when_oversubscribed(self):
        # 4 identical jobs on 2 CPUs: each progresses at rate 1/2.
        sim = BatchSimulator(
            queues=[QueueConfig("q", memory_limit_mw=4, space_mw=64)],
            n_cpus=2,
        )
        jobs = [Job(f"j{i}", memory_mw=4, cpu_seconds=100) for i in range(4)]
        out = sim.run(jobs)
        for o in out.values():
            assert o.residency == pytest.approx(200.0)

    def test_memory_space_gates_admission(self):
        # Queue holds 8 MW; two 8 MW jobs must run back to back.
        sim = BatchSimulator(
            queues=[QueueConfig("q", memory_limit_mw=8, space_mw=8)],
            n_cpus=8,
        )
        jobs = [
            Job("first", memory_mw=8, cpu_seconds=100),
            Job("second", memory_mw=8, cpu_seconds=100),
        ]
        out = sim.run(jobs)
        waits = sorted(o.queue_wait for o in out.values())
        assert waits[0] == 0.0
        assert waits[1] == pytest.approx(100.0)

    def test_fifo_within_queue(self):
        sim = BatchSimulator(
            queues=[QueueConfig("q", memory_limit_mw=8, space_mw=8)],
            n_cpus=8,
        )
        jobs = [
            Job("a", memory_mw=8, cpu_seconds=50, arrival=0.0),
            Job("b", memory_mw=8, cpu_seconds=50, arrival=1.0),
            Job("c", memory_mw=8, cpu_seconds=50, arrival=2.0),
        ]
        out = sim.run(jobs)
        assert out["a"].finish < out["b"].finish < out["c"].finish

    def test_queues_independent(self):
        # A stuffed large queue does not delay a small job.
        sim = BatchSimulator(n_cpus=8)
        jobs = [
            Job(f"big{i}", memory_mw=60, cpu_seconds=500, arrival=0.0)
            for i in range(3)
        ] + [Job("tiny", memory_mw=1, cpu_seconds=10, arrival=5.0)]
        out = sim.run(jobs)
        assert out["tiny"].queue_wait == 0.0

    def test_arrivals_during_service(self):
        sim = BatchSimulator(n_cpus=1)
        jobs = [
            Job("a", memory_mw=2, cpu_seconds=100, arrival=0.0),
            Job("b", memory_mw=2, cpu_seconds=100, arrival=50.0),
        ]
        out = sim.run(jobs)
        # a runs alone for 50 s (50 s of work left), then shares at rate
        # 1/2 for 100 s: finishes at 150 s.  b accrues 50 s of work by
        # then and runs alone to finish at 200 s.
        assert out["a"].finish == pytest.approx(150.0)
        assert out["b"].finish == pytest.approx(200.0)

    def test_duplicate_names_rejected(self):
        sim = BatchSimulator()
        with pytest.raises(SimulationError):
            sim.run([Job("x", 1, 1), Job("x", 1, 1)])

    def test_turnaround_decomposition(self):
        sim = BatchSimulator()
        out = sim.run([Job("j", memory_mw=4, cpu_seconds=10, arrival=5.0)])
        o = out["j"]
        assert o.turnaround == pytest.approx(o.queue_wait + o.residency)


class TestVenusTradeoff:
    def test_small_memory_wins_under_load(self):
        result = venus_design_tradeoff()
        assert result.small.queue == "small"
        assert result.big.queue == "large"
        # the paper's incentive: staged version starts much sooner...
        assert result.small.queue_wait < result.big.queue_wait
        # ...runs longer once resident (staging overhead + lower duty)...
        assert result.small.residency > result.big.residency
        # ...and still wins on turnaround, decisively.
        assert result.small_wins
        assert result.speedup > 2.0

    def test_unloaded_machine_prefers_big_memory(self):
        # Without background load, the in-memory version wins: staging
        # is pure overhead.
        result = venus_design_tradeoff(background_large_jobs=0)
        assert not result.small_wins

    def test_deterministic(self):
        a = venus_design_tradeoff(seed=3)
        b = venus_design_tradeoff(seed=3)
        assert a.big.finish == b.big.finish
        assert a.small.finish == b.small.finish
