"""Checkpoint-interval policy: analytic model vs failure injection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.checkpoint_policy import (
    CheckpointParams,
    checkpoint_cost_seconds,
    expected_overhead_fraction,
    measured_overhead_fraction,
    optimal_interval_seconds,
    optimal_iterations,
    paper_checkpoint_example,
    simulate_run,
    sweep_intervals,
)


def params(cost=4.0, mtbf=3600.0, work=1800.0):
    return CheckpointParams(checkpoint_cost_s=cost, mtbf_s=mtbf, work_s=work)


class TestAnalyticModel:
    def test_optimal_interval_formula(self):
        p = params(cost=2.0, mtbf=10_000.0)
        assert optimal_interval_seconds(p) == pytest.approx(math.sqrt(40_000.0))

    def test_optimum_is_a_minimum(self):
        p = params()
        tau = optimal_interval_seconds(p)
        at = expected_overhead_fraction(tau, p)
        assert expected_overhead_fraction(tau / 3, p) > at
        assert expected_overhead_fraction(tau * 3, p) > at

    def test_overhead_terms(self):
        p = params(cost=10.0, mtbf=1000.0)
        # checkpoint term dominates at tiny intervals; rework at huge ones
        assert expected_overhead_fraction(1.0, p) == pytest.approx(
            10.0 + 1 / 2000, rel=1e-6
        )
        assert expected_overhead_fraction(10_000.0, p) > 4.9

    def test_optimal_iterations(self):
        p = params(cost=2.0, mtbf=3200.0)  # tau* = sqrt(12800) ~ 113 s
        assert optimal_iterations(p, iteration_s=20.0) == 6
        assert optimal_iterations(p, iteration_s=1e6) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            params(cost=0.0)
        with pytest.raises(ValueError):
            params(mtbf=-1.0)
        with pytest.raises(ValueError):
            params(work=0.0)
        with pytest.raises(ValueError):
            expected_overhead_fraction(0.0, params())
        with pytest.raises(ValueError):
            optimal_iterations(params(), 0.0)

    def test_checkpoint_cost(self):
        assert checkpoint_cost_seconds(40.0) == pytest.approx(40 / 9.6)
        # write-behind makes checkpoints ~free for the application
        assert checkpoint_cost_seconds(40.0, write_behind=True) < 0.1
        with pytest.raises(ValueError):
            checkpoint_cost_seconds(-1.0)


class TestMonteCarlo:
    def test_no_failures_is_pure_overhead(self):
        # Effectively infinite MTBF: elapsed = work + #checkpoints * cost
        p = params(cost=5.0, mtbf=1e12, work=100.0)
        rng = np.random.default_rng(0)
        elapsed = simulate_run(25.0, p, rng)
        assert elapsed == pytest.approx(100.0 + 4 * 5.0)

    def test_failures_add_rework(self):
        p = params(cost=1.0, mtbf=50.0, work=200.0)
        rng = np.random.default_rng(1)
        lucky = simulate_run(10.0, params(cost=1.0, mtbf=1e12, work=200.0), rng)
        unlucky = measured_overhead_fraction(10.0, p, n_runs=50, seed=2)
        assert unlucky > (lucky - 200.0) / 200.0

    def test_monte_carlo_matches_analytic_near_optimum(self):
        p = params(cost=4.0, mtbf=2000.0, work=2000.0)
        tau = optimal_interval_seconds(p)
        analytic = expected_overhead_fraction(tau, p)
        measured = measured_overhead_fraction(tau, p, n_runs=300, seed=3)
        assert measured == pytest.approx(analytic, abs=0.03)

    def test_sweep_minimum_near_optimal(self):
        p = params(cost=4.0, mtbf=2000.0, work=2000.0)
        tau = optimal_interval_seconds(p)
        grid = [tau / 8, tau / 2, tau, tau * 2, tau * 8]
        rows = sweep_intervals(p, grid, n_runs=150, seed=4)
        measured = [m for _, _, m in rows]
        best = grid[measured.index(min(measured))]
        assert tau / 3 < best < tau * 3  # minimum lands near tau*

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            simulate_run(0.0, params(), np.random.default_rng(0))

    @settings(max_examples=20, deadline=None)
    @given(
        cost=st.floats(0.5, 20.0),
        mtbf=st.floats(100.0, 10_000.0),
        interval=st.floats(5.0, 500.0),
    )
    def test_elapsed_always_at_least_work(self, cost, mtbf, interval):
        p = CheckpointParams(checkpoint_cost_s=cost, mtbf_s=mtbf, work_s=300.0)
        elapsed = simulate_run(interval, p, np.random.default_rng(42))
        assert elapsed >= p.work_s


class TestPaperExample:
    def test_example_checkpoints_conservatively(self):
        p = paper_checkpoint_example()
        tau = optimal_interval_seconds(p)
        # The paper's program checkpointed every 20 s; the
        # failure-optimal interval at an 8 h MTBF is minutes, not
        # seconds -- it checkpointed conservatively, trading bandwidth
        # (the 2 MB/s it quotes) for safety.
        assert tau > 60.0
        overhead_20s = expected_overhead_fraction(20.0, p)
        overhead_opt = expected_overhead_fraction(tau, p)
        assert overhead_20s > 2 * overhead_opt
