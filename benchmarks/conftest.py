"""Shared fixtures for the benchmark harness.

Workload generation is the expensive part and is identical across
benches, so the seven traces are generated once per session.  Scales are
chosen so every application runs at least four cycles (rates, access
sizes and cyclic structure are scale-invariant; totals get extrapolated).

The sweep-shaped benches run through one shared, uncached
:class:`SweepRunner`; ``REPRO_JOBS=8`` fans their points over worker
processes (the numbers are identical at any worker count, so assertions
never change).
"""

import pytest

from repro.exec.runner import SweepRunner, resolve_jobs
from repro.sim.procmodel import relabel_copies
from repro.workloads import APP_NAMES, generate_workload

BENCH_SCALES = {
    "bvi": 0.04,
    "forma": 0.08,
    "ccm": 0.15,
    "gcm": 0.15,
    "les": 0.25,
    "venus": 0.15,
    "upw": 0.15,
}


@pytest.fixture(scope="session")
def workloads():
    """All seven generated workloads, keyed by name."""
    return {
        name: generate_workload(name, scale=BENCH_SCALES[name])
        for name in APP_NAMES
    }


@pytest.fixture(scope="session")
def venus(workloads):
    return workloads["venus"]


@pytest.fixture(scope="session")
def two_venus_traces(venus):
    """Two non-sharing venus instances (the section 6 workhorse)."""
    return relabel_copies(venus.trace, 2)


@pytest.fixture(scope="session")
def sweep_runner():
    """One SweepRunner shared by every sweep-shaped bench.

    Serial by default so timings stay meaningful; ``REPRO_JOBS`` opts
    into worker processes.  No result cache: every point simulates.
    """
    return SweepRunner(jobs=resolve_jobs(None, default=1))


def once(benchmark, fn):
    """Run an expensive experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
