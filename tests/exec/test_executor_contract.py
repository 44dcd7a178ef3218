"""The backend x result-cache conformance matrix, as pytest cases.

One test per cell of the matrix in ``tests/harness/executor_contract``:
both backends (serial for one job, queue for more) crossed with every
cache arrangement (none / single directory), each cell also warming a
re-run on the *other* backend to prove cache interop.
"""

import pytest

from repro.exec.runner import SweepRunner
from tests.harness.executor_contract import (
    BACKEND_JOBS,
    CACHE_MODES,
    contract_points,
    run_combo,
)


@pytest.fixture(autouse=True)
def isolated_env(monkeypatch, tmp_path):
    """Keep the matrix independent of the developer's environment."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default-cache"))


class TestConformanceMatrix:
    @pytest.mark.parametrize("cache_mode", CACHE_MODES)
    @pytest.mark.parametrize("executor", list(BACKEND_JOBS))
    def test_cell(self, executor, cache_mode, tmp_path):
        report = run_combo(executor, cache_mode, tmp_path)
        assert not report["problems"], "\n".join(report["problems"])


class TestKeyInvariance:
    def test_executor_never_enters_the_key(self):
        """The backend is an execution detail."""
        point = contract_points()[0]
        baseline = point.key(None)
        for jobs in BACKEND_JOBS.values():
            runner = SweepRunner(jobs=jobs)
            assert point.key(runner.seed) == baseline
