"""The executor x result-cache conformance matrix, as pytest cases.

One test per cell of the matrix in ``tests/harness/executor_contract``:
every backend (serial / pool / queue) crossed with every cache
arrangement (none / single directory), each cell also warming
a re-run on a *different* backend to prove cache interop.  Plus the
selection-precedence contract for ``--executor`` / ``$REPRO_EXECUTOR``.
"""

import pytest

from repro.exec.executor import (
    EXECUTOR_NAMES,
    PoolExecutor,
    QueueExecutor,
    SerialExecutor,
    make_executor,
    resolve_executor_name,
)
from repro.exec.runner import SweepRunner
from tests.harness.executor_contract import (
    CACHE_MODES,
    contract_points,
    reference_outcomes,
    run_combo,
)


@pytest.fixture(autouse=True)
def isolated_env(monkeypatch, tmp_path):
    """Keep the matrix independent of the developer's environment."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default-cache"))
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)


class TestConformanceMatrix:
    @pytest.mark.parametrize("cache_mode", CACHE_MODES)
    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_cell(self, executor, cache_mode, tmp_path):
        report = run_combo(executor, cache_mode, tmp_path)
        assert not report["problems"], "\n".join(report["problems"])


class TestSelection:
    def test_explicit_name_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "queue")
        assert resolve_executor_name("serial") == "serial"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "queue")
        assert resolve_executor_name(None) == "queue"

    def test_unset_means_auto(self):
        assert resolve_executor_name(None) is None
        assert SweepRunner(jobs=1)._executor_name(1) == "serial"
        assert SweepRunner(jobs=4)._executor_name(4) == "pool"

    def test_unknown_name_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor_name("carrier-pigeon")
        monkeypatch.setenv("REPRO_EXECUTOR", "bogus")
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor_name(None)

    def test_make_executor_types(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("pool", jobs=3), PoolExecutor)
        assert isinstance(make_executor("queue", jobs=3), QueueExecutor)

    def test_env_selected_backend_stays_bit_identical(self, monkeypatch):
        points = contract_points()
        monkeypatch.setenv("REPRO_EXECUTOR", "queue")
        via_env = SweepRunner(jobs=2, cache=None).run(points)
        assert [
            (r.key, r.result.digest()) for r in via_env
        ] == reference_outcomes()


class TestKeyInvariance:
    def test_executor_never_enters_the_key(self):
        """The backend is an execution detail, like use_store."""
        point = contract_points()[0]
        baseline = point.key(None)
        for name in EXECUTOR_NAMES:
            runner = SweepRunner(jobs=2, executor=name)
            assert point.key(runner.seed) == baseline
