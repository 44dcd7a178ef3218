"""The simulator reproduces the recorded whole-simulator digest corpus.

The corpus (:mod:`tests.harness.system_corpus`) is 1,000 small random
simulations over every knob the cache corpus holds fixed: SSD caches
with hit penalties, several CPUs, scheduler costs, shared disks,
timeouts, crashes, SSD failures (degraded mode) and files deleted under
delayed flush.  Their digests were recorded once and are checked here on
every run.
"""

import pytest

from tests.harness.cache_corpus import load_fixture, mismatches
from tests.harness.system_corpus import FIXTURE, N_CASES, run_corpus


@pytest.fixture(scope="module")
def outcomes():
    return run_corpus()


def test_simulator_reproduces_corpus(outcomes):
    recorded = load_fixture(FIXTURE)
    assert len(recorded) == N_CASES
    bad = mismatches(outcomes, recorded)
    assert not bad, f"{len(bad)} corpus digests changed:\n" + "\n".join(bad)


@pytest.mark.parametrize(
    "field",
    ["crashed", "degraded", "multi_cpu", "ssd", "writes_cancelled",
     "timeouts", "scheduler_costs"],
)
def test_corpus_reaches_every_class(outcomes, field):
    # A class the corpus never reaches would pass vacuously.
    assert sum(bool(getattr(o, field)) for o in outcomes) >= 20
