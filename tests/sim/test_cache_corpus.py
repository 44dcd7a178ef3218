"""Both buffer caches reproduce the recorded digest corpus.

The corpus (:mod:`tests.harness.cache_corpus`) is 1,000 small random
simulations whose digests were recorded once and are checked here on
every run.  Fixed traces only reach the cache paths their workloads
happen to drive; random ones also reach gapped prefetch windows, middle
cuts out of clean-LRU nodes, the ownership-cap recycle path, failed
flushes that are re-queued or lost, and parked requests.
"""

import pytest

from tests.harness.cache_corpus import (
    N_CASES, load_fixture, mismatches, run_corpus,
)


@pytest.fixture(scope="module")
def recorded():
    digests = load_fixture()
    assert len(digests) == N_CASES
    return digests


@pytest.fixture(scope="module")
def fast_outcomes():
    return run_corpus("fast")


def test_fast_cache_reproduces_corpus(fast_outcomes, recorded):
    bad = mismatches(fast_outcomes, recorded)
    assert not bad, f"{len(bad)} corpus digests changed:\n" + "\n".join(bad)


def test_legacy_cache_reproduces_corpus(recorded):
    bad = mismatches(run_corpus("legacy"), recorded)
    assert not bad, f"{len(bad)} corpus digests changed:\n" + "\n".join(bad)


def test_corpus_reaches_the_failure_and_contention_paths(fast_outcomes):
    # A corpus that never fails a flush or parks a request would pass
    # vacuously on the paths most likely to drift.
    assert sum(o.reflushes > 0 for o in fast_outcomes) >= 50
    assert sum(o.lost_bytes > 0 for o in fast_outcomes) >= 20
    assert sum(o.frame_stalls > 0 for o in fast_outcomes) >= 300
    assert sum(o.capped for o in fast_outcomes) >= 300
