"""Differential guard: the extent-native cache still gives legacy's digests.

The production cache (:mod:`repro.sim.cache`) keeps columnar frame
tables and handles every request as block ranges.  It was once checked
cell by cell against a per-block legacy reference cache; that
implementation is deleted, and each digest below is the one both
implementations produced for the cell -- recorded with the two in
agreement, before the deletion.  Equivalence is not approximate: every
digest hashes the full scalar result set and the binned rate series,
across every cache policy, on multi-process and async workloads, under
an active fault plan where failed reads abandon frames and failed
flushes re-queue dirty blocks, and on both request regimes: venus's
57-128-block requests and bvi/forma's 1-2-block ones.

These fixed traces are not the whole contract: the cache must also
reproduce the recorded digest corpora (``tests/sim/test_cache_corpus.py``
and ``tests/sim/test_system_corpus.py``), which reach paths these
traces miss.
"""

import pytest

from repro.sim.config import CacheConfig, SimConfig, ssd_cache
from repro.sim.faults import FaultPlan
from repro.sim.procmodel import relabel_copies
from repro.sim.system import SimulatedSystem
from repro.util.rng import DEFAULT_SEED
from repro.util.units import KB, MB
from repro.workloads.base import generate_workload

CONFIGS = {
    "memory": SimConfig(cache=CacheConfig(size_bytes=8 * MB)),
    "ssd": SimConfig(cache=ssd_cache(8 * MB)),
    "no-readahead": SimConfig(
        cache=CacheConfig(size_bytes=8 * MB, read_ahead=False)
    ),
    "write-through": SimConfig(
        cache=CacheConfig(size_bytes=8 * MB, write_behind=False)
    ),
    "raw": SimConfig(
        cache=CacheConfig(
            size_bytes=8 * MB, read_ahead=False, write_behind=False
        )
    ),
    "delayed-flush-8k": SimConfig(
        cache=CacheConfig(
            size_bytes=4 * MB, block_bytes=8 * KB, flush_delay_s=2.0
        )
    ),
    "capped-per-process": SimConfig(
        cache=CacheConfig(size_bytes=8 * MB, max_blocks_per_process=256)
    ),
    "tiny-cache-bypass": SimConfig(cache=CacheConfig(size_bytes=256 * KB)),
    "two-cpus": SimConfig(cache=CacheConfig(size_bytes=8 * MB)).with_scheduler(
        n_cpus=2
    ),
}

#: ``SimulationResult.digest()[:16]`` of each venus-pair policy cell.
POLICY_DIGESTS = {
    "capped-per-process": "85d8260cf1bda2b4",
    "delayed-flush-8k": "ad7f26805c17ce8b",
    "memory": "59030efa7d13e3fe",
    "no-readahead": "d82f5bf4afc357ef",
    "raw": "87c3ab2b53b80a1d",
    "ssd": "532e4ac73f307649",
    "tiny-cache-bypass": "479cd959eef46ba7",
    "two-cpus": "e21269bad944d17a",
    "write-through": "1a8fc5c021051119",
}


@pytest.fixture(scope="module")
def venus_pair():
    venus = generate_workload("venus", scale=0.05, seed=DEFAULT_SEED)
    return relabel_copies(venus.trace, 2)


@pytest.fixture(scope="module")
def les_trace():
    return [generate_workload("les", scale=0.05, seed=DEFAULT_SEED).trace]


def _digest(traces, config):
    return SimulatedSystem(traces, config).run().digest()[:16]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_fast_cache_matches_legacy_across_policies(venus_pair, name):
    assert _digest(venus_pair, CONFIGS[name]) == POLICY_DIGESTS[name]


def test_fast_cache_matches_legacy_on_async_workload(les_trace):
    # les issues asynchronous writes (fire-and-forget) -- the path where
    # completions race the issuing process instead of unblocking it.
    config = SimConfig(cache=CacheConfig(size_bytes=4 * MB))
    assert _digest(les_trace, config) == "e5743c1e8b26d712"


def test_fast_cache_matches_legacy_under_fault_plan(venus_pair):
    # Injected errors and slowdowns drive the failure paths: read runs
    # abandoned mid-flight, flush runs re-queued with gaps, retries with
    # seeded backoff.  The digest must hold event for event even there.
    plan = FaultPlan.from_spec("error=0.05,slow=0.1,seed=23,max_retries=4")
    config = plan.apply(SimConfig(cache=ssd_cache(8 * MB)))
    result = SimulatedSystem(venus_pair, config).run()
    assert result.faults.injected_errors > 0  # the plan actually fired
    assert result.digest()[:16] == "70e10896f4714e68"


def test_fast_cache_matches_legacy_through_ssd_failure(venus_pair):
    # A timed device failure flips the cache into degraded bypass mode
    # mid-run; the frames dropped at the cut decide the digest.
    plan = FaultPlan.from_spec("ssd_fail_at=20")
    config = plan.apply(SimConfig(cache=ssd_cache(8 * MB)))
    assert _digest(venus_pair, config) == "24300d79b8def5cd"


#: Section 6.3's regime, 1-2 block requests (32 KB blocks): one copy
#: alone on the 256 MB SSD, where nearly every read is an all-clean hit
#: and rewrites land on clean or still-flushing blocks; and two copies
#: contending for an 8-frame main-memory cache, which evicts on almost
#: every miss -- there LRU order decides the victims, so a 1-block
#: touch that misorders a split clean-LRU node changes the digest.
SHORT_SPAN_CELLS = {
    "ssd-256mb": (SimConfig(cache=ssd_cache(256 * MB)), 1),
    "memory-256kb-2-copies": (
        SimConfig(cache=CacheConfig(size_bytes=256 * KB, block_bytes=32 * KB)),
        2,
    ),
}

SHORT_SPAN_DIGESTS = {
    ("bvi", "memory-256kb-2-copies"): "b12d19c807658e2e",
    ("bvi", "ssd-256mb"): "a930b3f2fddf40ad",
    ("forma", "memory-256kb-2-copies"): "f113999a0c9d52fc",
    ("forma", "ssd-256mb"): "fa2d10e16243618d",
}


@pytest.fixture(scope="module")
def short_span_traces():
    # At most 20k records (forma has 18,972): one read sweep and the
    # write phase after it -- bvi's writes start at record 15,457,
    # forma's at 8,201.
    return {
        app: generate_workload(app, scale=0.005, seed=DEFAULT_SEED).trace[:20_000]
        for app in ("bvi", "forma")
    }


@pytest.mark.parametrize("cell", sorted(SHORT_SPAN_CELLS))
@pytest.mark.parametrize("app", ["bvi", "forma"])
def test_fast_cache_matches_legacy_on_short_spans(short_span_traces, app, cell):
    config, copies = SHORT_SPAN_CELLS[cell]
    traces = relabel_copies(short_span_traces[app], copies)
    assert _digest(traces, config) == SHORT_SPAN_DIGESTS[app, cell]
