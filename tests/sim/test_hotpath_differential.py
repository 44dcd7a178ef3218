"""Differential guard: the extent-native cache is bit-identical to legacy.

The production cache (:mod:`repro.sim.cache`) keeps columnar frame
tables and handles every request as block ranges; the per-block
reference implementation (:mod:`repro.sim.cache_legacy`) stays
selectable via ``SimulatedSystem(..., cache_impl="legacy")``.
Equivalence is not approximate: every digest -- which hashes the full
scalar result set and the binned rate series -- must match across every
cache policy, on multi-process and async workloads, under an active
fault plan where failed reads abandon frames and failed flushes re-queue
dirty blocks, and on both request regimes: venus's 57-128-block
requests and bvi/forma's 1-2-block ones.

Agreement between two implementations is not the whole contract: both
must also reproduce the recorded digest corpus
(``tests/sim/test_cache_corpus.py``), which reaches paths these fixed
traces miss.
"""

import pytest

from repro.obs.registry import MetricsRegistry
from repro.sim.config import CacheConfig, SimConfig, ssd_cache
from repro.sim.faults import FaultPlan
from repro.sim.procmodel import relabel_copies
from repro.sim.system import SimulatedSystem
from repro.trace.array import TraceArray
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


@pytest.fixture(scope="module")
def venus_pair():
    venus = generate_workload("venus", scale=0.05, seed=DEFAULT_SEED)
    return relabel_copies(venus.trace, 2)


@pytest.fixture(scope="module")
def les_trace():
    return [generate_workload("les", scale=0.05, seed=DEFAULT_SEED).trace]


def _digest(traces, config, impl):
    return SimulatedSystem(traces, config, cache_impl=impl).run().digest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_fast_cache_matches_legacy_across_policies(venus_pair, name):
    config = CONFIGS[name]
    assert _digest(venus_pair, config, "fast") == _digest(
        venus_pair, config, "legacy"
    )


def test_fast_cache_matches_legacy_on_async_workload(les_trace):
    # les issues asynchronous writes (fire-and-forget) -- the path where
    # completions race the issuing process instead of unblocking it.
    config = SimConfig(cache=CacheConfig(size_bytes=4 * MB))
    assert _digest(les_trace, config, "fast") == _digest(
        les_trace, config, "legacy"
    )


def test_fast_cache_matches_legacy_under_fault_plan(venus_pair):
    # Injected errors and slowdowns drive the failure paths: read runs
    # abandoned mid-flight, flush runs re-queued with gaps, retries with
    # seeded backoff.  The two implementations must agree event for
    # event even there.
    plan = FaultPlan.from_spec("error=0.05,slow=0.1,seed=23,max_retries=4")
    config = plan.apply(SimConfig(cache=ssd_cache(8 * MB)))
    fast = SimulatedSystem(venus_pair, config, cache_impl="fast").run()
    legacy = SimulatedSystem(venus_pair, config, cache_impl="legacy").run()
    assert fast.faults.injected_errors > 0  # the plan actually fired
    assert fast.digest() == legacy.digest()


def test_fast_cache_matches_legacy_through_ssd_failure(venus_pair):
    # A timed device failure flips the cache into degraded bypass mode
    # mid-run; both implementations must drop the same frames at the cut.
    plan = FaultPlan.from_spec("ssd_fail_at=20")
    config = plan.apply(SimConfig(cache=ssd_cache(8 * MB)))
    assert _digest(venus_pair, config, "fast") == _digest(
        venus_pair, config, "legacy"
    )


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
    assert _digest(traces, config, "fast") == _digest(traces, config, "legacy")


def test_fast_cache_matches_legacy_when_a_write_evicts_its_own_block():
    # The write of file 1's blocks 10-17 gets its frames by evicting
    # block 12 (clean, inside its own span), and a read of blocks 10-14
    # brings block 12 back before the write completes.  The completion
    # must settle only the write's live blocks: the legacy cache once
    # settled the dead block 12 too, putting a phantom on its clean LRU
    # under the live block's key.
    trace = TraceArray.from_columns(
        record_type=[136, 128, 136, 136, 136, 136, 136, 136,
                     200, 200, 200, 200, 136, 136, 136],
        file_id=[1, 0, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1],
        offset=[0, 0, 45056, 49152, 8192, 40960, 73728, 0,
                13653, 42325, 70997, 99669, 0, 20480, 40960],
        length=[4096, 4096, 4096, 4096, 32768, 32768, 32768, 4096,
                28672, 28672, 28672, 28672, 20480, 20480, 20480],
        process_clock=[0] * 6 + [141] * 9,
        process_id=[1] * 15,
    )
    config = SimConfig(
        cache=CacheConfig(
            size_bytes=128 * KB, block_bytes=4 * KB,
            read_ahead=False, write_behind=False,
        )
    )
    assert _digest([trace], config, "fast") == _digest(
        [trace], config, "legacy"
    )


def test_unknown_cache_impl_rejected(venus_pair):
    from repro.util.errors import SimulationError

    with pytest.raises(SimulationError, match="unknown cache_impl"):
        SimulatedSystem(venus_pair, CONFIGS["memory"], cache_impl="turbo")


class _CountingRegistry(MetricsRegistry):
    """Disabled registry that counts instrument resolutions."""

    def __init__(self):
        super().__init__(enabled=False)
        self.lookups = 0

    def counter(self, name):
        self.lookups += 1
        return super().counter(name)

    def gauge(self, name):
        self.lookups += 1
        return super().gauge(name)

    def histogram(self, name):
        self.lookups += 1
        return super().histogram(name)


def test_disabled_obs_makes_zero_registry_calls_per_event(venus_pair):
    # Instruments are resolved once at wiring time; with observability
    # disabled, running millions of events must never go back to the
    # registry -- the null-object fast path has to be allocation- and
    # lookup-free.
    reg = _CountingRegistry()
    system = SimulatedSystem(venus_pair, CONFIGS["memory"], obs=reg)
    wired = reg.lookups
    assert wired > 0  # construction does resolve instruments
    result = system.run()
    assert result.events_run > 10_000  # a real run, not a trivial one
    assert reg.lookups == wired
