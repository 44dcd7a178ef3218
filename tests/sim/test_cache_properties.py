"""Property-based invariants of the buffer cache under random traffic."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cache import BufferCache
from repro.sim.config import CacheConfig, DiskConfig
from repro.sim.devices import DiskModel
from repro.sim.events import Engine
from repro.sim.metrics import Metrics
from repro.util.units import KB, MB

request_strategy = st.tuples(
    st.booleans(),  # write?
    st.integers(0, 3),  # file id
    st.integers(0, 255),  # offset in 4K blocks
    st.integers(1, 64),  # length in 4K blocks
)


@st.composite
def config_strategy(draw):
    return dict(
        size_bytes=draw(st.sampled_from([64 * KB, 256 * KB, 1 * MB, 8 * MB])),
        block_bytes=draw(st.sampled_from([4 * KB, 8 * KB])),
        read_ahead=draw(st.booleans()),
        write_behind=draw(st.booleans()),
        flush_delay_s=draw(st.sampled_from([0.0, 0.5])),
    )


@settings(max_examples=60, deadline=None)
@given(requests=st.lists(request_strategy, min_size=1, max_size=60), cfg=config_strategy())
def test_cache_invariants_under_random_traffic(requests, cfg):
    engine = Engine()
    metrics = Metrics()
    disk = DiskModel(DiskConfig(rotation_period_s=0.0), seed=0)
    file_sizes = {fid: 512 * 4 * KB for fid in range(4)}
    cache = BufferCache(
        CacheConfig(**cfg), engine, disk, metrics, file_sizes=file_sizes
    )
    completions = []

    n_reads = n_writes = 0
    for write, fid, off_blocks, len_blocks in requests:
        offset = off_blocks * 4 * KB
        length = len_blocks * 4 * KB
        if write:
            n_writes += 1
            cache.write(fid, offset, length, 1, lambda p=0.0: completions.append(1))
        else:
            n_reads += 1
            cache.read(fid, offset, length, 1, lambda p=0.0: completions.append(1))
        # Capacity invariant holds at every step.
        assert cache.resident_blocks <= cache.config.n_blocks

    engine.run(max_events=2_000_000)

    # Every request completed exactly once.
    assert len(completions) == len(requests)
    # All flushes drained.
    assert cache.outstanding_flushes == 0
    # Demand-block accounting balances.
    stats = metrics.cache
    assert (
        stats.block_hits + stats.block_misses + stats.block_inflight_hits
        == stats.block_requests
    )
    assert stats.read_requests == n_reads
    assert stats.write_requests == n_writes
    # Disk never saw more read traffic than (demand misses + prefetch).
    assert cache.resident_blocks <= cache.config.n_blocks


@settings(max_examples=30, deadline=None)
@given(
    requests=st.lists(request_strategy, min_size=1, max_size=40),
    cap=st.integers(4, 64),
)
def test_ownership_cap_never_exceeded_for_clean_caches(requests, cap):
    # With write-behind off and no read-ahead, every allocation is
    # demand-driven; the per-owner block count must respect the cap once
    # all I/O has drained (in-flight blocks are pinned and may briefly
    # exceed it only if a single request is larger than the cap).
    engine = Engine()
    metrics = Metrics()
    disk = DiskModel(DiskConfig(rotation_period_s=0.0), seed=0)
    cache = BufferCache(
        CacheConfig(
            size_bytes=8 * MB,
            read_ahead=False,
            write_behind=False,
            max_blocks_per_process=cap,
        ),
        engine,
        disk,
        metrics,
        file_sizes={fid: 512 * 4 * KB for fid in range(4)},
    )
    max_request_blocks = 0
    for write, fid, off_blocks, len_blocks in requests:
        max_request_blocks = max(max_request_blocks, len_blocks + 1)
        offset = off_blocks * 4 * KB
        length = len_blocks * 4 * KB
        if write:
            cache.write(fid, offset, length, 7, lambda p=0.0: None)
        else:
            cache.read(fid, offset, length, 7, lambda p=0.0: None)
    engine.run(max_events=2_000_000)
    assert cache.owner_blocks(7) <= max(cap, max_request_blocks)


def test_completion_counts_with_overlapping_inflight_reads():
    # Ten overlapping reads of the same region: one disk request, ten
    # completions.
    engine = Engine()
    metrics = Metrics()
    disk = DiskModel(DiskConfig(rotation_period_s=0.0), seed=0)
    cache = BufferCache(
        CacheConfig(size_bytes=1 * MB, read_ahead=False),
        engine,
        disk,
        metrics,
    )
    done = []
    for _ in range(10):
        cache.read(1, 0, 64 * KB, 1, lambda p=0.0: done.append(1))
    engine.run()
    assert len(done) == 10
    assert disk.requests == 1


def test_frame_starvation_resolves():
    # A cache of 8 blocks hammered with 32-block writes: every request
    # must park and still complete.
    engine = Engine()
    metrics = Metrics()
    disk = DiskModel(DiskConfig(rotation_period_s=0.0), seed=0)
    cache = BufferCache(
        CacheConfig(size_bytes=32 * KB, block_bytes=4 * KB, write_behind=True),
        engine,
        disk,
        metrics,
    )
    done = []
    for i in range(6):
        cache.write(1, i * 32 * KB, 32 * KB, 1, lambda p=0.0: done.append(1))
    engine.run(max_events=1_000_000)
    assert len(done) == 6
    assert cache.outstanding_flushes == 0
