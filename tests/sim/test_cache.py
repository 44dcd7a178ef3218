"""Buffer cache unit tests: hits, misses, read-ahead, write-behind, frames."""

import pytest

from repro.sim.cache import _VALID, BufferCache
from repro.sim.config import CacheConfig, DiskConfig, SimConfig, ssd_cache
from repro.sim.devices import DiskModel
from repro.sim.events import Engine
from repro.sim.metrics import Metrics
from repro.sim.system import SimulatedSystem
from repro.trace.array import TraceArray
from repro.util.units import KB, MB


class Harness:
    """A cache wired to an engine and a rotation-free disk."""

    def __init__(self, **cache_kw):
        file_sizes = cache_kw.pop("file_sizes", {1: 64 * MB, 2: 64 * MB})
        self.engine = Engine()
        self.metrics = Metrics()
        self.disk = DiskModel(DiskConfig(rotation_period_s=0.0), seed=0)
        if cache_kw.pop("ssd", False):
            config = ssd_cache(cache_kw.pop("size_bytes", 1 * MB), **cache_kw)
        else:
            cache_kw.setdefault("size_bytes", 1 * MB)
            cache_kw.setdefault("block_bytes", 4 * KB)
            config = CacheConfig(**cache_kw)
        self.cache = BufferCache(
            config, self.engine, self.disk, self.metrics, file_sizes=file_sizes
        )
        self.completions: list[float] = []

    def read(self, offset, length, fid=1, owner=1):
        self.cache.read(fid, offset, length, owner, self._done)

    def write(self, offset, length, fid=1, owner=1):
        self.cache.write(fid, offset, length, owner, self._done)

    def _done(self, penalty=0.0):
        self.completions.append(self.engine.now + penalty)

    def run(self):
        self.engine.run(max_events=100_000)


class TestReadPath:
    def test_cold_miss_then_hit(self):
        h = Harness(read_ahead=False)
        h.read(0, 16 * KB)
        h.run()
        assert len(h.completions) == 1
        assert h.completions[0] > 0  # waited for the disk
        assert h.metrics.cache.block_misses == 4
        h.read(0, 16 * KB)  # now resident
        assert len(h.completions) == 2  # completed inline
        assert h.metrics.cache.block_hits == 4

    def test_partial_hit_issues_only_missing_run(self):
        h = Harness(read_ahead=False)
        h.read(0, 8 * KB)
        h.run()
        before = h.disk.requests
        h.read(0, 16 * KB)  # blocks 0-1 resident, 2-3 missing
        h.run()
        assert h.disk.requests == before + 1
        assert h.metrics.cache.block_misses == 2 + 2

    def test_inflight_coalescing(self):
        # Two concurrent reads of the same blocks: one disk request.
        h = Harness(read_ahead=False)
        h.read(0, 16 * KB)
        h.read(0, 16 * KB)
        h.run()
        assert h.disk.requests == 1
        assert len(h.completions) == 2
        assert h.metrics.cache.block_inflight_hits == 4

    def test_rejects_nonpositive(self):
        h = Harness()
        with pytest.raises(Exception):
            h.read(0, 0)


class TestWritePath:
    def test_write_behind_completes_inline(self):
        h = Harness(write_behind=True)
        h.write(0, 64 * KB)
        # absorbed before any event ran
        assert len(h.completions) == 1
        assert h.metrics.cache.writes_absorbed == 1
        assert h.cache.outstanding_flushes == 1
        h.run()
        assert h.cache.outstanding_flushes == 0

    def test_write_through_waits_for_disk(self):
        h = Harness(write_behind=False)
        h.write(0, 64 * KB)
        assert len(h.completions) == 0
        h.run()
        assert len(h.completions) == 1
        assert h.completions[0] > 0

    def test_written_blocks_readable_after_flush(self):
        h = Harness(write_behind=True, read_ahead=False)
        h.write(0, 16 * KB)
        h.run()
        misses_before = h.metrics.cache.block_misses
        h.read(0, 16 * KB)
        assert h.metrics.cache.block_misses == misses_before
        assert len(h.completions) == 2

    def test_write_that_evicts_its_own_block_settles_only_live_blocks(self):
        # The write of file 1's blocks 10-17 gets its frames by evicting
        # block 12 (clean, inside its own span), and a read of blocks 10-14
        # brings block 12 back before the write completes.  The completion
        # must settle only the write's live blocks; settling the dead
        # block 12 too once put a phantom on the clean LRU under the live
        # block's key.
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
        result = SimulatedSystem([trace], config).run()
        assert result.digest()[:16] == "396556c3182f546b"


class TestReadAhead:
    def test_sequential_pattern_triggers_prefetch(self):
        h = Harness(read_ahead=True, size_bytes=8 * MB)
        h.read(0, 64 * KB)
        h.run()
        assert h.metrics.cache.prefetch_issued == 0  # first read: no pattern
        h.read(64 * KB, 64 * KB)  # sequential: prefetcher wakes
        h.run()
        assert h.metrics.cache.prefetch_issued > 0
        # The next sequential read is already resident.
        before = h.metrics.cache.readahead_hits
        h.read(128 * KB, 64 * KB)
        assert h.metrics.cache.readahead_hits > before

    def test_random_pattern_no_prefetch(self):
        h = Harness(read_ahead=True)
        h.read(0, 16 * KB)
        h.run()
        h.read(10 * MB, 16 * KB)
        h.run()
        h.read(3 * MB, 16 * KB)
        h.run()
        assert h.metrics.cache.prefetch_issued == 0

    def test_prefetch_stops_at_eof(self):
        h = Harness(read_ahead=True, file_sizes={1: 128 * KB})
        h.read(0, 64 * KB)
        h.run()
        h.read(64 * KB, 64 * KB)  # sequential, but file ends here
        h.run()
        assert h.metrics.cache.prefetch_issued == 0

    def test_disabled(self):
        h = Harness(read_ahead=False)
        h.read(0, 64 * KB)
        h.run()
        h.read(64 * KB, 64 * KB)
        h.run()
        assert h.metrics.cache.prefetch_issued == 0

    def test_auto_depth_grows_with_cache(self):
        small = CacheConfig(size_bytes=1 * MB)
        large = CacheConfig(size_bytes=64 * MB)
        assert small.auto_depth(456 * KB) == 1
        assert large.auto_depth(456 * KB) > small.auto_depth(456 * KB)
        fixed = CacheConfig(read_ahead_depth=3)
        assert fixed.auto_depth(456 * KB) == 3


class TestFrames:
    def test_lru_eviction(self):
        # Cache of 16 blocks (64 KB): read 32 KB, then another 48 KB; the
        # oldest blocks must be evicted.
        h = Harness(size_bytes=64 * KB, read_ahead=False)
        h.read(0, 32 * KB)
        h.run()
        h.read(32 * KB, 48 * KB)
        h.run()
        assert h.cache.resident_blocks <= 16
        # Re-reading block 0 misses again (evicted).
        misses = h.metrics.cache.block_misses
        h.read(0, 4 * KB)
        h.run()
        assert h.metrics.cache.block_misses == misses + 1

    def test_frame_stall_when_all_dirty(self):
        # Tiny cache, write-behind: a burst of writes can exceed the
        # frames; later writes park until flushes land.
        h = Harness(size_bytes=32 * KB, write_behind=True, read_ahead=False)
        for i in range(4):
            h.write(i * 32 * KB, 32 * KB)
        assert h.metrics.cache.frame_stalls > 0
        h.run()
        assert len(h.completions) == 4  # everyone completed eventually

    def test_ownership_cap(self):
        h = Harness(
            size_bytes=1 * MB, read_ahead=False, max_blocks_per_process=8
        )
        h.read(0, 32 * KB, owner=1)  # 8 blocks: at cap
        h.run()
        h.read(64 * KB, 32 * KB, owner=1)  # must recycle its own
        h.run()
        assert h.cache.owner_blocks(1) <= 8
        # another process is unaffected
        h.read(0, 32 * KB, fid=2, owner=2)
        h.run()
        assert h.cache.owner_blocks(2) == 8

    def test_hit_and_miss_counts_balance(self):
        h = Harness(read_ahead=False)
        h.read(0, 40 * KB)
        h.run()
        h.read(20 * KB, 40 * KB)
        h.run()
        stats = h.metrics.cache
        # 40 KB spans 10 blocks; the second read overlaps 5 of them.
        assert stats.block_requests == 20
        assert stats.block_hits == 5
        assert stats.block_misses == 15
        assert stats.block_hits + stats.block_misses + stats.block_inflight_hits == (
            stats.block_requests
        )


class TestShortSpans:
    def test_one_block_hit_splits_a_two_block_clean_run(self):
        # Cache of 4 blocks.  Blocks 0-1 of file 1 arrive as one clean
        # run, then block 0 of file 2 as another.  A 1-block hit on file
        # 1's block 1 must split it off to the MRU end, leaving block 0
        # in the oldest slot: LRU order is f1b0, f2b0, f1b1.  Relinking
        # the whole run instead would make f2b0 the next victim.
        h = Harness(size_bytes=16 * KB, read_ahead=False)
        h.read(0, 8 * KB)
        h.run()
        h.read(0, 4 * KB, fid=2)
        h.run()
        frames = h.cache._files[1]
        assert frames.nid[0] == frames.nid[1]  # one clean run
        h.read(4 * KB, 4 * KB)  # all-clean short hit on block 1 alone
        assert frames.nid[0] != frames.nid[1]
        # Two new blocks with one frame free: exactly one eviction.
        h.read(8 * KB, 8 * KB, fid=2)
        h.run()
        assert frames.st[0] == 0  # f1b0 was the LRU victim
        misses = h.metrics.cache.block_misses
        h.read(4 * KB, 4 * KB)  # f1b1 still resident
        h.read(0, 4 * KB, fid=2)  # f2b0 still resident
        assert h.metrics.cache.block_misses == misses

    def test_middle_hit_leaves_both_remainders_in_the_node_slot(self):
        # Cache of 4 blocks.  Blocks 0-2 of file 1 arrive as one clean
        # run, then block 0 of file 2.  A hit on f1b1 cuts the middle out
        # of the run: LRU order becomes f1b0, f1b2, f2b0, f1b1.  Linking
        # the right remainder f1b2 at the MRU end instead would make
        # f2b0 the second victim.
        h = Harness(size_bytes=16 * KB, read_ahead=False)
        h.read(0, 12 * KB)
        h.run()
        h.read(0, 4 * KB, fid=2)
        h.run()
        h.read(4 * KB, 4 * KB)
        h.read(16 * KB, 8 * KB, fid=2)  # two frames needed, none free
        h.run()
        frames = h.cache._files[1]
        assert list(frames.st[:3]) == [0, _VALID, 0]
        assert h.cache._files[2].st[0] == _VALID

    def test_grow_keeps_buffers_and_views_aliased(self):
        from repro.sim.cache import _FileFrames

        frames = _FileFrames(4)
        frames.st_buf[1] = 3
        frames.nid[2] = 7
        frames.gen[3] = 5
        frames.grow(10)
        for name in ("st", "gen", "nid"):
            buf, view = getattr(frames, name + "_buf"), getattr(frames, name)
            assert view.size == len(buf) == 10, name
            # Writes through the buffer show in the view and vice versa.
            buf[9] = 1
            assert view[9] == 1, name
            view[8] = 0
            assert buf[8] == 0, name
        assert len(frames.pf_buf) == 10
        assert frames.own.size == len(frames.gen) == 10
        # Contents survive the grow; new frames are absent, on no node.
        assert frames.st[1] == 3 and frames.nid_buf[2] == 7 and frames.gen[3] == 5
        assert list(frames.nid_buf[4:8]) == [-1] * 4
        assert list(frames.gen_buf[4:8]) == [0] * 4


class TestSSDPenalties:
    def test_hit_penalty_returned(self):
        h = Harness(ssd=True, size_bytes=4 * MB)
        h.read(0, 64 * KB)
        h.run()
        h.completions.clear()
        h.read(0, 64 * KB)  # resident: inline, with penalty
        assert len(h.completions) == 1
        penalty = h.completions[0] - h.engine.now
        assert penalty == pytest.approx(50e-6 + 64 * 1e-6)

    def test_mem_cache_penalty_zero(self):
        config = CacheConfig()
        assert config.hit_penalty_s(456 * KB) == 0.0
        ssd = ssd_cache(256 * MB)
        assert ssd.hit_penalty_s(456 * KB) == pytest.approx(50e-6 + 456e-6)
