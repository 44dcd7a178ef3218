"""Section-6 experiment harness: the claims at test scale.

These run the real pipeline (generate venus -> simulate) at small scale,
so they assert *shape*: orderings and large ratios, not absolute numbers.
"""

import pytest

from repro.sim import (
    buffer_cap_ablation,
    cache_size_sweep,
    no_idle_execution_seconds,
    readahead_ablation,
    relabel_copies,
    run_two_venus,
    ssd_utilization_per_app,
    writebehind_ablation,
)
from repro.workloads import generate_workload

SCALE = 0.1


@pytest.fixture(scope="module")
def sweep():
    return cache_size_sweep(
        cache_sizes_mb=(4, 32, 128), block_sizes_kb=(4,), scale=SCALE
    )


class TestCacheSizeSweep:
    def test_idle_decreases_with_cache_size(self, sweep):
        idles = [p.idle_seconds for p in sweep]
        assert idles[0] > idles[1] > idles[2]

    def test_large_cache_near_full_utilization(self, sweep):
        # Figure 8: idle ~0 once both data sets fit (128 MB and up).
        assert sweep[-1].utilization > 0.97
        assert sweep[-1].idle_seconds < 0.05 * no_idle_execution_seconds(SCALE)

    def test_small_cache_substantial_idle(self, sweep):
        base = no_idle_execution_seconds(SCALE)
        assert sweep[0].idle_seconds > 0.5 * base

    def test_hit_fraction_grows(self, sweep):
        hits = [p.hit_fraction for p in sweep]
        assert hits[0] < hits[1] < hits[2]


class TestWriteBehind:
    def test_write_behind_slashes_idle(self):
        without, with_wb = writebehind_ablation(scale=SCALE)
        # Paper: 211 s -> 1 s. Demand at least an order of magnitude.
        assert without.idle_seconds > 10 * max(with_wb.idle_seconds, 0.1)
        assert with_wb.utilization > without.utilization


class TestReadAhead:
    def test_read_ahead_helps_at_memory_sizes(self):
        without, with_ra = readahead_ablation(cache_mb=32, scale=SCALE)
        assert with_ra.idle_seconds < 0.6 * without.idle_seconds


class TestBufferCap:
    def test_cap_worsens_utilization(self):
        # Section 6.2: the cap "did not relieve the problem, and actually
        # worsened CPU utilization in several cases."
        uncapped, capped = buffer_cap_ablation(cache_mb=32, scale=SCALE)
        assert capped.utilization < uncapped.utilization


class TestSSD:
    def test_all_apps_high_utilization(self):
        runs = ssd_utilization_per_app(
            scales={
                "bvi": 0.03,
                "forma": 0.06,
                "ccm": 0.1,
                "gcm": 0.1,
                "les": 0.15,
                "venus": 0.1,
                "upw": 0.1,
            }
        )
        assert len(runs) == 7
        utils = {r.name: r.utilization for r in runs}
        # "all but one ... nearly completely utilized" -- demand >= 6 of
        # 7 above 97%, and everyone above 90%.
        high = [u for u in utils.values() if u > 0.97]
        assert len(high) >= 6
        assert min(utils.values()) > 0.90

    def test_ssd_beats_small_memory_cache(self):
        mem = run_two_venus(cache_mb=8, scale=SCALE, ssd=False)
        ssd = run_two_venus(cache_mb=256, scale=SCALE, ssd=True)
        assert ssd.utilization > mem.utilization
        assert ssd.idle_seconds < 0.2 * mem.idle_seconds


class TestTwoCopies:
    def test_copies_do_not_share_files(self):
        venus = generate_workload("venus", scale=SCALE)
        a, b = relabel_copies(venus.trace, 2)
        assert set(a.file_id.tolist()).isdisjoint(set(b.file_id.tolist()))
        assert set(a.process_ids().tolist()) != set(b.process_ids().tolist())
