"""Config checks: an out-of-range cache geometry or CPU count is a
``ValueError`` where the config is built, never a late failure."""

import pytest

from repro.sim.config import CacheConfig, SchedulerConfig, SimConfig, ssd_cache
from repro.util.units import KB, MB


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda: CacheConfig(block_bytes=0), "block_bytes must be > 0: 0"),
        (lambda: CacheConfig(block_bytes=-4 * KB), "block_bytes must be > 0: -4096"),
        (lambda: CacheConfig(size_bytes=0), "size_bytes must be >= block_bytes"),
        (lambda: CacheConfig(size_bytes=-4 * MB), r"\(4096\): -4194304"),
        (lambda: CacheConfig(size_bytes=2 * KB), r"\(4096\): 2048"),
        (lambda: ssd_cache(16 * KB), r"\(32768\): 16384"),
        (lambda: SimConfig().with_cache(block_bytes=0), "block_bytes must be > 0"),
        (lambda: SchedulerConfig(n_cpus=0), "n_cpus must be >= 1: 0"),
        (lambda: SimConfig().with_scheduler(n_cpus=-2), "n_cpus must be >= 1: -2"),
    ],
    ids=[
        "block-0", "block-neg", "size-0", "size-neg", "size-below-block",
        "ssd-below-block", "with-cache", "cpus-0", "with-scheduler",
    ],
)
def test_out_of_range_config_rejected(build, named):
    with pytest.raises(ValueError, match=named):
        build()
