#!/usr/bin/env python
"""The venus buffering study: Figures 6, 7 and 8 in one script.

Generates the venus workload, replays two non-sharing copies on one CPU,
and reproduces:

* Figure 6 -- disk traffic over wall time with a 32 MB main-memory cache
  (the bursts are *not* smoothed out, for the reasons section 6.2 gives);
* Figure 7 -- the same with a 128 MB SSD-class cache (reads absorbed,
  writes still bursty);
* Figure 8 -- idle time versus cache size for 4 KB and 8 KB blocks.

The Figure 8 sweep fans out over worker processes: pass a worker count as
the second argument (or set ``REPRO_JOBS``); the numbers are identical
at any worker count.

Run:  python examples/venus_buffering_study.py [scale] [jobs]
"""

import sys

from repro.sim import (
    cache_size_sweep,
    no_idle_execution_seconds,
    run_two_venus,
)
from repro.util.asciiplot import ascii_bar_plot, ascii_line_plot


def show_traffic(title: str, run) -> None:
    rate = run.result.disk_rate
    print(
        ascii_line_plot(
            rate.times,
            rate.rates,
            width=76,
            height=12,
            title=title,
            x_label="wall time (s)",
            y_label="MB/s to disk",
        )
    )
    r = run.result
    print(
        f"idle {r.idle_seconds:.2f} s | utilization {r.utilization:.1%} | "
        f"cache hits {r.cache.hit_fraction:.0%} | disk: "
        f"read {r.disk_read_rate.total:.0f} MB, write {r.disk_write_rate.total:.0f} MB\n"
    )


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.1
    jobs = int(sys.argv[2]) if len(sys.argv) > 2 else None

    fig6 = run_two_venus(cache_mb=32, scale=scale)
    show_traffic("Figure 6: 2 x venus, 32 MB main-memory cache", fig6)

    fig7 = run_two_venus(cache_mb=128, ssd=True, scale=scale)
    show_traffic("Figure 7: 2 x venus, 128 MB SSD cache", fig7)

    print("Figure 8: idle time vs cache size")
    base = no_idle_execution_seconds(scale)
    print(f"(execution time would be {base:.0f} s if there were no idle time)\n")
    points = cache_size_sweep(scale=scale, jobs=jobs)
    for block_kb in (4, 8):
        sub = [p for p in points if p.block_kb == block_kb]
        print(
            ascii_bar_plot(
                [f"{p.cache_mb:g}MB" for p in sub],
                [p.idle_seconds for p in sub],
                title=f"idle seconds, {block_kb}K cache blocks",
            )
        )
        print()


if __name__ == "__main__":
    main()
