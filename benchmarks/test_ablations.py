"""Design-choice ablations DESIGN.md calls out.

* read-ahead on/off at a main-memory cache size;
* the per-process buffer-ownership cap ("did not relieve the problem,
  and actually worsened CPU utilization in several cases");
* block size 4 KB vs 8 KB (Figure 8's two curves);
* scheduler quantum sensitivity (the simulator parameter 6.1 exposes).

The parameter grids run through the shared session SweepRunner, so
``REPRO_JOBS`` parallelizes them.
"""

from conftest import BENCH_SCALES, once

from repro.exec.runner import AppWorkloadSpec, SweepPointSpec
from repro.sim import SimConfig, buffer_cap_ablation, readahead_ablation
from repro.sim.config import CacheConfig
from repro.util.units import KB, MB

SCALE = BENCH_SCALES["venus"]

TWO_VENUS = AppWorkloadSpec(app="venus", scale=SCALE, n_copies=2)


def _grid(runner, configs):
    """Run one SimConfig per key and return {key: SimulationResult}."""
    points = [
        SweepPointSpec(workload=TWO_VENUS, config=config, label=str(key))
        for key, config in configs.items()
    ]
    results = runner.run(points)
    return {key: r.result for key, r in zip(configs, results)}


def test_ablation_readahead(benchmark, sweep_runner):
    without, with_ra = once(
        benchmark,
        lambda: readahead_ablation(cache_mb=32, scale=SCALE, runner=sweep_runner),
    )
    print(
        f"\nread-ahead ablation (32 MB): idle {without.idle_seconds:.1f} s -> "
        f"{with_ra.idle_seconds:.1f} s"
    )
    # Prefetching the "amount just read" hides a large share of the
    # sequential read latency.
    assert with_ra.idle_seconds < 0.6 * without.idle_seconds
    assert with_ra.result.cache.readahead_hits > 0


def test_ablation_buffer_cap(benchmark, sweep_runner):
    uncapped, capped = once(
        benchmark,
        lambda: buffer_cap_ablation(cache_mb=32, scale=SCALE, runner=sweep_runner),
    )
    print(
        f"\nbuffer-cap ablation (32 MB): utilization "
        f"{uncapped.utilization:.1%} uncapped vs {capped.utilization:.1%} capped"
    )
    # The paper's negative result: capping ownership *hurts*.
    assert capped.utilization < uncapped.utilization
    assert capped.idle_seconds > uncapped.idle_seconds


def test_ablation_block_size(benchmark, sweep_runner):
    configs = {
        kb: SimConfig(cache=CacheConfig(size_bytes=32 * MB, block_bytes=kb * KB))
        for kb in (4, 8, 64)
    }
    results = once(benchmark, lambda: _grid(sweep_runner, configs))
    print()
    for kb, r in results.items():
        print(
            f"block {kb:3d}K: idle {r.idle_seconds:7.2f} s, "
            f"utilization {r.utilization:.1%}"
        )
    # venus's block-aligned 456 KB requests behave near-identically at
    # 4 KB and 8 KB (Figure 8's two curves nearly coincide).
    r4, r8 = results[4], results[8]
    assert abs(r4.idle_seconds - r8.idle_seconds) < 0.15 * max(
        r4.idle_seconds, 1.0
    )


def test_ablation_disk_count(benchmark, sweep_runner):
    # "the seeks required by interleaving accesses to six different data
    # files inserted extra delays" -- with all files on one spindle the
    # interleaving costs a seek per request; spread over many disks the
    # streams stay sequential.
    configs = {
        n_disks: SimConfig(cache=CacheConfig(size_bytes=32 * MB)).with_disk(
            n_disks=n_disks
        )
        for n_disks in (1, 4, 0)  # 0 = one disk per file
    }
    results = once(benchmark, lambda: _grid(sweep_runner, configs))
    print()
    for n, r in results.items():
        label = "per-file" if n == 0 else f"{n} shared"
        print(
            f"disks {label:9s}: idle {r.idle_seconds:7.2f} s, "
            f"sequential {r.disk_sequential_fraction:.1%}, "
            f"disk busy {r.disk_busy_seconds:7.1f} s"
        )
    # Fewer spindles -> less physical sequentiality -> more device time
    # spent positioning for the same bytes.
    assert (
        results[1].disk_sequential_fraction
        < results[4].disk_sequential_fraction
        <= results[0].disk_sequential_fraction + 1e-9
    )
    assert results[1].disk_busy_seconds > results[0].disk_busy_seconds
    # CPU idle does NOT simply track the extra seeks: randomized service
    # times *desynchronize* the two processes, countering the bunching
    # effect section 6.2 describes ("both programs would wait for I/O at
    # the same time ... both requests would finish at approximately the
    # same time, and the process would repeat"), so we only report it.


def test_ablation_quantum(benchmark, sweep_runner):
    configs = {
        quantum: SimConfig(cache=CacheConfig(size_bytes=128 * MB)).with_scheduler(
            quantum_s=quantum
        )
        for quantum in (0.005, 0.05, 0.5)
    }
    results = once(benchmark, lambda: _grid(sweep_runner, configs))
    print()
    for q, r in results.items():
        print(
            f"quantum {q * 1e3:6.1f} ms: idle {r.idle_seconds:6.2f} s, "
            f"utilization {r.utilization:.1%}"
        )
    # With a large cache, I/O waits are rare and the quantum barely
    # matters: utilization stays high across two orders of magnitude.
    for r in results.values():
        assert r.utilization > 0.95
