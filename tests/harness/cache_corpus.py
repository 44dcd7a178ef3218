"""A recorded digest corpus for the buffer cache.

:func:`build_case` turns a seed into a small random simulation: 1-3
processes over up to 3 shared files, sequential runs broken by jumps,
offsets and lengths that need not be block-aligned, some asynchronous
records, and a cache of 64 KB-1 MB with 4 or 8 KB blocks under a random
mix of read-ahead (off, or depth auto/2/4), write-behind (off, or on
with a flush delay of 0 or 0.5 s), ownership cap (none, 8 or 24 blocks)
and fault plan (none, transient errors plus slow I/O, or retry
exhaustion).  Every draw goes through ``random.Random(seed).random()``,
the one stream Python guarantees across versions, so a case rebuilds
identically on every supported interpreter.

The fixture next to this module holds the first 16 hex digits of
``SimulationResult.digest()`` for seeds ``0..N-1``.  It is the cache's
behavioural contract: any implementation must reproduce every digest.
Check or re-record it with::

    python -m tests.harness.cache_corpus
    python -m tests.harness.cache_corpus --record

Re-record only when a change is *meant* to alter the simulation.  The
whole-simulator corpus (:mod:`tests.harness.system_corpus`) reuses this
module's trace generator (:func:`draw_traces`), fixture I/O and CLI
(:func:`corpus_main`).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.sim.config import CacheConfig, SimConfig
from repro.sim.faults import FaultPlan
from repro.sim.system import SimulatedSystem
from repro.trace import flags as F
from repro.trace.array import TraceArray
from repro.util.units import KB

FIXTURE = Path(__file__).with_name("cache_corpus.json")
N_CASES = 1000

#: Fault plans by name; ``{seed}`` is the case seed.
FAULT_SPECS = {
    "none": None,
    "transient": "error=0.05,slow=0.1,seed={seed}",
    "exhaust": "error=0.3,seed={seed},max_retries=1,max_reflushes=1",
}


def pick(u, options):
    """One of ``options``, chosen by a single draw from ``u``."""
    return options[int(u() * len(options))]


def build_case(seed: int) -> tuple[list[TraceArray], SimConfig]:
    """The traces (one per process) and config of corpus case ``seed``."""
    u = random.Random(seed).random
    block = pick(u, (4 * KB, 8 * KB))
    write_behind = u() < 0.7
    cache = CacheConfig(
        size_bytes=pick(u, (64, 128, 256, 512, 1024)) * KB,
        block_bytes=block,
        read_ahead=u() < 0.6,
        read_ahead_depth=pick(u, (None, 2, 4)),
        write_behind=write_behind,
        flush_delay_s=pick(u, (0.0, 0.5)) if write_behind else 0.0,
        max_blocks_per_process=pick(u, (None, None, 8, 24)),
    )
    config = SimConfig(cache=cache, seed=seed)
    spec = FAULT_SPECS[pick(u, ("none", "none", "transient", "exhaust"))]
    if spec is not None:
        config = FaultPlan.from_spec(spec.format(seed=seed)).apply(config)
    return draw_traces(u, block), config


def draw_traces(u, block: int) -> list[TraceArray]:
    """1-3 process traces over 1-3 shared files, drawn from ``u``.

    Each file spans 16, 32 or 64 blocks; each process issues 10-39
    records in sequential runs broken by jumps, with request sizes that
    need not be block-aligned and some asynchronous records.
    """
    n_files = 1 + int(u() * 3)
    extent = [pick(u, (16, 32, 64)) * block for _ in range(n_files)]
    traces = []
    for pid in range(1, 2 + int(u() * 3)):
        cols: dict[str, list[int]] = {
            "record_type": [], "file_id": [], "offset": [], "length": [],
            "process_clock": [],
        }
        cursor = [0] * n_files
        fid = int(u() * n_files)
        length = block
        write = u() < 0.4
        clock = 0
        for _ in range(10 + int(u() * 30)):
            if u() < 0.15:
                fid = int(u() * n_files)
            if u() < 0.2:
                # A jump: anywhere in the file, block-aligned half the time.
                cursor[fid] = int(u() * extent[fid])
                if u() < 0.5:
                    cursor[fid] -= cursor[fid] % block
            if u() < 0.25:
                if u() < 0.5:
                    length = (1 + int(u() * 12)) * block
                else:
                    length = 1 + int(u() * 12 * block)
            if u() < 0.15:
                write = not write
            record_type = F.TRACE_LOGICAL_RECORD
            if write:
                record_type |= F.TRACE_WRITE
            if u() < 0.1:
                record_type |= F.TRACE_ASYNC
            clock += int(u() * 300)
            cols["record_type"].append(record_type)
            cols["file_id"].append(fid + 1)
            cols["offset"].append(cursor[fid])
            cols["length"].append(length)
            cols["process_clock"].append(clock)
            cursor[fid] += length
        traces.append(
            TraceArray.from_columns(
                process_id=[pid] * len(cols["offset"]), **cols
            )
        )
    return traces


@dataclass(frozen=True)
class CaseOutcome:
    """What one case produced: its digest prefix plus coverage fields."""

    seed: int
    digest: str
    capped: bool
    frame_stalls: int
    reflushes: int
    lost_bytes: int


def run_case(seed: int) -> CaseOutcome:
    """Simulate case ``seed``; an exception becomes the digest text, so a
    crashing case is reported like any other mismatch."""
    traces, config = build_case(seed)
    try:
        result = SimulatedSystem(traces, config).run()
    except Exception as exc:  # reported as a mismatch, not swallowed
        return CaseOutcome(seed, f"raised {type(exc).__name__}: {exc}",
                           False, 0, 0, 0)
    return CaseOutcome(
        seed=seed,
        digest=result.digest()[:16],
        capped=config.cache.max_blocks_per_process is not None,
        frame_stalls=result.cache.frame_stalls,
        reflushes=result.faults.reflushes,
        lost_bytes=result.faults.lost_bytes,
    )


def run_corpus() -> list[CaseOutcome]:
    return [run_case(seed) for seed in range(N_CASES)]


def load_fixture(path: Path = FIXTURE) -> list[str]:
    return json.loads(path.read_text())["digests"]


def mismatches(outcomes, recorded: list[str]) -> list[str]:
    """One line per case whose digest differs from the recorded one.

    ``outcomes`` are any records with ``seed`` and ``digest`` fields.
    """
    return [
        f"seed {o.seed}: {o.digest} != recorded {recorded[o.seed]}"
        for o in outcomes
        if o.digest != recorded[o.seed]
    ]


def corpus_main(
    argv: list[str] | None,
    *,
    run: Callable[[], list],
    fixture: Path,
    about: str,
    description: str,
) -> int:
    """Check every case of a corpus against ``fixture``, or re-record it.

    ``run`` simulates the corpus and returns outcomes with ``seed`` and
    ``digest`` fields; ``about`` is stored in the fixture to say what the
    digests are of.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--record", action="store_true",
        help=f"run every case and rewrite {fixture.name}",
    )
    args = parser.parse_args(argv)
    outcomes = run()
    if args.record:
        payload = {"about": about, "digests": [o.digest for o in outcomes]}
        fixture.write_text(json.dumps(payload, indent=0) + "\n")
        print(f"recorded {len(outcomes)} digests to {fixture}")
        return 0
    bad = mismatches(outcomes, load_fixture(fixture))
    for line in bad:
        print(line)
    print(f"{len(outcomes) - len(bad)}/{len(outcomes)} cases match")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    return corpus_main(
        argv,
        run=run_corpus,
        fixture=FIXTURE,
        about="SimulationResult.digest()[:16] of "
              "tests.harness.cache_corpus.build_case(seed), by seed",
        description="Check (or re-record) the buffer-cache digest corpus.",
    )


if __name__ == "__main__":
    sys.exit(main())
