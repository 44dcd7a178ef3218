"""Record the digests the benchmark checks its outputs against.

    python3 perfbench/record_digests.py --seeds 0-63 --jobs 2

Runs every workload once per seed (plus the repo's default seed) and
writes each operation's output digest to ``perfbench/digests.json``.
Re-record only after a change that is meant to alter simulation or
trace output; a performance change must leave every digest as it is.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench_tmp" / "record"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_one(workload_name: str, seed: int) -> tuple[str, int, dict]:
    import suite

    workload = suite.WORKLOADS[workload_name]
    with tempfile.TemporaryDirectory(dir=SCRATCH) as td:
        inputs = workload.setup(seed, Path(td))
        outcome = workload.check(inputs, workload.run(inputs))
    if outcome.failures:
        raise RuntimeError(f"{workload_name} seed {seed}: {outcome.failures}")
    return workload_name, seed, suite.digest_record(outcome)


def format_digests(digests: dict) -> str:
    """JSON with one line per (workload, seed), seeds in numeric order."""
    blocks = []
    for name in sorted(digests):
        rows = [
            f"    {json.dumps(str(seed))}: {json.dumps(digests[name][str(seed)], sort_keys=True)}"
            for seed in sorted(int(s) for s in digests[name])
        ]
        blocks.append(f"  {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n  }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    from repro.util.rng import DEFAULT_SEED

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-63")
    p.add_argument("--jobs", type=int, default=1)
    args = p.parse_args()
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_TRACE_CACHE"] = "off"
    SCRATCH.mkdir(parents=True, exist_ok=True)

    import suite

    seeds = sorted(set(parse_seeds(args.seeds)) | {DEFAULT_SEED})
    tasks = [(name, seed) for seed in seeds for name in suite.WORKLOADS]
    digests: dict = {name: {} for name in suite.WORKLOADS}
    try:
        with ProcessPoolExecutor(args.jobs, mp_context=get_context("spawn")) as pool:
            futures = [pool.submit(record_one, *task) for task in tasks]
            for future in futures:
                name, seed, record = future.result()
                digests[name][str(seed)] = record
                print(f"{name} seed {seed}: {len(record)} digests", flush=True)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        if not any(SCRATCH.parent.iterdir()):
            SCRATCH.parent.rmdir()
    suite.DIGESTS_PATH.write_text(format_digests(digests))
    print(f"wrote {suite.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
