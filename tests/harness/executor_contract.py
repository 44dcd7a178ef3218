"""Cross-backend executor x result-cache conformance suite (reusable).

The contract both :class:`~repro.exec.executor.Executor` backends and
every cache arrangement must satisfy.  ``SweepRunner`` picks the backend
from its job count, so each backend is reached through the job count
that selects it (:data:`BACKEND_JOBS`):

* **Bit identity** -- for a fixed sweep, every backend produces the
  exact point keys and result digests of the serial, uncached ground
  truth.  The backend and the cache arrangement are execution details;
  neither may enter the key or perturb the simulation.
* **Cache interop** -- a cache directory populated by one backend must
  serve a warm re-run on the *other* backend entirely from cache:
  zero recomputations (``runner.simulated == 0``), every point flagged
  ``cached``, digests unchanged.

:func:`run_combo` checks one ``(executor, cache_mode)`` cell --
including the warm re-run on the other backend -- and
returns a report dict whose ``problems`` list is empty on conformance.
The pytest wrapper (``tests/exec/test_executor_contract.py``)
parameterizes over the full matrix; CI also runs the matrix standalone
with::

    python -m tests.harness.executor_contract [--artifacts DIR]

which exits nonzero on any violation and, when ``--artifacts`` is
given, writes one JSON report per failing cell.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.exec.cache import ResultCache
from repro.exec.runner import AppWorkloadSpec, SweepPointSpec, SweepRunner
from repro.obs.registry import MetricsRegistry, use_registry
from repro.sim.config import CacheConfig, SimConfig
from repro.util.units import MB

#: Cache arrangements the matrix crosses every backend with.
CACHE_MODES = ("none", "single")

#: Each backend, by the job count that makes the runner pick it (two
#: points and two jobs put the queue's two workers to use).
BACKEND_JOBS = {"serial": 1, "queue": 2}

SCALE = 0.05


def contract_points() -> list[SweepPointSpec]:
    """The canonical two-point sweep: two venus copies at 8 and 32 MB."""
    workload = AppWorkloadSpec(app="venus", scale=SCALE, n_copies=2)
    return [
        SweepPointSpec(
            workload=workload,
            config=SimConfig(cache=CacheConfig(size_bytes=mb * MB)),
            label=f"venus {mb}MB",
        )
        for mb in (8, 32)
    ]


def make_cache(mode: str, root: Path):
    """One cache arrangement rooted under ``root`` (None for mode 'none')."""
    if mode == "none":
        return None
    if mode == "single":
        return ResultCache(Path(root) / "single")
    raise ValueError(f"unknown cache mode {mode!r}")


_REFERENCE: list[tuple[str, str]] | None = None


def reference_outcomes() -> list[tuple[str, str]]:
    """Serial, uncached ground truth ``[(key, digest), ...]`` (memoized)."""
    global _REFERENCE
    if _REFERENCE is None:
        results = SweepRunner(jobs=1, cache=None).run(contract_points())
        _REFERENCE = [(r.key, r.result.digest()) for r in results]
    return _REFERENCE


def _outcomes(results) -> list[tuple[str, str]]:
    return [(r.key, r.result.digest()) for r in results]


def warm_executor_for(executor: str) -> str:
    """The backend the warm re-run uses: the other one.

    Warming on a *different* backend is the interop assertion -- a cache
    entry written under one backend must be served under the other.
    """
    names = list(BACKEND_JOBS)
    return names[(names.index(executor) + 1) % len(names)]


def run_combo(executor: str, cache_mode: str, root: Path) -> dict:
    """Check one matrix cell; report ``problems=[]`` on conformance."""
    root = Path(root)
    points = contract_points()
    reference = reference_outcomes()
    problems: list[str] = []

    # Both runs record into an enabled registry and the reference into
    # the process default (the null registry unless one is installed),
    # so observation must not move a digest either.
    cold_runner = SweepRunner(
        jobs=BACKEND_JOBS[executor], cache=make_cache(cache_mode, root)
    )
    with use_registry(MetricsRegistry()):
        cold = cold_runner.run(points)
    if _outcomes(cold) != reference:
        problems.append(
            f"cold run on {executor!r} diverged from the serial ground "
            f"truth: {_outcomes(cold)} != {reference}"
        )
    if cold_runner.simulated != len(points):
        problems.append(
            f"cold run simulated {cold_runner.simulated} of "
            f"{len(points)} points"
        )

    warm_exec = warm_executor_for(executor)
    # Fresh cache *objects* over the same directories: interop must not
    # depend on in-process state.
    warm_runner = SweepRunner(
        jobs=BACKEND_JOBS[warm_exec], cache=make_cache(cache_mode, root)
    )
    with use_registry(MetricsRegistry()):
        warm = warm_runner.run(points)
    if _outcomes(warm) != reference:
        problems.append(
            f"warm run on {warm_exec!r} diverged: "
            f"{_outcomes(warm)} != {reference}"
        )
    if cache_mode == "none":
        if warm_runner.simulated != len(points):
            problems.append(
                "uncached warm run must recompute every point, "
                f"simulated only {warm_runner.simulated}"
            )
    else:
        if warm_runner.simulated != 0:
            problems.append(
                f"warm run on a populated {cache_mode!r} cache recomputed "
                f"{warm_runner.simulated} point(s)"
            )
        if not all(r.cached for r in warm):
            problems.append("warm run left points unflagged as cached")
    return {
        "executor": executor,
        "warm_executor": warm_exec,
        "cache_mode": cache_mode,
        "cold": _outcomes(cold),
        "warm": _outcomes(warm),
        "problems": problems,
    }


def iter_matrix():
    for executor in BACKEND_JOBS:
        for cache_mode in CACHE_MODES:
            yield executor, cache_mode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--artifacts",
        type=Path,
        default=None,
        help="directory for per-failure JSON reports",
    )
    args = parser.parse_args(argv)
    failures = 0
    for executor, cache_mode in iter_matrix():
        with tempfile.TemporaryDirectory(prefix="contract-") as tmp:
            report = run_combo(executor, cache_mode, Path(tmp))
        ok = not report["problems"]
        status = "ok" if ok else "FAIL"
        print(
            f"{status:4} cold={executor:6} warm={report['warm_executor']:6} "
            f"cache={cache_mode}"
        )
        if not ok:
            failures += 1
            for problem in report["problems"]:
                print(f"     - {problem}")
            if args.artifacts is not None:
                args.artifacts.mkdir(parents=True, exist_ok=True)
                path = args.artifacts / f"{executor}-{cache_mode}.json"
                path.write_text(json.dumps(report, indent=2))
                print(f"     wrote {path}")
    n = len(BACKEND_JOBS) * len(CACHE_MODES)
    print(f"{n - failures}/{n} conformant")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
