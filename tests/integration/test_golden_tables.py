"""Golden regression tests: Table 1/2 numbers and the Fig-8 curve.

Each test renders the paper artifact at a fixed seed/scale, rounds every
float to 9 significant digits (well above any legitimate modelling
signal, well below repr noise) and compares against a committed JSON
fixture.  A diff here means the *reproduction's numbers changed* -- a
much sharper signal than the shape assertions elsewhere.

To regenerate after an intentional model change::

    PYTHONPATH=src python -m pytest tests/integration/test_golden_tables.py \\
        --update-golden

The rows digest of the full quick Fig-8 grid is pinned inline instead,
and ``--update-golden`` never rewrites it.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.analysis.summary import summarize_table1, summarize_table2
from repro.sim.experiments import cache_size_sweep
from repro.util.rng import DEFAULT_SEED
from repro.workloads import APP_NAMES, generate_workload

GOLDEN_DIR = Path(__file__).parent / "golden"
SCALE = 0.1
SEED = DEFAULT_SEED


def rounded(value):
    """Round all floats to 9 significant digits, recursively."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {k: rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [rounded(v) for v in value]
    return value


def check_golden(name: str, payload: dict, update: bool) -> None:
    path = GOLDEN_DIR / f"{name}.json"
    payload = rounded(payload)
    if update:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"golden fixture {path} missing; run with --update-golden to create it"
    )
    golden = json.loads(path.read_text())
    assert payload == golden, (
        f"{name} diverged from the golden fixture; if the change is "
        f"intentional, regenerate with --update-golden and commit the diff"
    )


def test_table1_golden(update_golden):
    rows = {}
    for name in APP_NAMES:
        w = generate_workload(name, scale=SCALE, seed=SEED)
        rows[name] = dataclasses.asdict(summarize_table1(w))
    check_golden(
        "table1", {"seed": SEED, "scale": SCALE, "rows": rows}, update_golden
    )


def test_table2_golden(update_golden):
    rows = {}
    for name in APP_NAMES:
        w = generate_workload(name, scale=SCALE, seed=SEED)
        rows[name] = dataclasses.asdict(summarize_table2(w))
    check_golden(
        "table2", {"seed": SEED, "scale": SCALE, "rows": rows}, update_golden
    )


def test_fig8_curve_golden(update_golden):
    # A three-point slice of the Figure 8 grid: small enough to simulate
    # in seconds, enough to pin the utilization curve's level and shape.
    points = cache_size_sweep(
        cache_sizes_mb=(8, 32, 128),
        block_sizes_kb=(4,),
        scale=0.05,
        seed=SEED,
        jobs=1,
    )
    curve = [dataclasses.asdict(p) for p in points]
    check_golden(
        "fig8_curve",
        {"seed": SEED, "scale": 0.05, "points": curve},
        update_golden,
    )


def test_fig8_rows_digest_fixed_point():
    # The whole quick Figure 8 grid (14 points), digested as perfbench's
    # ``fig8_rows_digest`` does: the fixed point a behaviour-preserving
    # change must hold.
    points = cache_size_sweep(scale=0.05, seed=SEED, jobs=1)
    rows = [(p.cache_mb, p.block_kb, p.idle_seconds, p.hit_fraction) for p in points]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest[:16] == "34f8938cf206aa41"
