"""Checks of the benchmark itself (not part of the program's test suite).

    python3 -m pytest perfbench/test_perfbench.py

Each test runs the benchmark as a subprocess with a short ``--seconds``,
so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Self times of the traced repetition (workloads.self_s is the traced
#: set-up pass, which runs before it).
REP_SELF_TIMES = [
    m["name"]
    for m in SPEC["per_layer"]
    if m["name"].endswith(".self_s") and m["name"] != "workloads.self_s"
]


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result(workload: str, trace: int, seed: int = 3) -> dict:
    proc = bench(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: [result(w, 1), result(w, 1)] for w in ("fig8_sweep", "trace_pipeline")}


def test_traced_digests_equal_untraced(traced):
    # The traced repetition is checked against the untraced ones: any
    # digest or count that differs is a failed operation.
    for runs in traced.values():
        for r in runs:
            assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0


def test_self_times_within_traced_wall(traced):
    for runs in traced.values():
        for r in runs:
            m = {k: v["value"] for k, v in r["metrics"].items()}
            assert sum(m[k] for k in REP_SELF_TIMES) <= m["trace.traced_wall_s"]
            assert m["trace.unattributed_s"] >= 0


def test_counts_repeat_exactly(traced):
    for runs in traced.values():
        first, second = ({k: v["value"] for k, v in r["metrics"].items()
                          if v["unit"] in ("count", "bytes")} for r in runs)
        assert first == second
        assert first["workloads.records"] > 0


def test_metric_names_and_units_match_the_spec(traced):
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name in [*per_layer, *end_to_end, *(w["name"] for w in SPEC["workloads"])]:
        assert NAME.fullmatch(name), name
    for runs in traced.values():
        assert {k: v["unit"] for k, v in runs[0]["metrics"].items()} == per_layer
    untraced = result("trace_pipeline", 0)
    assert untraced["correct"]
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} == end_to_end
    assert all(v["value"] > 0 for v in untraced["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("fig8_sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
