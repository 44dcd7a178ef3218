"""The `repro bench` harness: payload shape and regression verdicts."""

import json

import pytest

from repro.bench import (
    SCHEMA,
    bench_cache,
    bench_decode,
    bench_engine,
    compare_to_baseline,
    load_baseline,
    render_table,
    write_payload,
)


def _payload(quick=True, **values):
    return {
        "schema": SCHEMA,
        "quick": quick,
        "benchmarks": {
            name: {
                "value": value,
                "unit": "events/s" if higher else "s",
                "wall_s": 0.1,
                "higher_is_better": higher,
                "detail": {},
            }
            for name, (value, higher) in values.items()
        },
    }


def test_engine_bench_counts_every_event():
    r = bench_engine(n_events=2_000, chains=2)
    assert r.unit == "events/s"
    assert r.value > 0
    assert r.detail["events_run"] == 2_000


def test_cache_bench_runs_to_completion():
    r = bench_cache(n_requests=500)
    assert r.unit == "ops/s"
    assert r.value > 0
    assert 0.0 <= r.detail["hit_fraction"] <= 1.0


def test_decode_bench_reports_bandwidth():
    r = bench_decode(scale=0.02, min_mb=0.01)
    assert r.unit == "MB/s"
    assert r.value > 0
    assert r.detail["records"] > 0


def test_compare_flags_throughput_drop():
    baseline = _payload(engine=(1000.0, True))
    ok = compare_to_baseline(_payload(engine=(800.0, True)), baseline)
    assert ok == []
    bad = compare_to_baseline(_payload(engine=(700.0, True)), baseline)
    assert len(bad) == 1 and "engine" in bad[0]


def test_compare_flags_wallclock_growth():
    baseline = _payload(fig8=(10.0, False))
    assert compare_to_baseline(_payload(fig8=(12.0, False)), baseline) == []
    bad = compare_to_baseline(_payload(fig8=(13.0, False)), baseline)
    assert len(bad) == 1 and "fig8" in bad[0]


def test_compare_skips_unknown_benchmarks():
    baseline = _payload(engine=(1000.0, True))
    fresh = _payload(engine=(1000.0, True), brandnew=(1.0, True))
    assert compare_to_baseline(fresh, baseline) == []


def test_compare_refuses_cross_mode():
    with pytest.raises(ValueError, match="quick"):
        compare_to_baseline(
            _payload(quick=True), _payload(quick=False)
        )


def test_payload_roundtrip(tmp_path):
    payload = _payload(engine=(1000.0, True))
    path = write_payload(payload, tmp_path / "BENCH_sim.json")
    assert load_baseline(path) == payload
    assert json.loads(path.read_text())["schema"] == SCHEMA


def test_render_table_mentions_every_benchmark():
    table = render_table(_payload(engine=(1000.0, True), fig8=(9.0, False)))
    assert "engine" in table and "fig8" in table


def test_render_table_shows_the_sweep_digest():
    payload = _payload(fig8=(9.0, False))
    payload["benchmarks"]["fig8"]["detail"] = {"digest": "34f8938cf206aa41"}
    assert "digest=34f8938cf206aa41" in render_table(payload)


def test_committed_baseline_is_loadable():
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    baseline = load_baseline(root / "benchmarks" / "perf" / "baseline.json")
    assert baseline["schema"] == SCHEMA
    assert baseline["quick"] is True
    assert set(baseline["benchmarks"]) == {
        "engine",
        "cache",
        "decode",
        "store",
        "fig8",
        "fig8_warm",
    }


def test_store_bench_pins_trace_cache_cold(monkeypatch, tmp_path):
    # Regression: the store section used to measure the bundle load with
    # whatever $REPRO_TRACE_CACHE the caller had -- a warm compile cache
    # made the number incomparable to the committed baseline.  The pin
    # must happen inside the section itself, and the caller's setting
    # must survive the call.
    import os

    from repro.bench import bench_store
    from repro.trace import store as store_mod

    warm = str(tmp_path / "warm-cache")
    monkeypatch.setenv("REPRO_TRACE_CACHE", warm)
    seen = {}
    real_compile = store_mod.compile_trace
    real_load = store_mod.load_compiled

    def spy_compile(*args, **kwargs):
        seen["compile"] = os.environ.get("REPRO_TRACE_CACHE")
        return real_compile(*args, **kwargs)

    def spy_load(*args, **kwargs):
        seen["load"] = os.environ.get("REPRO_TRACE_CACHE")
        return real_load(*args, **kwargs)

    monkeypatch.setattr(store_mod, "compile_trace", spy_compile)
    monkeypatch.setattr(store_mod, "load_compiled", spy_load)
    bench_store(scale=0.02, min_mb=0.01)
    assert seen["compile"] == "off"
    assert seen["load"] == "off"
    assert os.environ["REPRO_TRACE_CACHE"] == warm

