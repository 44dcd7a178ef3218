"""The example scripts must keep running (at tiny scales).

Each example is imported and its ``main`` invoked with a small scale so
the whole set finishes in test time.  ssd_vs_main_memory runs the full
default scales and is exercised separately by the benchmarks, so only a
smoke import is done for it here.
"""

import importlib.util
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_with_argv(module, argv, capsys):
    old = sys.argv
    sys.argv = argv
    try:
        module.main()
    finally:
        sys.argv = old
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_with_argv(load_example("quickstart"), ["quickstart", "0.08"], capsys)
    assert "buffering simulation" in out
    assert "MB cache" in out


def test_trace_collection_pipeline(tmp_path, capsys):
    module = load_example("trace_collection_pipeline")
    out = run_with_argv(
        module, ["trace_collection_pipeline", str(tmp_path)], capsys
    )
    assert "decode round-trip: OK" in out
    assert (tmp_path / "ccm.trace").exists()


def test_venus_buffering_study(capsys):
    module = load_example("venus_buffering_study")
    out = run_with_argv(module, ["venus_buffering_study", "0.08"], capsys)
    assert "Figure 6" in out and "Figure 8" in out
    assert "idle seconds, 8K cache blocks" in out


def test_batch_queue_tradeoff(capsys):
    module = load_example("batch_queue_tradeoff")
    out = run_with_argv(module, ["batch_queue_tradeoff"], capsys)
    assert "loaded machine" in out
    assert "wins" in out


def test_physical_layout_study(capsys):
    module = load_example("physical_layout_study")
    out = run_with_argv(module, ["physical_layout_study", "0.08"], capsys)
    assert "contiguous" in out and "fragmented" in out
    assert "device-seconds" in out


def test_ssd_vs_main_memory_importable():
    module = load_example("ssd_vs_main_memory")
    assert callable(module.main)
