"""The seven application models: calibration, structure, determinism.

Heavier apps are generated once per session at a small scale (fixtures)
and shared across the checks.
"""

import numpy as np
import pytest

from repro.trace.procstat import ProcstatCollector
from repro.trace.array import TraceArray
from repro.trace.reconstruct import reconstruct_records
from repro.trace.validate import validate_array
from repro.util.errors import CalibrationError
from repro.workloads import (
    APP_NAMES,
    available_models,
    check,
    generate_workload,
    measure,
    model_for,
)

SCALES = {
    "bvi": 0.04,
    "forma": 0.06,
    "ccm": 0.2,
    "gcm": 0.2,
    "les": 0.2,
    "venus": 0.2,
    "upw": 0.2,
}


@pytest.fixture(scope="module")
def workloads():
    return {
        name: generate_workload(name, scale=SCALES[name]) for name in APP_NAMES
    }


class TestRegistry:
    def test_all_models_registered(self):
        assert set(available_models()) == set(APP_NAMES)

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            model_for("nonesuch")

    def test_scale_validated(self):
        with pytest.raises(ValueError):
            model_for("venus", scale=0.0)
        with pytest.raises(ValueError):
            model_for("venus", scale=1.5)


class TestCalibration:
    def test_all_apps_within_tolerance(self, workloads):
        for name, w in workloads.items():
            check(w, tolerance=0.25)  # raises CalibrationError on failure

    def test_rates_scale_invariant(self):
        small = measure(generate_workload("venus", scale=0.1))
        large = measure(generate_workload("venus", scale=0.3))
        assert small.mb_per_sec == pytest.approx(large.mb_per_sec, rel=0.1)
        assert small.ios_per_sec == pytest.approx(large.ios_per_sec, rel=0.1)

    def test_check_raises_on_miscalibration(self, workloads):
        with pytest.raises(CalibrationError):
            check(workloads["venus"], tolerance=0.0001)


class TestStructure:
    def test_traces_are_valid(self, workloads):
        for name, w in workloads.items():
            report = validate_array(w.trace)
            assert report.ok, (name, report.problems[:3])

    def test_start_times_nondecreasing(self, workloads):
        for w in workloads.values():
            assert np.all(np.diff(w.trace.start_time) >= 0)

    def test_venus_interleaves_six_data_files(self, workloads):
        trace = workloads["venus"].trace
        # six data files plus config and results
        counts = {
            int(fid): int((trace.file_id == fid).sum())
            for fid in trace.file_ids()
        }
        busy = [fid for fid, n in counts.items() if n > 100]
        assert len(busy) == 6

    def test_les_uses_async(self, workloads):
        trace = workloads["les"].trace
        async_frac = trace.is_async.mean()
        assert async_frac > 0.9

    def test_other_apps_synchronous(self, workloads):
        for name in ("venus", "ccm", "bvi", "forma", "gcm", "upw"):
            assert workloads[name].trace.is_async.mean() == 0.0

    def test_bvi_small_ssd_accesses(self, workloads):
        trace = workloads["bvi"].trace
        sizes, counts = np.unique(trace.length, return_counts=True)
        dominant = sizes[np.argmax(counts)]
        assert dominant == 14 * 1024  # the dominant (read) request size
        # ... and the overall average is the paper's ~16 KB
        assert trace.length.mean() == pytest.approx(16.1 * 1024, rel=0.1)

    def test_forma_read_dominated(self, workloads):
        trace = workloads["forma"].trace
        assert trace.read_bytes > 8 * trace.write_bytes

    def test_compulsory_apps_do_little_io(self, workloads):
        for name in ("gcm", "upw"):
            r = measure(workloads[name])
            assert r.mb_per_sec < 1.0

    def test_ssd_app_wall_equals_cpu(self, workloads):
        # bvi never sleeps: its device does not suspend.
        w = workloads["bvi"]
        assert w.wall_seconds == pytest.approx(w.cpu_seconds, rel=1e-6)

    def test_disk_apps_stall(self, workloads):
        w = workloads["venus"]
        assert w.wall_seconds > w.cpu_seconds * 1.2


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = generate_workload("ccm", scale=0.1, seed=7)
        b = generate_workload("ccm", scale=0.1, seed=7)
        np.testing.assert_array_equal(a.trace.start_time, b.trace.start_time)
        np.testing.assert_array_equal(a.trace.offset, b.trace.offset)

    def test_different_seed_different_timing(self):
        a = generate_workload("ccm", scale=0.1, seed=7)
        b = generate_workload("ccm", scale=0.1, seed=8)
        assert not np.array_equal(a.trace.start_time, b.trace.start_time)
        # ...but identical I/O structure (offsets/sizes are the algorithm)
        np.testing.assert_array_equal(a.trace.offset, b.trace.offset)


class TestCollectionPipeline:
    def test_generate_through_procstat(self):
        packets = []
        collector = ProcstatCollector(packets.append, max_events_per_packet=64)
        direct = generate_workload("venus", scale=0.1)
        model = model_for("venus", scale=0.1)
        staged = model.generate(collector=collector)
        assert len(staged.trace) == 0  # events went to the collector
        rebuilt = TraceArray.from_records(reconstruct_records(packets))
        assert len(rebuilt) == len(direct.trace)
        np.testing.assert_array_equal(rebuilt.offset, direct.trace.offset)
        np.testing.assert_array_equal(
            rebuilt.process_clock, direct.trace.process_clock
        )
