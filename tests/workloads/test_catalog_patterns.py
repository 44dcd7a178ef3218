"""Catalog integrity and the access-pattern building blocks."""

import numpy as np
import pytest

from repro.runtime.api import AppRuntime
from repro.runtime.files import FileSystem
from repro.workloads.catalog import APP_NAMES, PAPER_APPS, paper_row
from repro.workloads.patterns import (
    FileCursor,
    InterleavedSweep,
    jittered_array,
    jittered_ticks,
    split_evenly,
)


class TestCatalog:
    def test_all_apps_present(self):
        assert set(PAPER_APPS) == set(APP_NAMES)
        assert len(APP_NAMES) == 7

    def test_rows_internally_consistent(self):
        # rate x time ~ total and count x avg ~ total, within the OCR
        # reconstruction slop.
        for row in PAPER_APPS.values():
            assert row.mb_per_sec * row.running_seconds == pytest.approx(
                row.total_io_mb, rel=0.1
            )
            assert row.ios_per_sec * row.running_seconds == pytest.approx(
                row.n_ios, rel=0.1
            )
            assert row.n_ios * row.avg_io_mb == pytest.approx(
                row.total_io_mb, rel=0.15
            )

    def test_table2_consistent_with_table1(self):
        for row in PAPER_APPS.values():
            total_rate = row.read_mb_per_sec + row.write_mb_per_sec
            assert total_rate == pytest.approx(row.mb_per_sec, rel=0.15)
            total_iops = row.read_ios_per_sec + row.write_ios_per_sec
            assert total_iops == pytest.approx(row.ios_per_sec, rel=0.15)

    def test_narrative_flags(self):
        assert PAPER_APPS["bvi"].uses_ssd
        assert PAPER_APPS["les"].uses_async
        assert PAPER_APPS["venus"].n_data_files == 6
        assert PAPER_APPS["gcm"].compulsory_only
        assert PAPER_APPS["upw"].compulsory_only

    def test_read_fraction(self):
        venus = paper_row("venus")
        assert venus.read_fraction_bytes == pytest.approx(1.8 / 2.8)

    def test_unknown_app(self):
        with pytest.raises(KeyError, match="unknown application"):
            paper_row("nope")


def make_rt(sizes):
    fs = FileSystem()
    for name, size in sizes.items():
        fs.create(name, size=size)
    return AppRuntime(1, fs)


class TestFileCursor:
    def test_sequential_then_wrap(self):
        rt = make_rt({"d": 2500})
        fd = rt.open("d")
        cur = FileCursor(rt, fd, chunk=1000)
        cur.read()
        cur.read()
        cur.read()  # 2000+1000 > 2500 -> wraps to 0
        offsets = [e.offset for e in rt.tracer.events]
        assert offsets == [0, 1000, 0]

    def test_write_wraps_at_initial_size(self):
        rt = make_rt({"d": 2500})
        fd = rt.open("d")
        cur = FileCursor(rt, fd, chunk=1000)
        for _ in range(4):
            cur.write()
        assert rt.file_size(fd) == 2500  # in-place updates do not grow

    def test_skip_moves_without_io(self):
        rt = make_rt({"d": 10_000})
        fd = rt.open("d")
        cur = FileCursor(rt, fd, chunk=1000)
        cur.skip()
        cur.read()
        assert [e.offset for e in rt.tracer.events] == [1000]

    def test_rejects_bad_chunk(self):
        rt = make_rt({"d": 100})
        fd = rt.open("d")
        with pytest.raises(ValueError):
            FileCursor(rt, fd, chunk=0)


class TestInterleavedSweep:
    def test_round_robin(self):
        rt = make_rt({"a": 10_000, "b": 10_000, "c": 10_000})
        cursors = [FileCursor(rt, rt.open(n), 1000) for n in ("a", "b", "c")]
        sweep = InterleavedSweep(cursors)
        for _ in range(6):
            sweep.read_step()
        fids = [e.file_id for e in rt.tracer.events]
        assert fids == [1, 2, 3, 1, 2, 3]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            InterleavedSweep([])


class TestHelpers:
    def test_split_evenly(self):
        assert split_evenly(10, 3) == [4, 3, 3]
        assert sum(split_evenly(1234, 7)) == 1234
        assert split_evenly(0, 2) == [0, 0]
        with pytest.raises(ValueError):
            split_evenly(5, 0)

    def test_jittered_ticks_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            v = jittered_ticks(100, rng)
            assert 50 <= v <= 150
        assert jittered_ticks(0, rng) == 0
        assert jittered_ticks(100, rng, relative_sigma=0) == 100

    def test_jittered_array_matches_scalar_distribution(self):
        rng = np.random.default_rng(2)
        arr = jittered_array(1000, 5000, rng)
        assert arr.shape == (5000,)
        assert arr.min() >= 500 and arr.max() <= 1500
        assert abs(arr.mean() - 1000) < 20
        assert jittered_array(1000, 0, rng).size == 0
        np.testing.assert_array_equal(jittered_array(0, 3, rng), [0, 0, 0])
        np.testing.assert_array_equal(
            jittered_array(7, 3, rng, relative_sigma=0), [7, 7, 7]
        )
