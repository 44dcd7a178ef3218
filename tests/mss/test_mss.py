"""The mass storage hierarchy: staging and drive queueing."""

import pytest

from repro.mss import Level, MassStorageSystem, MSSConfig
from repro.sim.events import Engine
from repro.util.errors import SimulationError
from repro.util.units import MB


def make_mss(**cfg):
    engine = Engine()
    config = MSSConfig(**cfg)
    return engine, MassStorageSystem(engine, config)


class TestCatalogue:
    def test_register_and_query(self):
        _, mss = make_mss()
        mss.register(1, 100 * MB, Level.NEARLINE)
        assert mss.level_of(1) == Level.NEARLINE
        assert mss.size_of(1) == 100 * MB
        assert mss.files_at(Level.NEARLINE) == [1]

    def test_disk_files_consume_capacity(self):
        _, mss = make_mss(disk_capacity_bytes=1000 * MB)
        mss.register(1, 400 * MB, Level.DISK)
        assert mss.disk_used_bytes == 400 * MB
        assert mss.disk_free_bytes == 600 * MB

    def test_validation(self):
        _, mss = make_mss()
        with pytest.raises(SimulationError):
            mss.register(1, 0, Level.DISK)
        mss.register(1, 10, Level.DISK)
        with pytest.raises(SimulationError):
            mss.register(1, 10, Level.DISK)
        with pytest.raises(SimulationError):
            mss.level_of(99)
        with pytest.raises(ValueError):
            MSSConfig(n_drives=0)
        with pytest.raises(ValueError):
            MSSConfig(disk_capacity_bytes=0)


class TestStaging:
    def test_disk_resident_opens_immediately(self):
        engine, mss = make_mss()
        mss.register(1, 10 * MB, Level.DISK)
        ready = []
        assert mss.open_file(1, lambda: ready.append(engine.now)) is None
        assert ready == [0.0]

    def test_nearline_stage_latency(self):
        engine, mss = make_mss(mount_s=15.0)
        mss.register(1, 300 * MB, Level.NEARLINE)
        ready = []
        request = mss.open_file(1, lambda: ready.append(engine.now))
        assert request is not None
        engine.run()
        expected = 15.0 + 300 * MB / (3.0 * MB)
        assert ready == [pytest.approx(expected)]
        assert request.latency_s == pytest.approx(expected)
        assert mss.level_of(1) == Level.DISK

    def test_offline_adds_operator_fetch(self):
        engine, mss = make_mss()
        mss.register(1, 3 * MB, Level.OFFLINE)
        mss.register(2, 3 * MB, Level.NEARLINE)
        done = {}
        mss.open_file(1, lambda: done.setdefault(1, engine.now))
        mss.open_file(2, lambda: done.setdefault(2, engine.now))
        engine.run()
        assert done[1] - done[2] == pytest.approx(300.0)

    def test_drive_queueing(self):
        # One drive, three equal stages: completions serialize.
        engine, mss = make_mss(n_drives=1)
        for fid in (1, 2, 3):
            mss.register(fid, 30 * MB, Level.NEARLINE)
        done = {}
        for fid in (1, 2, 3):
            mss.open_file(fid, lambda f=fid: done.setdefault(f, engine.now))
        engine.run()
        per = 15.0 + 10.0
        assert done[1] == pytest.approx(per)
        assert done[2] == pytest.approx(2 * per)
        assert done[3] == pytest.approx(3 * per)
        # the first request dispatches immediately; two ever wait
        assert mss.stats.max_queue_depth == 2
        assert mss.stats.stages_completed == 3

    def test_more_drives_parallelize(self):
        engine, mss = make_mss(n_drives=3)
        for fid in (1, 2, 3):
            mss.register(fid, 30 * MB, Level.NEARLINE)
            mss.open_file(fid, lambda: None)
        engine.run()
        assert engine.now == pytest.approx(25.0)

    def test_queue_wait_accounted(self):
        engine, mss = make_mss(n_drives=1)
        mss.register(1, 30 * MB, Level.NEARLINE)
        mss.register(2, 30 * MB, Level.NEARLINE)
        r1 = mss.open_file(1, lambda: None)
        r2 = mss.open_file(2, lambda: None)
        engine.run()
        assert r1.queue_wait_s == 0.0
        assert r2.queue_wait_s == pytest.approx(25.0)

    def test_stage_requires_disk_space(self):
        _, mss = make_mss(disk_capacity_bytes=100 * MB)
        mss.register(1, 80 * MB, Level.DISK)
        mss.register(2, 50 * MB, Level.NEARLINE)
        with pytest.raises(SimulationError, match="disk full"):
            mss.open_file(2, lambda: None)
