"""Event engine and disk model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import DiskConfig
from repro.sim.devices import DiskModel
from repro.sim.events import Engine
from repro.util.errors import SimulationError
from repro.util.rng import derive_rng


class TestEngine:
    def test_runs_in_time_order(self):
        engine = Engine()
        log = []
        engine.schedule(3.0, lambda: log.append("c"))
        engine.schedule(1.0, lambda: log.append("a"))
        engine.schedule(2.0, lambda: log.append("b"))
        engine.run()
        assert log == ["a", "b", "c"]
        assert engine.now == 3.0

    def test_fifo_tie_breaking(self):
        engine = Engine()
        log = []
        for i in range(5):
            engine.schedule(1.0, lambda i=i: log.append(i))
        engine.run()
        assert log == [0, 1, 2, 3, 4]

    def test_events_can_schedule_events(self):
        engine = Engine()
        log = []

        def first():
            log.append(engine.now)
            engine.schedule(0.5, lambda: log.append(engine.now))

        engine.schedule(1.0, first)
        engine.run()
        assert log == [1.0, 1.5]

    def test_rejects_past_and_negative(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(0.5, lambda: None)
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)

    def test_max_events_guard(self):
        engine = Engine()

        def rearm():
            engine.schedule(1.0, rearm)

        engine.schedule(1.0, rearm)
        with pytest.raises(SimulationError):
            engine.run(max_events=100)

    def test_until(self):
        engine = Engine()
        log = []
        engine.schedule(1.0, lambda: log.append(1))
        engine.schedule(5.0, lambda: log.append(5))
        engine.run(until=2.0)
        assert log == [1]
        assert engine.pending == 1

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0, 1000), max_size=50))
    def test_order_property(self, delays):
        engine = Engine()
        seen = []
        for d in delays:
            engine.schedule(d, lambda d=d: seen.append(engine.now))
        engine.run()
        assert seen == sorted(seen)
        assert len(seen) == len(delays)


class TestDiskModel:
    def make(self, **kw):
        return DiskModel(DiskConfig(**kw), seed=1)

    def test_sequential_is_cheap(self):
        disk = self.make()
        first = disk.service_time(1, 0, 4096)
        seq = disk.service_time(1, 4096, 4096)
        assert seq < first
        # sequential: overhead + transfer only
        assert seq == pytest.approx(1e-3 + 4096 / (9.6 * 1024 * 1024))

    def test_seek_grows_with_distance(self):
        cfg = DiskConfig(rotation_period_s=0.0)  # deterministic
        disk = DiskModel(cfg, seed=1)
        disk.service_time(1, 0, 4096)
        near = disk.service_time(1, 1024 * 1024, 4096)
        disk2 = DiskModel(cfg, seed=1)
        disk2.service_time(1, 0, 4096)
        far = disk2.service_time(1, 512 * 1024 * 1024, 4096)
        assert far > near

    def test_transfer_scales_with_size(self):
        disk = self.make(rotation_period_s=0.0)
        disk.service_time(1, 0, 4096)
        small = disk.service_time(1, 4096, 4096)  # sequential
        big = disk.service_time(1, 8192, 4096 * 100)  # also sequential
        assert big - 1e-3 == pytest.approx((small - 1e-3) * 100)

    def test_per_file_positions_independent(self):
        disk = self.make()
        disk.service_time(1, 0, 4096)
        disk.service_time(2, 0, 4096)
        # file 1 is still positioned at 4096: sequential
        seq = disk.service_time(1, 4096, 4096)
        assert seq == pytest.approx(1e-3 + 4096 / (9.6 * 1024 * 1024))

    def test_sequential_fraction_tracking(self):
        disk = self.make()
        disk.service_time(1, 0, 4096)
        disk.service_time(1, 4096, 4096)
        disk.service_time(1, 0, 4096)  # rewind: not sequential
        assert disk.requests == 3
        assert disk.sequential_fraction == pytest.approx(1 / 3)

    def test_busy_seconds_accumulates(self):
        disk = self.make()
        t = disk.service_time(1, 0, 4096)
        assert disk.busy_seconds == pytest.approx(t)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            self.make().service_time(1, 0, 0)

    def test_deterministic_with_seed(self):
        a = DiskModel(DiskConfig(), seed=7)
        b = DiskModel(DiskConfig(), seed=7)
        for off in (0, 999999, 123):
            assert a.service_time(1, off, 4096) == b.service_time(1, off, 4096)

    def test_rotations_are_the_scalar_draws_in_order(self):
        # 150 first touches each pay a full seek and one rotational
        # delay; 150 draws refill the model's delay block twice.  Each
        # delay must be the next scalar draw of the model's own stream.
        cfg = DiskConfig()
        disk = DiskModel(cfg, seed=11)
        rng = derive_rng(11, "disk")
        seek = cfg.min_seek_s + (cfg.max_seek_s - cfg.min_seek_s) * 1.0
        transfer = 4096 / cfg.bandwidth_bytes_per_sec
        for file_id in range(150):
            r = float(rng.uniform(0.0, cfg.rotation_period_s))
            expected = cfg.base_overhead_s + seek + r + transfer
            assert disk.service_time(file_id, 0, 4096) == expected, file_id
        assert disk.sequential_requests == 0

    def test_finite_disks_interfere(self):
        # Two files interleaved: private spindles stay sequential; one
        # shared spindle seeks on every request.
        shared = DiskModel(DiskConfig(n_disks=1), seed=0)
        private = DiskModel(DiskConfig(n_disks=0), seed=0)
        base = 512 * 1024 * 1024  # file 2 lives far away
        for disk in (shared, private):
            for i in range(50):
                disk.service_time(1, i * 4096, 4096)
                disk.service_time(2, base + i * 4096, 4096)
        assert private.sequential_fraction > 0.9
        assert shared.sequential_fraction < 0.1
        assert shared.busy_seconds > private.busy_seconds

    def test_disk_hashing_stable(self):
        disk = DiskModel(DiskConfig(n_disks=4), seed=0)
        # files 1 and 5 share a spindle (1 % 4 == 5 % 4)
        disk.service_time(1, 0, 4096)
        t = disk.service_time(5, 4096, 4096)
        # sequential continuation across the *spindle* position
        assert t == pytest.approx(1e-3 + 4096 / (9.6 * 1024 * 1024))
