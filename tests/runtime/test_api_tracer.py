"""The traced application runtime API."""

import pytest

from repro.runtime.api import AppRuntime
from repro.runtime.files import FileSystem
from repro.runtime.latency import DISK_PROFILE, SSD_PROFILE
from repro.runtime.tracer import LibraryTracer
from repro.trace import flags as F
from repro.trace.procstat import ProcstatCollector
from repro.trace.reconstruct import events_to_array
from repro.trace.validate import validate_array
from repro.util.errors import RuntimeAPIError


def make_runtime(latency=DISK_PROFILE, **kw):
    fs = FileSystem()
    fs.create("input", size=1 << 20)
    return AppRuntime(1, fs, latency=latency, **kw)


class TestLatencyModels:
    def test_disk_service_time(self):
        # 9.6 MB/s: a 9.6 MB transfer takes 1 s = 100_000 ticks + overhead
        t = DISK_PROFILE.service_ticks(int(9.6 * 1024 * 1024))
        assert t == pytest.approx(100_000 + 1500, abs=2)

    def test_ssd_faster_than_disk(self):
        n = 32 * 1024
        assert SSD_PROFILE.service_ticks(n) < DISK_PROFILE.service_ticks(n)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DISK_PROFILE.service_ticks(-1)


class TestSyncIO:
    def test_read_stalls_on_disk(self):
        rt = make_runtime()
        fd = rt.open("input")
        cpu_before = rt.clock.cpu
        wall_before = rt.clock.wall
        rt.read(fd, 4096)
        # wall advanced by syscall + service; CPU only by syscall
        assert rt.clock.cpu - cpu_before == rt.syscall_cpu_ticks
        assert rt.clock.wall - wall_before > DISK_PROFILE.service_ticks(4096)

    def test_ssd_charges_cpu_not_stall(self):
        rt = make_runtime(latency=SSD_PROFILE)
        fd = rt.open("input")
        rt.read(fd, 4096)
        # non-suspending device: wall == cpu (no sleep at all)
        assert rt.clock.wall == rt.clock.cpu

    def test_sequential_positions(self):
        rt = make_runtime()
        fd = rt.open("input")
        rt.read(fd, 1000)
        rt.read(fd, 1000)
        assert rt.tell(fd) == 2000
        events = rt.tracer.events
        assert events[0].offset == 0 and events[1].offset == 1000

    def test_seek_and_read(self):
        rt = make_runtime()
        fd = rt.open("input")
        rt.seek(fd, 500)
        rt.read(fd, 100)
        assert rt.tracer.events[0].offset == 500
        with pytest.raises(RuntimeAPIError):
            rt.seek(fd, -1)

    def test_read_past_eof_rejected(self):
        rt = make_runtime()
        fd = rt.open("input")
        rt.seek(fd, (1 << 20) - 10)
        with pytest.raises(RuntimeAPIError):
            rt.read(fd, 100)

    def test_write_extends_file(self):
        rt = make_runtime()
        fd = rt.open("out", create=True)
        rt.write(fd, 10_000)
        assert rt.file_size(fd) == 10_000
        rt.seek(fd, 5000)
        rt.write(fd, 1000)
        assert rt.file_size(fd) == 10_000  # inside, no growth

    def test_zero_length_io_rejected(self):
        rt = make_runtime()
        fd = rt.open("input")
        with pytest.raises(RuntimeAPIError):
            rt.read(fd, 0)

    def test_unlink(self):
        rt = make_runtime()
        fd = rt.open("tmp", create=True)
        rt.write(fd, 100)
        rt.unlink("tmp")
        assert not rt.fs.exists("tmp")
        # open descriptor still usable (UNIX last-close semantics)
        rt.seek(fd, 0)
        rt.read(fd, 100)
        with pytest.raises(RuntimeAPIError):
            rt.unlink("tmp")

    def test_bad_fd(self):
        rt = make_runtime()
        with pytest.raises(RuntimeAPIError):
            rt.read(99, 10)
        fd = rt.open("input")
        rt.close(fd)
        with pytest.raises(RuntimeAPIError):
            rt.read(fd, 10)


class TestAsyncIO:
    def test_reada_does_not_stall(self):
        rt = make_runtime()
        fd = rt.open("input")
        wall_before = rt.clock.wall
        req = rt.reada(fd, 65536)
        assert rt.clock.wall - wall_before == rt.syscall_cpu_ticks
        assert not req.done
        assert rt.pending_requests == (req,)

    def test_wait_stalls_to_completion(self):
        rt = make_runtime()
        fd = rt.open("input")
        req = rt.reada(fd, 65536)
        rt.wait(req)
        assert req.done
        assert rt.clock.wall == req.complete_at_wall
        assert rt.pending_requests == ()

    def test_compute_overlaps_async(self):
        # Compute long enough that the I/O finished in the background:
        # wait() is then free.
        rt = make_runtime()
        fd = rt.open("input")
        req = rt.reada(fd, 4096)
        rt.compute(1.0)  # far longer than the transfer
        wall = rt.clock.wall
        rt.wait(req)
        assert rt.clock.wall == wall  # no extra stall

    def test_wait_all_and_double_wait(self):
        rt = make_runtime()
        fd = rt.open("input")
        r1 = rt.reada(fd, 4096)
        rt.seek(fd, 65536)
        r2 = rt.reada(fd, 4096)
        rt.wait_all()
        assert r1.done and r2.done
        rt.wait(r1)  # idempotent

    def test_async_flag_recorded(self):
        rt = make_runtime()
        fd = rt.open("input")
        rt.reada(fd, 4096)
        rt.read(fd, 4096)
        a, s = rt.tracer.events
        assert a.record_type & F.TRACE_ASYNC
        assert not s.record_type & F.TRACE_ASYNC


class TestTracing:
    def test_events_carry_clocks_and_ids(self):
        rt = make_runtime()
        rt.compute(0.5)
        fd = rt.open("input")
        rt.read(fd, 1024)
        (e,) = rt.tracer.events
        assert e.process_id == 1
        assert e.operation_id == 1
        assert e.process_clock >= 50_000  # the 0.5 s of compute
        assert e.length == 1024

    def test_each_open_gets_new_file_id(self):
        rt = make_runtime()
        fd1 = rt.open("input")
        rt.close(fd1)
        fd2 = rt.open("input")
        rt.read(fd2, 10)
        texts = [c.text for c in rt.tracer.comments]
        assert texts == ["file 1 = input", "file 2 = input"]
        assert rt.tracer.events[0].file_id == 2

    def test_shared_tracer_unique_ids_across_processes(self):
        fs = FileSystem()
        fs.create("a", size=1000)
        fs.create("b", size=1000)
        tracer = LibraryTracer()
        rt1 = AppRuntime(1, fs, tracer=tracer)
        rt2 = AppRuntime(2, fs, tracer=tracer)
        fda = rt1.open("a")
        fdb = rt2.open("b")
        rt1.read(fda, 10)
        rt2.read(fdb, 10)
        events = tracer.events
        assert events[0].file_id != events[1].file_id
        assert events[0].operation_id != events[1].operation_id

    def test_tracer_feeds_collector(self):
        packets = []
        collector = ProcstatCollector(packets.append, max_events_per_packet=2)
        with LibraryTracer(collector) as tracer:
            rt = AppRuntime(1, tracer=tracer)
            fd = rt.open("out", create=True)
            for _ in range(5):
                rt.write(fd, 512)
        assert sum(len(p) for p in packets) == 5

    def test_generated_stream_is_valid_trace(self):
        rt = make_runtime()
        fd = rt.open("input")
        for _ in range(20):
            rt.compute(0.001)
            rt.read(fd, 4096)
        rt.seek(fd, 0)
        out = rt.open("out", create=True)
        rt.write(out, 8192)
        report = validate_array(events_to_array(rt.tracer.events))
        assert report.ok, report.problems
