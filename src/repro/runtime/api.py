"""The application-facing file API of the simulated runtime.

This is the layer the workload models program against.  It mirrors the
Cray library interface the paper instrumented: synchronous ``read`` and
``write`` with an explicit ``seek``, plus asynchronous ``reada`` /
``writea`` returning requests the application later waits on (the `les`
code "was the only program that used asynchronous reads and writes
explicitly").

Timing semantics while *generating* a trace:

* every I/O call burns ``syscall_cpu_ticks`` of CPU (library + kernel
  path);
* a synchronous call on a *suspending* device (disk) stalls the wall
  clock for the device's service time -- the process sleeps;
* a synchronous call on a *non-suspending* device (SSD) charges the
  transfer as CPU time instead: "I/Os to and from the SSD are done
  without suspending the process ... the file system overhead may have
  slowed the program down by using more operating system time";
* an asynchronous call returns immediately after the issue cost; waiting
  stalls only until the device completion time, if it has not already
  passed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.clock import ProcessClock
from repro.runtime.files import FileSystem, SimulatedFile
from repro.runtime.latency import DISK_PROFILE, DeviceLatencyModel
from repro.runtime.tracer import LibraryTracer
from repro.trace import flags as F
from repro.trace.packets import IOEvent
from repro.util.errors import RuntimeAPIError


@dataclass
class _OpenFile:
    file: SimulatedFile
    file_id: int
    position: int = 0


@dataclass
class AsyncRequest:
    """Handle for an outstanding asynchronous I/O."""

    operation_id: int
    complete_at_wall: int
    nbytes: int
    is_write: bool
    done: bool = False


class AppRuntime:
    """One simulated application process with a traced file API."""

    def __init__(
        self,
        process_id: int,
        fs: FileSystem | None = None,
        *,
        tracer: LibraryTracer | None = None,
        latency: DeviceLatencyModel = DISK_PROFILE,
        syscall_cpu_ticks: int = 3,
        start_wall: int = 0,
    ):
        if syscall_cpu_ticks < 0:
            raise ValueError("syscall_cpu_ticks must be nonnegative")
        self.process_id = process_id
        self.fs = fs if fs is not None else FileSystem()
        self.tracer = tracer if tracer is not None else LibraryTracer()
        self.latency = latency
        self.syscall_cpu_ticks = syscall_cpu_ticks
        self.clock = ProcessClock(start_wall)
        self._fds: dict[int, _OpenFile] = {}
        self._next_fd = 3  # 0-2 notionally stdio
        self._pending: list[AsyncRequest] = []

    # -- computation -------------------------------------------------------
    def compute(self, seconds: float) -> None:
        """Burn CPU for ``seconds`` (the application's floating-point work)."""
        self.clock.compute_seconds(seconds)

    def compute_ticks(self, ticks: int) -> None:
        self.clock.compute(ticks)

    # -- file management ----------------------------------------------------
    def open(self, name: str, *, create: bool = False) -> int:
        """Open (optionally creating) a file; returns a descriptor.

        Each open gets a fresh trace file id, even for a re-opened name.
        """
        if create:
            f = self.fs.open_or_create(name)
        else:
            f = self.fs.lookup(name)
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = _OpenFile(
            file=f,
            file_id=self.tracer.register_open(name, self.process_id),
        )
        self.clock.compute(self.syscall_cpu_ticks)
        return fd

    def close(self, fd: int) -> None:
        self._lookup(fd)
        del self._fds[fd]
        self.clock.compute(self.syscall_cpu_ticks)

    def unlink(self, name: str) -> None:
        """Delete a file by name (compiler-style temporaries).

        Open descriptors on the file keep working (UNIX semantics: the
        data lives until the last close; we only track metadata, so the
        descriptors simply stay valid).
        """
        self.fs.unlink(name)
        self.clock.compute(self.syscall_cpu_ticks)

    def seek(self, fd: int, offset: int) -> None:
        if offset < 0:
            raise RuntimeAPIError(f"negative seek offset {offset}")
        self._lookup(fd).position = offset

    def tell(self, fd: int) -> int:
        return self._lookup(fd).position

    def file_size(self, fd: int) -> int:
        return self._lookup(fd).file.size

    def _lookup(self, fd: int) -> _OpenFile:
        try:
            return self._fds[fd]
        except KeyError:
            raise RuntimeAPIError(f"bad file descriptor {fd}") from None

    # -- synchronous I/O ------------------------------------------------------
    def read(self, fd: int, nbytes: int) -> None:
        self._io(fd, nbytes, write=False, asynchronous=False)

    def write(self, fd: int, nbytes: int) -> None:
        self._io(fd, nbytes, write=True, asynchronous=False)

    # -- asynchronous I/O ------------------------------------------------------
    def reada(self, fd: int, nbytes: int) -> AsyncRequest:
        return self._io(fd, nbytes, write=False, asynchronous=True)

    def writea(self, fd: int, nbytes: int) -> AsyncRequest:
        return self._io(fd, nbytes, write=True, asynchronous=True)

    def wait(self, request: AsyncRequest) -> None:
        """Block until an asynchronous request has completed."""
        if request.done:
            return
        if request.complete_at_wall > self.clock.wall:
            self.clock.stall(request.complete_at_wall - self.clock.wall)
        request.done = True
        self._pending = [r for r in self._pending if not r.done]

    def wait_all(self) -> None:
        for request in list(self._pending):
            self.wait(request)

    @property
    def pending_requests(self) -> tuple[AsyncRequest, ...]:
        return tuple(self._pending)

    # -- core ----------------------------------------------------------------
    def _io(
        self, fd: int, nbytes: int, *, write: bool, asynchronous: bool
    ) -> AsyncRequest | None:
        if nbytes <= 0:
            raise RuntimeAPIError(f"I/O length must be positive, got {nbytes}")
        handle = self._lookup(fd)
        offset = handle.position
        if write:
            handle.file.extend_to(offset + nbytes)
        elif offset + nbytes > handle.file.size:
            raise RuntimeAPIError(
                f"read past EOF on {handle.file.name!r}: "
                f"[{offset}, {offset + nbytes}) > size {handle.file.size}"
            )

        start_wall = self.clock.wall
        start_cpu = self.clock.cpu
        self.clock.compute(self.syscall_cpu_ticks)
        service = self.latency.service_ticks(nbytes)
        duration = self.syscall_cpu_ticks + service

        request: AsyncRequest | None = None
        if asynchronous:
            request = AsyncRequest(
                operation_id=0,  # filled below
                complete_at_wall=start_wall + duration,
                nbytes=nbytes,
                is_write=write,
            )
            self._pending.append(request)
        elif self.latency.suspends:
            self.clock.stall(service)
        else:
            # SSD: the transfer is charged as (system) CPU time.
            self.clock.compute(service)

        op = self.tracer.next_operation_id()
        if request is not None:
            request.operation_id = op
        self.tracer.record(
            IOEvent(
                record_type=F.make_record_type(
                    write=write, logical=True, asynchronous=asynchronous
                ),
                file_id=handle.file_id,
                process_id=self.process_id,
                operation_id=op,
                offset=offset,
                length=nbytes,
                start_time=start_wall,
                duration=duration,
                process_clock=start_cpu,
            )
        )
        handle.position = offset + nbytes
        return request
