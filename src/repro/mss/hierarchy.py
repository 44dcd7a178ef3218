"""Residence levels and drive-limited staging.

Files live at one of three levels:

* ``DISK`` -- online; a job can open and stream immediately;
* ``NEARLINE`` -- on a robot-mounted tape: staging in costs a mount plus
  a tape-speed transfer, through one of a small number of drives;
* ``OFFLINE`` -- in the vault: an operator fetch (minutes) precedes the
  mount.

Unlike the paper's *disk* model, the tape drives do queue: the robot
arms and drives are the scarce resource, so concurrent stage requests
wait FIFO for a free drive.  All timing runs on the same event engine
the buffering simulator uses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from repro.sim.events import Engine
from repro.util.errors import SimulationError
from repro.util.units import MB


class Level(Enum):
    DISK = "disk"
    NEARLINE = "nearline"
    OFFLINE = "offline"


@dataclass(frozen=True)
class MSSConfig:
    """Hierarchy timing and capacity parameters (late-1980s class)."""

    n_drives: int = 4
    #: robot pick + thread + position
    mount_s: float = 15.0
    #: operator fetch from the vault, on top of the mount
    operator_fetch_s: float = 300.0
    tape_bandwidth_bytes_per_s: float = 3.0 * MB
    #: online disk capacity the staged files share
    disk_capacity_bytes: int = 35 * 1024 * MB  # the Y-MP's 35.2 GB of disk

    def __post_init__(self) -> None:
        if self.n_drives < 1:
            raise ValueError("need at least one tape drive")
        if self.disk_capacity_bytes <= 0:
            raise ValueError("disk capacity must be positive")


@dataclass
class StageRequest:
    """One stage-in: a file moving up to disk."""

    file_id: int
    size_bytes: int
    submitted_at: float
    started_at: float | None = None
    finished_at: float | None = None
    on_done: Callable[[], None] | None = None

    @property
    def queue_wait_s(self) -> float:
        if self.started_at is None:
            return 0.0
        return self.started_at - self.submitted_at

    @property
    def latency_s(self) -> float:
        if self.finished_at is None:
            return 0.0
        return self.finished_at - self.submitted_at


@dataclass
class DriveStats:
    """Aggregate drive usage."""

    stages_completed: int = 0
    bytes_staged: int = 0
    busy_seconds: float = 0.0
    max_queue_depth: int = 0


@dataclass
class _FileState:
    level: Level
    size_bytes: int


class MassStorageSystem:
    """Residence tracking + drive-limited staging over an event engine."""

    def __init__(self, engine: Engine, config: MSSConfig | None = None):
        self.engine = engine
        self.config = config if config is not None else MSSConfig()
        self._files: dict[int, _FileState] = {}
        self._free_drives = self.config.n_drives
        self._queue: deque[StageRequest] = deque()
        self.stats = DriveStats()
        self.requests: list[StageRequest] = []
        self._disk_used = 0

    # -- catalogue ----------------------------------------------------------
    def register(self, file_id: int, size_bytes: int, level: Level) -> None:
        """Add a file to the catalogue at a residence level."""
        if size_bytes <= 0:
            raise SimulationError("file size must be positive")
        if file_id in self._files:
            raise SimulationError(f"file {file_id} already registered")
        self._files[file_id] = _FileState(level, size_bytes)
        if level is Level.DISK:
            self._reserve_disk(size_bytes)

    def level_of(self, file_id: int) -> Level:
        return self._state(file_id).level

    def size_of(self, file_id: int) -> int:
        return self._state(file_id).size_bytes

    def files_at(self, level: Level) -> list[int]:
        return [fid for fid, s in self._files.items() if s.level is level]

    def _state(self, file_id: int) -> _FileState:
        try:
            return self._files[file_id]
        except KeyError:
            raise SimulationError(f"unknown file {file_id}") from None

    @property
    def disk_used_bytes(self) -> int:
        return self._disk_used

    @property
    def disk_free_bytes(self) -> int:
        return self.config.disk_capacity_bytes - self._disk_used

    def _reserve_disk(self, size: int) -> None:
        if self._disk_used + size > self.config.disk_capacity_bytes:
            raise SimulationError(
                f"online disk full: need {size} bytes, "
                f"{self.disk_free_bytes} free"
            )
        self._disk_used += size

    # -- access path ----------------------------------------------------------
    def open_file(self, file_id: int, on_ready: Callable[[], None]) -> StageRequest | None:
        """A job opens a file: ready now if on disk, staged in otherwise.

        Returns the stage request when staging was needed, None for a
        disk-resident file (``on_ready`` is then called synchronously).
        """
        state = self._state(file_id)
        if state.level is Level.DISK:
            on_ready()
            return None
        return self._stage_in(file_id, on_ready)

    def _stage_in(self, file_id: int, on_done: Callable[[], None]) -> StageRequest:
        state = self._state(file_id)
        self._reserve_disk(state.size_bytes)
        request = StageRequest(
            file_id=file_id,
            size_bytes=state.size_bytes,
            submitted_at=self.engine.now,
            on_done=on_done,
        )
        self.requests.append(request)
        self._queue.append(request)
        self.stats.max_queue_depth = max(
            self.stats.max_queue_depth, len(self._queue)
        )
        self._dispatch()
        return request

    def _dispatch(self) -> None:
        while self._free_drives > 0 and self._queue:
            request = self._queue.popleft()
            self._free_drives -= 1
            state = self._state(request.file_id)
            request.started_at = self.engine.now
            service = self.config.mount_s + (
                request.size_bytes / self.config.tape_bandwidth_bytes_per_s
            )
            if state.level is Level.OFFLINE:
                service += self.config.operator_fetch_s
            self.stats.busy_seconds += service
            self.engine.schedule(
                service, lambda r=request: self._stage_done(r)
            )

    def _stage_done(self, request: StageRequest) -> None:
        request.finished_at = self.engine.now
        state = self._state(request.file_id)
        state.level = Level.DISK
        self.stats.stages_completed += 1
        self.stats.bytes_staged += request.size_bytes
        self._free_drives += 1
        if request.on_done is not None:
            request.on_done()
        self._dispatch()
