"""Disk service-time model (section 6.1's "simple disk model").

"The disk model, like the scheduler, is a simple one.  Since ours were
logical traces and we did not model the file system, we could not use
physical block numbers.  Thus, seek times could only be approximated.
There was no queueing at the disks, so the completion time of a specific
I/O was dependent only on the location of the I/O and how 'close' the
I/O was to the previous I/O."

Faithfully to that description:

* **no queueing** -- every request's service time is computed
  independently of how many requests are outstanding (the simplification
  the paper itself blames for Figure 6's unsmoothed peaks);
* **closeness** -- each file id tracks the end offset of its previous
  access; a request starting exactly there is *sequential* (no seek, no
  rotational delay -- the head is streaming); anything else pays a seek
  that grows with the logical distance plus a sampled rotational delay;
* the access-time distribution is *constant* (independent of load),
  sampled from a seeded generator for reproducibility.

The generator is private to the model and draws nothing else, so
rotational delays are drawn :data:`ROTATION_BLOCK` at a time: a
vector draw yields the same doubles, in the same order, as that many
scalar ``uniform`` calls, at a fraction of the per-call cost.
"""

from __future__ import annotations

from repro.obs.registry import get_registry
from repro.sim.config import DiskConfig
from repro.util.rng import derive_rng

#: Rotational delays drawn per refill of the model's delay block.
ROTATION_BLOCK = 64


class DiskModel:
    """Per-file position-tracking service-time calculator."""

    def __init__(self, config: DiskConfig, *, seed: int = 0, obs=None):
        self.config = config
        self._rng = derive_rng(seed, "disk")
        #: drawn rotational delays not used yet, the next one last
        self._rotations: list[float] = []
        self._position: dict[int, int] = {}
        self.requests = 0
        self.sequential_requests = 0
        self.busy_seconds = 0.0  # sum of service times (device-seconds)
        #: device-seconds per position key (spindle, or file with n_disks=0);
        #: only tracked while an enabled registry is active, so the default
        #: hot path stays unchanged.
        self.busy_by_device: dict[int, float] = {}
        reg = obs if obs is not None else get_registry()
        self._observed = reg.enabled
        self._h_seek = reg.histogram("sim.disk.seek_distance_bytes")

    def _position_key(self, file_id: int) -> int:
        """Which head position a file's accesses move.

        With ``n_disks == 0`` every file gets its own position (the
        logical-trace simplification); otherwise files hash onto a
        finite set of spindles, so interleaved streams on the same disk
        break each other's sequentiality.
        """
        if self.config.n_disks > 0:
            return file_id % self.config.n_disks
        return file_id

    def service_time(self, file_id: int, offset: int, length: int) -> float:
        """Seconds from issue to completion for one request."""
        if length <= 0:
            raise ValueError("length must be positive")
        cfg = self.config
        file_id = self._position_key(file_id)
        last_end = self._position.get(file_id)
        transfer = length / cfg.bandwidth_bytes_per_sec
        self.requests += 1
        if last_end is not None and offset == last_end:
            # Streaming: no positioning cost at all.
            self.sequential_requests += 1
            service = cfg.base_overhead_s + transfer
        else:
            if last_end is None:
                distance = cfg.seek_span_bytes  # first touch: full seek
            else:
                distance = abs(offset - last_end)
            if self._observed:
                self._h_seek.observe(distance)
            frac = min(1.0, distance / cfg.seek_span_bytes)
            seek = cfg.min_seek_s + (cfg.max_seek_s - cfg.min_seek_s) * frac
            rotations = self._rotations
            if not rotations:
                block = self._rng.uniform(0.0, cfg.rotation_period_s, ROTATION_BLOCK)
                rotations.extend(reversed(block.tolist()))
            rotation = rotations.pop()
            service = cfg.base_overhead_s + seek + rotation + transfer
        self._position[file_id] = offset + length
        self.busy_seconds += service
        if self._observed:
            self.busy_by_device[file_id] = (
                self.busy_by_device.get(file_id, 0.0) + service
            )
        return service

    def add_busy(self, file_id: int, seconds: float) -> None:
        """Charge extra device-busy time (injected latency spikes).

        Keeps ``busy_seconds`` honest when the fault layer stretches a
        request beyond its modelled service time; does not move the head
        or count a request.
        """
        if seconds <= 0:
            return
        self.busy_seconds += seconds
        if self._observed:
            key = self._position_key(file_id)
            self.busy_by_device[key] = self.busy_by_device.get(key, 0.0) + seconds

    @property
    def sequential_fraction(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.sequential_requests / self.requests
