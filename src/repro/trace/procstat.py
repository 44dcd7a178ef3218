"""The ``procstat`` collector.

On the traced Cray, every instrumented library call sent its event to a
user-level collector process named ``procstat``, which batched events into
per-(process, file) packets and wrote them to a trace file.  This class
reproduces that collector's batching policy:

* events for the same (process, file) pair accumulate in one open packet;
* a packet is emitted when it reaches ``max_events_per_packet`` ("one
  header served for hundreds of I/O calls");
* **all** open packets are force-flushed every ``flush_interval`` events
  ("trace packets were forced out every hundred thousand I/Os"), which
  bounds how stale a quiet file's events can become;
* closing the collector flushes everything.

An open packet is a plain list of the events submitted to it; the
:class:`~repro.trace.packets.TracePacket` is built when the packet is
emitted, its events read into one integer table
(:class:`~repro.trace.packets.EventRows`), so an emitted packet holds no
event object.
"""

from __future__ import annotations

from typing import Callable

from repro.obs.registry import get_registry
from repro.trace.packets import IOEvent, TracePacket


class ProcstatCollector:
    """Batches :class:`IOEvent` objects into :class:`TracePacket` objects.

    ``sink`` is called with each emitted packet (e.g. ``packets.append``
    or a file writer).  The collector is deliberately order-preserving
    *per packet* but not globally: reconstruction must sort, exactly as
    the paper describes.
    """

    def __init__(
        self,
        sink: Callable[[TracePacket], None],
        *,
        max_events_per_packet: int = 512,
        flush_interval: int = 100_000,
        obs=None,
    ):
        if max_events_per_packet < 1:
            raise ValueError("max_events_per_packet must be >= 1")
        if flush_interval < 1:
            raise ValueError("flush_interval must be >= 1")
        reg = obs if obs is not None else get_registry()
        self._observed = reg.enabled
        self._c_events = reg.counter("trace.procstat.events")
        self._c_packets = reg.counter("trace.procstat.packets")
        self._c_flushes = reg.counter("trace.procstat.flushes")
        self._g_open = reg.gauge("trace.procstat.open_packets")
        self._sink = sink
        self.max_events_per_packet = max_events_per_packet
        self.flush_interval = flush_interval
        # Each open packet's events, by (process id, file id).  Every
        # open packet belongs to the current flush epoch: a flush emits
        # them all before the epoch advances.
        self._open: dict[tuple[int, int], list[IOEvent]] = {}
        self._sequence = 0
        self._epoch = 0
        self._events_since_flush = 0
        self.total_events = 0
        self.packets_emitted = 0
        self._closed = False

    def submit(self, event: IOEvent) -> None:
        """Record one event; may emit one or more packets as a side effect."""
        if self._closed:
            raise RuntimeError("collector is closed")
        key = (event.process_id, event.file_id)
        events = self._open.get(key)
        if events is None:
            events = self._open[key] = []
        events.append(event)
        self.total_events += 1
        self._events_since_flush += 1
        if self._observed:
            self._c_events.inc()
            self._g_open.set_max(len(self._open))

        if len(events) >= self.max_events_per_packet:
            self._emit(key)
        if self._events_since_flush >= self.flush_interval:
            self.flush()

    def flush(self) -> None:
        """Force out every open packet and start a new flush epoch."""
        for key in list(self._open):
            self._emit(key)
        self._events_since_flush = 0
        self._epoch += 1
        if self._observed:
            self._c_flushes.inc()

    def close(self) -> None:
        """Flush remaining packets; further submits are rejected."""
        if not self._closed:
            self.flush()
            self._closed = True

    def _emit(self, key: tuple[int, int]) -> None:
        process_id, file_id = key
        packet = TracePacket(
            self._sequence, self._epoch, process_id, file_id, self._open.pop(key)
        )
        self._sequence += 1
        self.packets_emitted += 1
        if self._observed:
            self._c_packets.inc()
        self._sink(packet)

    def __enter__(self) -> "ProcstatCollector":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def collect_to_list(
    events,
    *,
    max_events_per_packet: int = 512,
    flush_interval: int = 100_000,
) -> list[TracePacket]:
    """Run a stream of events through a collector; return emitted packets."""
    packets: list[TracePacket] = []
    with ProcstatCollector(
        packets.append,
        max_events_per_packet=max_events_per_packet,
        flush_interval=flush_interval,
    ) as collector:
        for event in events:
            collector.submit(event)
    return packets
