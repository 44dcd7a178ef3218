"""JSONL event log with bounded buffering and batched flush.

The sink mirrors the paper's ``procstat`` collector design: events
accumulate in a bounded in-memory buffer and are written out in batches
-- one ``write`` call per flush -- rather than one syscall per event
("one header served for hundreds of I/O calls").  A full buffer forces a
flush, so memory stays bounded no matter how chatty the instrumentation
is; ``close`` (or the context manager) flushes the remainder.

Each line is one JSON object::

    {"seq": 17, "kind": "span", "name": "exec.point", "seconds": 0.41}

``seq`` is a monotonically increasing sequence number assigned at
emission, which makes post-hoc ordering unambiguous even though the log
carries no wall-clock timestamps (deliberately: stamping every event
with real time would make runs non-reproducible byte-for-byte).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO


class JsonlEventSink:
    """Buffered JSONL writer for observability events."""

    def __init__(
        self,
        path: str | Path,
        *,
        buffer_events: int = 512,
    ):
        if buffer_events < 1:
            raise ValueError("buffer_events must be >= 1")
        self.path = Path(path)
        self.buffer_events = buffer_events
        self._buffer: list[str] = []
        self._fh: IO[str] | None = self.path.open("w", encoding="utf-8")
        self._seq = 0
        self.events_emitted = 0
        self.flushes = 0

    def emit(self, kind: str, **fields) -> None:
        """Buffer one event; flushes as a batch when the buffer fills."""
        if self._fh is None:
            raise RuntimeError("event sink is closed")
        record = {"seq": self._seq, "kind": kind}
        record.update(fields)
        self._seq += 1
        self.events_emitted += 1
        self._buffer.append(json.dumps(record, sort_keys=True, default=str))
        if len(self._buffer) >= self.buffer_events:
            self.flush()

    def flush(self) -> None:
        """Write the buffered batch in one call."""
        if self._fh is None or not self._buffer:
            return
        self._fh.write("\n".join(self._buffer) + "\n")
        self._fh.flush()
        self._buffer.clear()
        self.flushes += 1

    def close(self) -> None:
        if self._fh is not None:
            self.flush()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlEventSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
