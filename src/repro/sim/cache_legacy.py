"""Reference buffer cache: per-block bookkeeping, retained for testing.

This is the pre-optimization implementation of :mod:`repro.sim.cache`,
kept as a per-block reference (its write completion now settles blocks
by identity and in block order, as the production cache always did).
The production cache coalesces
block runs through the LRU and allocator; this one pays O(blocks) dict
and ``OrderedDict`` operations per request.  The differential digest
tests (``tests/sim/test_hotpath_differential.py``) replay identical
workloads through both and assert bit-identical
:meth:`~repro.sim.metrics.SimulationResult.digest` values, and both
must reproduce the recorded random corpus
(``tests/sim/test_cache_corpus.py``).  Select it at run time with
``REPRO_CACHE_IMPL=legacy`` or ``SimulatedSystem(..., cache_impl="legacy")``.

The cache sits between the trace-replay processes and the disk model:

* demand **reads** are satisfied from resident blocks (free for a
  main-memory cache, per-KB penalty for the SSD), from blocks already in
  flight (a previous miss or a prefetch), or by issuing disk reads for
  the missing block runs;
* **read-ahead** watches each file for the sequential same-size pattern
  ("an I/O request was not only sequential with the previous I/O, but
  was also the same size.  Thus, prefetching the amount of data just
  read allowed the application to continue without waiting, but did not
  fill the cache with data that would be unused for some time") and keeps
  up to ``depth`` requests of look-ahead in flight, where the default
  depth grows with available buffer space;
* **write-behind** lets the writer continue as soon as the data is in
  cache frames ("it was easy to allow a process to continue executing
  while written data had not yet gone to disk"); a flusher pushes dirty
  extents to disk immediately but asynchronously.  With write-behind off,
  writes block until the disk write completes;
* frames are recycled LRU among clean resident blocks; requests that
  cannot get frames (everything dirty or in flight) park until a frame
  frees -- the contention behind section 6.2's buffer-hogging
  observation.  An optional per-process ownership cap reproduces the
  failed mitigation ("a limit on the number of buffers a process could
  own did not relieve the problem, and actually worsened CPU
  utilization").

Implementation note: requests are decomposed into 4-8 KB blocks, so a
single venus-sized request touches ~100 frames.  The hot paths therefore
allocate/evict/settle *runs* of blocks per call and complete disk reads
with one per-run callback, not per-block closures.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from repro.obs.registry import get_registry
from repro.sim.config import CacheConfig, FaultConfig, RecoveryConfig
from repro.sim.devices import DiskModel
from repro.sim.events import Engine
from repro.sim.faults import FaultInjector
from repro.sim.metrics import Metrics
from repro.sim.recovery import RecoveringDevice
from repro.util.errors import SimulationError


class BlockState(Enum):
    READING = 0  #: disk read in flight; frame pinned
    VALID = 1  #: clean resident; evictable
    DIRTY = 2  #: written, awaiting flush start
    FLUSHING = 3  #: disk write in flight; frame pinned


_READING = BlockState.READING
_VALID = BlockState.VALID
_DIRTY = BlockState.DIRTY
_FLUSHING = BlockState.FLUSHING


class Block:
    """One cache frame's contents."""

    __slots__ = ("key", "state", "owner", "prefetched", "waiters")

    def __init__(self, key: tuple[int, int], state: BlockState, owner: int):
        self.key = key
        self.state = state
        self.owner = owner
        self.prefetched = False
        self.waiters: list[Callable[[], None]] | None = None


class _DelayedFlush:
    """A dirty extent waiting out its Sprite-style delay."""

    __slots__ = ("file_id", "offset", "length", "blocks", "cancelled")

    def __init__(
        self, file_id: int, offset: int, length: int, blocks: list[Block]
    ):
        self.file_id = file_id
        self.offset = offset
        self.length = length
        self.blocks = blocks
        self.cancelled = False


@dataclass
class _StreamState:
    """Per-file sequential-pattern tracking for the prefetcher."""

    next_offset: int  # end of the last demand read
    length: int  # last demand request size
    prefetch_until: int = 0  # exclusive end of issued prefetch


class BufferCache:
    """Block cache over one disk model."""

    def __init__(
        self,
        config: CacheConfig,
        engine: Engine,
        disk: DiskModel,
        metrics: Metrics,
        *,
        file_sizes: dict[int, int] | None = None,
        device: RecoveringDevice | None = None,
        obs=None,
    ):
        self.config = config
        self.engine = engine
        self.disk = disk
        self.metrics = metrics
        if device is None:
            # No fault plan: a passthrough device, bit-identical to the
            # old inline disk calls.
            device = RecoveringDevice(
                disk,
                engine,
                FaultInjector(FaultConfig()),
                RecoveryConfig(),
                metrics,
                obs=obs,
            )
        self.device = device
        self.recovery = device.config
        #: SSD failed: bypass the cache, fall through to the disk
        self.degraded = False
        reg = obs if obs is not None else get_registry()
        self._c_evictions = reg.counter("sim.cache.evictions")
        self._c_parks = reg.counter("sim.cache.frame_wait_parks")
        self._g_wb_queue = reg.gauge("sim.cache.writebehind_queue_depth")
        self._blocks: dict[tuple[int, int], Block] = {}
        self._clean_lru: OrderedDict[tuple[int, int], Block] = OrderedDict()
        self._frame_waiters: deque[Callable[[], bool]] = deque()
        self._owner_counts: dict[int, int] = {}
        self._streams: dict[int, _StreamState] = {}
        #: known file sizes, bounding prefetch past end-of-file
        self._file_sizes = dict(file_sizes or {})
        self.outstanding_flushes = 0
        self._delayed_flushes: dict[int, list["_DelayedFlush"]] = {}
        self.on_drained: Callable[[], None] | None = None

    # ------------------------------------------------------------------
    # Public request API
    # ------------------------------------------------------------------
    def read(
        self,
        file_id: int,
        offset: int,
        length: int,
        owner: int,
        on_complete: Callable[[], None],
    ) -> None:
        """Demand read.

        ``on_complete(cpu_penalty_s)`` fires (synchronously for resident
        data) once all bytes are available; its argument is the SSD
        copy-through cost the caller must charge as CPU time.
        """
        if length <= 0:
            raise SimulationError("read length must be positive")
        stats = self.metrics.cache
        stats.read_requests += 1
        stats.read_bytes += length
        self.metrics.record_demand(self.engine.now, length)
        self._note_file_size(file_id, offset + length)

        if self.degraded:
            self.metrics.faults.degraded_requests += 1
            self._bypass_read(file_id, offset, length, on_complete)
            return
        if self._oversized(offset, length, owner):
            self._bypass_read(file_id, offset, length, on_complete)
            return
        pending = _PendingRead(self, file_id, offset, length, owner, on_complete)
        if not pending.start():
            self.park_for_frames(pending.start)
        self._after_demand_read(file_id, offset, length, owner)

    def write(
        self,
        file_id: int,
        offset: int,
        length: int,
        owner: int,
        on_complete: Callable[[], None],
    ) -> None:
        """Demand write; completion timing depends on the write policy."""
        if length <= 0:
            raise SimulationError("write length must be positive")
        stats = self.metrics.cache
        stats.write_requests += 1
        stats.write_bytes += length
        self.metrics.record_demand(self.engine.now, length)
        self._note_file_size(file_id, offset + length)

        if self.degraded:
            self.metrics.faults.degraded_requests += 1
            self._bypass_write(file_id, offset, length, on_complete)
            return
        if self._oversized(offset, length, owner):
            self._bypass_write(file_id, offset, length, on_complete)
            return
        pending = _PendingWrite(self, file_id, offset, length, owner, on_complete)
        if not pending.start():
            self.park_for_frames(pending.start)

    # ------------------------------------------------------------------
    # Oversized-request bypass
    # ------------------------------------------------------------------
    def _oversized(self, offset: int, length: int, owner: int) -> bool:
        """True when the request can never be framed: bigger than the
        cache itself, or bigger than the owner's buffer cap.  Such
        requests go straight to the disk (the classic bypass), otherwise
        they would park forever.
        """
        first, last = self._block_span(offset, length)
        needed = last - first + 1
        if needed > self.config.n_blocks:
            return True
        cap = self.config.max_blocks_per_process
        return cap is not None and needed > cap

    def _bypass_read(
        self, file_id: int, offset: int, length: int, on_complete
    ) -> None:
        self.metrics.cache.bypass_requests += 1
        # Degraded requests never touched the (failed) SSD, so no
        # copy-through penalty.
        penalty = 0.0 if self.degraded else self.config.hit_penalty_s(length)
        # A failed read still unblocks the requester: the I/O is
        # *reported* failed (device counters) rather than lost.
        self.device.submit(
            file_id,
            offset,
            length,
            is_write=False,
            on_done=lambda ok: on_complete(penalty),
        )

    def _bypass_write(
        self, file_id: int, offset: int, length: int, on_complete
    ) -> None:
        self.metrics.cache.bypass_requests += 1
        penalty = 0.0 if self.degraded else self.config.hit_penalty_s(length)
        if self.config.write_behind:
            # The device streams straight from the writer's memory; the
            # writer continues once the transfer is handed off.
            self.outstanding_flushes += 1
            self._g_wb_queue.set_max(self.outstanding_flushes)

            def finished(ok: bool) -> None:
                if not ok:
                    # No cache frames to re-flush from: the data is gone.
                    self.metrics.faults.lost_bytes += length
                self.outstanding_flushes -= 1
                if self.outstanding_flushes == 0 and self.on_drained is not None:
                    self.on_drained()

            self.device.submit(
                file_id, offset, length, is_write=True, on_done=finished
            )
            on_complete(penalty)
        else:
            self.device.submit(
                file_id,
                offset,
                length,
                is_write=True,
                on_done=lambda ok: on_complete(penalty),
            )

    # ------------------------------------------------------------------
    # Geometry / bookkeeping
    # ------------------------------------------------------------------
    def _block_span(self, offset: int, length: int) -> tuple[int, int]:
        """(first_block, last_block) covering [offset, offset+length)."""
        bs = self.config.block_bytes
        return offset // bs, (offset + length - 1) // bs

    def _note_file_size(self, file_id: int, end: int) -> None:
        if end > self._file_sizes.get(file_id, 0):
            self._file_sizes[file_id] = end

    @property
    def resident_blocks(self) -> int:
        return len(self._blocks)

    def owner_blocks(self, owner: int) -> int:
        return self._owner_counts.get(owner, 0)

    def make_valid(self, block: Block) -> None:
        """Transition a block to clean-resident and put it at MRU."""
        if block.state is _VALID:
            self._clean_lru.move_to_end(block.key)
            return
        block.state = _VALID
        self._clean_lru[block.key] = block

    def make_unclean(self, block: Block, state: BlockState) -> None:
        """Transition a block out of the evictable pool."""
        if block.state is _VALID:
            self._clean_lru.pop(block.key, None)
        block.state = state

    # ------------------------------------------------------------------
    # Frame management
    # ------------------------------------------------------------------
    def _over_cap(self, owner: int, extra: int) -> bool:
        cap = self.config.max_blocks_per_process
        return cap is not None and self.owner_blocks(owner) + extra > cap

    def try_allocate_run(
        self, keys: list[tuple[int, int]], owner: int, state: BlockState
    ) -> list[Block] | None:
        """Install a run of absent blocks, evicting clean LRU as needed.

        All-or-nothing: returns None (no side effects) when not enough
        frames can be freed.  With an ownership cap, an over-cap process
        may only recycle its *own* clean frames.
        """
        needed = len(keys)
        if needed == 0:
            return []
        capped = self._over_cap(owner, needed)
        if capped:
            victims: list[Block] = []
            cap = self.config.max_blocks_per_process
            assert cap is not None
            allowed_new = max(0, cap - self.owner_blocks(owner))
            must_recycle = needed - allowed_new
            for block in self._clean_lru.values():
                if len(victims) >= must_recycle:
                    break
                if block.owner == owner:
                    victims.append(block)
            if len(victims) < must_recycle:
                return None
        else:
            free = self.config.n_blocks - len(self._blocks)
            must_evict = needed - free
            if must_evict > 0:
                if must_evict > len(self._clean_lru):
                    return None
                victims = []
                for block in self._clean_lru.values():
                    victims.append(block)
                    if len(victims) >= must_evict:
                        break
            else:
                victims = []

        if victims:
            self._c_evictions.inc(len(victims))
        for victim in victims:
            self._drop(victim)
        blocks = []
        counts = self._owner_counts
        counts[owner] = counts.get(owner, 0) + needed
        for key in keys:
            block = Block(key, state, owner)
            self._blocks[key] = block
            if state is _VALID:
                self._clean_lru[key] = block
            blocks.append(block)
        return blocks

    def _drop(self, block: Block) -> None:
        self._clean_lru.pop(block.key, None)
        del self._blocks[block.key]
        self._owner_counts[block.owner] = self._owner_counts.get(block.owner, 1) - 1

    def park_for_frames(self, retry: Callable[[], bool]) -> None:
        """Queue a retry closure to run when frames may be available."""
        self.metrics.cache.frame_stalls += 1
        self._c_parks.inc()
        self._frame_waiters.append(retry)

    def _kick_frame_waiters(self) -> None:
        n = len(self._frame_waiters)
        for _ in range(n):
            retry = self._frame_waiters.popleft()
            if not retry():
                self._frame_waiters.append(retry)

    # ------------------------------------------------------------------
    # Disk interaction
    # ------------------------------------------------------------------
    def issue_disk_read(
        self,
        file_id: int,
        offset: int,
        length: int,
        blocks: list[Block],
        on_done: Callable[[], None] | None = None,
    ) -> None:
        """One disk read covering ``blocks``; marks them VALID on arrival.

        When the device reports failure (retries exhausted), the READING
        frames are abandoned -- dropped from the cache so a later demand
        read retries from disk -- and any waiters are released anyway:
        the requester's I/O is reported failed, not lost.
        """

        def arrive(ok: bool) -> None:
            for block in blocks:
                # A write may have overwritten the block while the read
                # was in flight (state FLUSHING); only READING blocks
                # settle to VALID (or, on failure, get abandoned).
                if block.state is _READING:
                    if ok:
                        self.make_valid(block)
                    else:
                        self._drop(block)
                if block.waiters:
                    waiters, block.waiters = block.waiters, None
                    for w in waiters:
                        w()
            if on_done is not None:
                on_done()
            if self._frame_waiters:
                self._kick_frame_waiters()

        self.device.submit(file_id, offset, length, is_write=False, on_done=arrive)

    def issue_disk_write(
        self,
        file_id: int,
        offset: int,
        length: int,
        blocks: list[Block],
        on_done: Callable[[], None] | None = None,
        *,
        reflush: int = 0,
    ) -> None:
        """One disk write covering ``blocks``; they become clean on finish.

        When the device reports failure, blocks still dirty-in-flight are
        re-queued (back to DIRTY, re-flushed after ``reflush_delay_s``) up
        to ``max_reflushes`` times; past that the data is dropped and
        counted as lost.  The ``outstanding_flushes`` latch is held across
        the whole retry saga so the drain callback cannot fire while a
        re-flush is pending.
        """
        for block in blocks:
            self.make_unclean(block, _FLUSHING)
        self.outstanding_flushes += 1
        self._g_wb_queue.set_max(self.outstanding_flushes)

        def finished(ok: bool) -> None:
            if not ok:
                live = [
                    b
                    for b in blocks
                    if b.state is _FLUSHING and self._blocks.get(b.key) is b
                ]
                if live and reflush < self.recovery.max_reflushes:
                    self.metrics.faults.reflushes += 1
                    for b in live:
                        b.state = _DIRTY

                    def redo() -> None:
                        self.outstanding_flushes -= 1
                        still = [
                            b
                            for b in live
                            if b.state is _DIRTY and self._blocks.get(b.key) is b
                        ]
                        self._issue_flush_runs(
                            file_id, still, on_done, reflush=reflush + 1
                        )

                    # Latch stays held until redo() runs (decrement and
                    # re-issue are back to back, so drain cannot slip in).
                    self.engine.schedule(self.recovery.reflush_delay_s, redo)
                    return
                if live:
                    # Retries and re-flushes exhausted: write-behind data
                    # is dropped -- this is the data-at-risk turning into
                    # data lost.
                    self.metrics.faults.lost_bytes += (
                        len(live) * self.config.block_bytes
                    )
                    for b in live:
                        self._drop(b)
            else:
                for block in blocks:
                    if (
                        block.state is _FLUSHING
                        and self._blocks.get(block.key) is block
                    ):
                        self.make_valid(block)
            self.outstanding_flushes -= 1
            if on_done is not None:
                on_done()
            if self._frame_waiters:
                self._kick_frame_waiters()
            if self.outstanding_flushes == 0 and self.on_drained is not None:
                self.on_drained()

        self.device.submit(file_id, offset, length, is_write=True, on_done=finished)

    def _issue_flush_runs(
        self,
        file_id: int,
        blocks: list[Block],
        on_done: Callable[[], None] | None,
        *,
        reflush: int = 0,
    ) -> None:
        """Flush a (possibly sparse) set of dirty blocks as contiguous runs.

        Used when only part of an extent still needs writing -- a re-flush
        after failure, or a delayed flush some of whose blocks were
        already flushed by an overlapping extent.  ``on_done`` rides on
        the last run; with no runs at all it fires synchronously along
        with the drain check the skipped write would have performed.
        """
        if not blocks:
            if on_done is not None:
                on_done()
            if self.outstanding_flushes == 0 and self.on_drained is not None:
                self.on_drained()
            return
        bs = self.config.block_bytes
        blocks = sorted(blocks, key=lambda b: b.key[1])
        runs: list[list[Block]] = [[blocks[0]]]
        for block in blocks[1:]:
            if block.key[1] == runs[-1][-1].key[1] + 1:
                runs[-1].append(block)
            else:
                runs.append([block])
        for i, run in enumerate(runs):
            run_off = run[0].key[1] * bs
            run_len = len(run) * bs
            done = on_done if i == len(runs) - 1 else None
            self.issue_disk_write(
                file_id, run_off, run_len, run, done, reflush=reflush
            )

    # ------------------------------------------------------------------
    # Delayed writes (Sprite-style, section 2.1)
    # ------------------------------------------------------------------
    def schedule_delayed_flush(
        self, file_id: int, offset: int, length: int, blocks: list[Block]
    ) -> None:
        """Hold dirty blocks for ``flush_delay_s`` before flushing.

        If :meth:`discard_file` removes the file before the delay
        expires -- a compiler temporary deleted young -- the disk write
        never happens: "temporary files which exist for less than 30
        seconds ... [are] never written to disk".
        """
        for block in blocks:
            self.make_unclean(block, _DIRTY)
        handle = _DelayedFlush(file_id, offset, length, blocks)
        self._delayed_flushes.setdefault(file_id, []).append(handle)
        self.outstanding_flushes += 1  # keeps drain accounting honest
        self._g_wb_queue.set_max(self.outstanding_flushes)

        def fire() -> None:
            self.outstanding_flushes -= 1
            pending = self._delayed_flushes.get(file_id)
            if pending and handle in pending:
                pending.remove(handle)
            if handle.cancelled:
                if self.outstanding_flushes == 0 and self.on_drained is not None:
                    self.on_drained()
                return
            # Only blocks still DIRTY belong to this flush.  A block that
            # was rewritten during the delay is owned by the *newer*
            # delayed extent (state DIRTY but re-queued -- identity still
            # holds, so it stays here and the newer flush finds it
            # FLUSHING and skips it); one that was already flushed or
            # evicted is FLUSHING/VALID/absent and writing it again would
            # double-count the bytes in the write statistics.
            live = [
                b
                for b in blocks
                if b.state is _DIRTY and self._blocks.get(b.key) is b
            ]
            if len(live) == len(blocks):
                # Whole extent intact: one contiguous write, exactly as
                # originally queued.
                self.issue_disk_write(file_id, offset, length, live)
            else:
                self._issue_flush_runs(file_id, live, None)

        self.engine.schedule(self.config.flush_delay_s, fire)

    def discard_file(self, file_id: int) -> int:
        """Drop a deleted file: cancel its pending delayed flushes and
        free its resident clean/dirty frames.  Returns the number of
        cancelled flush extents (blocks already FLUSHING are beyond
        recall and complete normally).
        """
        cancelled = 0
        for handle in self._delayed_flushes.get(file_id, []):
            if not handle.cancelled:
                handle.cancelled = True
                cancelled += 1
                self.metrics.cache.writes_cancelled += 1
        for key in [k for k in self._blocks if k[0] == file_id]:
            block = self._blocks[key]
            if block.state in (_VALID, _DIRTY):
                self._drop(block)
        self._streams.pop(file_id, None)
        if cancelled:
            self._kick_frame_waiters()
        return cancelled

    # ------------------------------------------------------------------
    # Faults: data at risk, degraded mode
    # ------------------------------------------------------------------
    def dirty_bytes(self) -> int:
        """Write-behind bytes not yet safely on disk (data at risk).

        DIRTY blocks are waiting for their flush; FLUSHING blocks are in
        flight but unacknowledged.  A crash at this instant loses exactly
        this many bytes.
        """
        n = sum(
            1 for b in self._blocks.values() if b.state in (_DIRTY, _FLUSHING)
        )
        return n * self.config.block_bytes

    def enter_degraded(self) -> None:
        """The SSD died: dump its contents, route everything to disk.

        Resident clean data is simply gone (re-readable from disk);
        resident dirty data is lost with the device.  Blocks with disk
        transfers in flight (READING/FLUSHING) settle normally -- those
        transfers were already streaming.  Subsequent read/write requests
        bypass the cache entirely.
        """
        if self.degraded:
            return
        self.degraded = True
        self.metrics.faults.degraded_at_s = self.engine.now
        lost = 0
        for block in list(self._blocks.values()):
            if block.state is _DIRTY:
                lost += 1
                self._drop(block)
            elif block.state is _VALID:
                self._drop(block)
        self.metrics.faults.lost_bytes += lost * self.config.block_bytes
        # Parked requests retry through their original (cache-mediated)
        # closure; the pool just emptied, so let them finish that way.
        self._kick_frame_waiters()

    # ------------------------------------------------------------------
    # Read-ahead
    # ------------------------------------------------------------------
    def _after_demand_read(
        self, file_id: int, offset: int, length: int, owner: int
    ) -> None:
        if not self.config.read_ahead:
            return
        stream = self._streams.get(file_id)
        end = offset + length
        if stream is not None and offset == stream.next_offset:
            stream.next_offset = end
            stream.length = length
            self._prefetch(file_id, stream, owner)
        else:
            self._streams[file_id] = _StreamState(next_offset=end, length=length)

    def _prefetch(self, file_id: int, stream: _StreamState, owner: int) -> None:
        depth = self.config.auto_depth(stream.length)
        window_end = stream.next_offset + depth * stream.length
        file_end = self._file_sizes.get(file_id, 0)
        window_end = min(window_end, file_end)
        start = max(stream.prefetch_until, stream.next_offset)
        bs = self.config.block_bytes
        while start < window_end:
            length = min(stream.length, window_end - start)
            first, last = self._block_span(start, length)
            # Only prefetch runs of absent blocks; stop growing the window
            # when frames are unavailable (prefetch never parks).
            absent = [
                (file_id, b)
                for b in range(first, last + 1)
                if (file_id, b) not in self._blocks
            ]
            if absent:
                blocks = self.try_allocate_run(absent, owner, _READING)
                if blocks is None:
                    break
                for block in blocks:
                    block.prefetched = True
                run_off = absent[0][1] * bs
                run_len = (absent[-1][1] - absent[0][1] + 1) * bs
                self.metrics.cache.prefetch_issued += 1
                self.metrics.cache.prefetch_blocks += len(blocks)
                self.issue_disk_read(file_id, run_off, run_len, blocks)
            start += length
            stream.prefetch_until = start


class _PendingRead:
    """State machine for one demand read."""

    __slots__ = (
        "cache",
        "file_id",
        "offset",
        "length",
        "owner",
        "on_complete",
        "outstanding",
        "counted",
    )

    def __init__(
        self,
        cache: BufferCache,
        file_id: int,
        offset: int,
        length: int,
        owner: int,
        on_complete: Callable[[], None],
    ):
        self.cache = cache
        self.file_id = file_id
        self.offset = offset
        self.length = length
        self.owner = owner
        self.on_complete = on_complete
        self.outstanding = 0
        self.counted = False  # stats recorded once, even across retries

    def start(self) -> bool:
        """Classify blocks and issue disk reads; False to retry later."""
        cache = self.cache
        blocks_map = cache._blocks
        clean_lru = cache._clean_lru
        stats = cache.metrics.cache
        first, last = cache._block_span(self.offset, self.length)
        fid = self.file_id

        missing_runs: list[list[tuple[int, int]]] = []
        run: list[tuple[int, int]] | None = None
        wait_blocks: list[Block] = []
        n_hit = n_miss = n_inflight = n_ra_hit = 0

        for b in range(first, last + 1):
            key = (fid, b)
            block = blocks_map.get(key)
            if block is None:
                n_miss += 1
                if run is None:
                    run = [key]
                    missing_runs.append(run)
                else:
                    run.append(key)
                continue
            run = None
            if block.state is _READING:
                n_inflight += 1
                wait_blocks.append(block)
            else:
                n_hit += 1
                if block.prefetched:
                    n_ra_hit += 1
                    block.prefetched = False
                if block.state is _VALID:
                    clean_lru.move_to_end(key)

        # Allocate every missing run up front; all-or-nothing.
        allocated: list[tuple[list[tuple[int, int]], list[Block]]] = []
        for keys in missing_runs:
            blocks = cache.try_allocate_run(keys, self.owner, _READING)
            if blocks is None:
                for _, done in allocated:
                    for blk in done:
                        cache._drop(blk)
                return False
            allocated.append((keys, blocks))

        if not self.counted:
            stats.block_hits += n_hit
            stats.block_misses += n_miss
            stats.block_inflight_hits += n_inflight
            stats.readahead_hits += n_ra_hit
            self.counted = True

        self.outstanding = len(allocated) + len(wait_blocks)

        for block in wait_blocks:
            if block.waiters is None:
                block.waiters = []
            block.waiters.append(self._one_arrived)
        bs = cache.config.block_bytes
        for keys, blocks in allocated:
            run_off = keys[0][1] * bs
            run_len = (keys[-1][1] - keys[0][1] + 1) * bs
            cache.issue_disk_read(fid, run_off, run_len, blocks, self._one_arrived)

        if self.outstanding == 0:
            self._finish()
        return True

    def _one_arrived(self) -> None:
        self.outstanding -= 1
        if self.outstanding == 0:
            self._finish()

    def _finish(self) -> None:
        # Completion is synchronous; the SSD's per-KB penalty is *CPU*
        # time, not a sleep -- "I/Os to and from the SSD are done without
        # suspending the process" -- so it is handed to the caller to
        # charge as computation.
        self.on_complete(self.cache.config.hit_penalty_s(self.length))


class _PendingWrite:
    """State machine for one demand write."""

    __slots__ = ("cache", "file_id", "offset", "length", "owner", "on_complete")

    def __init__(
        self,
        cache: BufferCache,
        file_id: int,
        offset: int,
        length: int,
        owner: int,
        on_complete: Callable[[], None],
    ):
        self.cache = cache
        self.file_id = file_id
        self.offset = offset
        self.length = length
        self.owner = owner
        self.on_complete = on_complete

    def start(self) -> bool:
        cache = self.cache
        blocks_map = cache._blocks
        first, last = cache._block_span(self.offset, self.length)
        fid = self.file_id

        present: list[Block] = []
        absent: list[tuple[int, int]] = []
        for b in range(first, last + 1):
            key = (fid, b)
            block = blocks_map.get(key)
            if block is None:
                absent.append(key)
            else:
                present.append(block)
        new_blocks = cache.try_allocate_run(absent, self.owner, _VALID)
        if new_blocks is None:
            return False
        for block in present:
            block.prefetched = False
        # Settle in block order: it is the order the blocks join the
        # clean LRU when the write completes.
        blocks = sorted(present + new_blocks, key=lambda b: b.key[1])

        if cache.config.write_behind:
            # Data lands in the cache; the writer continues immediately,
            # paying only the (SSD) copy-in penalty as CPU; the flush
            # happens behind its back (optionally after a Sprite-style
            # delay, during which a deleted file escapes the disk).
            cache.metrics.cache.writes_absorbed += 1
            if cache.config.flush_delay_s > 0:
                cache.schedule_delayed_flush(fid, self.offset, self.length, blocks)
            else:
                cache.issue_disk_write(fid, self.offset, self.length, blocks)
            self.on_complete(cache.config.hit_penalty_s(self.length))
        else:
            # Write-through: the writer waits for the disk; the copy-in
            # penalty is charged on wake-up.
            penalty = cache.config.hit_penalty_s(self.length)
            cache.issue_disk_write(
                fid,
                self.offset,
                self.length,
                blocks,
                lambda: self.on_complete(penalty),
            )
        return True
