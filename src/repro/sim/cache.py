"""The buffer cache: read-ahead, write-behind, LRU frames, SSD penalties.

This is the object under study in section 6.  It sits between the
trace-replay processes and the disk model:

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

Hot-path structure: columnar frames, run-coalesced bookkeeping
--------------------------------------------------------------
Request sizes span two regimes.  A staged venus request covers ~100
4 KB frames; section 6.3's applications on the 32 KB-block SSD mostly
ask for 1-2 blocks.  Representing each frame as a Python object (the
approach kept verbatim in :mod:`repro.sim.cache_legacy`) makes the
simulator allocate and destroy millions of objects per run; this
implementation stores frame metadata in per-file columns instead:

* ``st`` -- block state (absent / reading / valid / dirty / flushing),
* ``own`` -- owning process, ``pf`` -- prefetched flag,
* ``gen`` -- a generation counter bumped on every allocate/drop, which
  replaces the legacy per-object identity checks: an in-flight disk
  completion only settles positions whose generation still matches its
  allocation snapshot, exactly as the legacy closures only settled
  ``Block`` objects still present in the block map,
* ``nid`` -- id of the clean-LRU run node currently holding the block.

``st``, ``pf`` and ``nid`` live in a ``bytearray`` or ``array('q')``
under a zero-copy NumPy view (see :class:`_FileFrames`).  Spans wider
than ``_SHORT_SPAN`` blocks are classified, allocated, evicted, settled
and flushed with slice operations over ``(first_block, n_blocks)``
extents.  Shorter spans -- where NumPy's fixed per-call cost would
dominate -- take a scalar branch on the same buffers:
``bytearray.count``/``find`` classify the span (an all-clean read hit,
a prefetch window with nothing absent, a rewrite of resident blocks)
and the few blocks are walked in plain Python.  The clean-LRU
is a doubly-linked list of :class:`_CleanRun` nodes, one per run of
blocks that became evictable together; eviction pops whole nodes off
the LRU head, splitting at most one per allocation, and a hit that
covers a whole node relinks it in O(1).  Per-block LRU order is
preserved by construction -- runs enter in ascending block order, and
partial touches extract a slice to the MRU end while the remainder
keeps its node's place -- so eviction victims, hence the disk request
sequence and the seeded rotational-delay RNG stream, are bit-identical
to the legacy implementation on both branches (asserted by the
differential digest tests in ``tests/sim/test_hotpath_differential.py``).
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from repro.obs.registry import get_registry
from repro.sim.config import CacheConfig, FaultConfig, RecoveryConfig
from repro.sim.devices import DiskModel
from repro.sim.events import Engine
from repro.sim.faults import FaultInjector
from repro.sim.metrics import Metrics
from repro.sim.recovery import RecoveringDevice
from repro.util.errors import SimulationError


class BlockState(Enum):
    """Block lifecycle states (exported for API compatibility; the
    columnar hot path stores them as small ints in the ``st`` column)."""

    READING = 1  #: disk read in flight; frame pinned
    VALID = 2  #: clean resident; evictable
    DIRTY = 3  #: written, awaiting flush start
    FLUSHING = 4  #: disk write in flight; frame pinned


_ABSENT = 0
_READING = BlockState.READING.value
_VALID = BlockState.VALID.value
_DIRTY = BlockState.DIRTY.value
_FLUSHING = BlockState.FLUSHING.value

#: Spans of at most this many blocks are classified and updated in plain
#: Python over the frame buffers; wider ones use NumPy slice operations.
#: NumPy's fixed cost per call (~1 us) outweighs a scalar loop below
#: about this width.  Section 6.3's per-app SSD runs (1-2 block
#: requests) fall below it, the Figure 8 sweep (57-128 blocks) above.
_SHORT_SPAN = 16


class _FileFrames:
    """Columnar frame metadata for one file, grown on demand.

    ``st``, ``pf`` and ``nid`` are zero-copy NumPy views of the
    ``st_buf``/``pf_buf`` bytearrays and the ``nid_buf`` ``array('q')``,
    which short spans index as plain ints.  ``own`` and ``gen`` stay
    NumPy arrays: short spans touch them rarely, and ``np.zeros`` leaves
    the never-used tail of a file-sized table unresident where an
    ``array('q')`` would fill it.
    """

    __slots__ = ("st_buf", "pf_buf", "nid_buf", "st", "pf", "nid", "own", "gen")

    def __init__(self, n_blocks: int):
        self.own = np.zeros(n_blocks, dtype=np.int64)
        self.gen = np.zeros(n_blocks, dtype=np.int64)
        self._bind(
            bytearray(n_blocks), bytearray(n_blocks), array("q", [-1]) * n_blocks
        )

    def grow(self, n_blocks: int) -> None:
        extra = n_blocks - self.st.size
        self.own = np.concatenate([self.own, np.zeros(extra, dtype=np.int64)])
        self.gen = np.concatenate([self.gen, np.zeros(extra, dtype=np.int64)])
        # A buffer under a live view cannot resize in place: concatenate
        # into new buffers and rebind the views to them.
        self._bind(
            self.st_buf + bytearray(extra),
            self.pf_buf + bytearray(extra),
            self.nid_buf + array("q", [-1]) * extra,
        )

    def _bind(self, st: bytearray, pf: bytearray, nid: array) -> None:
        self.st_buf, self.pf_buf, self.nid_buf = st, pf, nid
        self.st = np.frombuffer(st, dtype=np.uint8)
        self.pf = np.frombuffer(pf, dtype=bool)
        self.nid = np.frombuffer(nid, dtype=np.int64)


class _Run:
    """Handle to a set of frames captured at allocation time.

    ``idx`` holds ascending block numbers (possibly with gaps, for
    prefetch over partially-resident spans); ``gen`` is the generation
    snapshot.  Disk completions act only on positions whose current
    generation still equals the snapshot -- the columnar equivalent of
    the legacy ``self._blocks.get(b.key) is b`` identity checks.
    """

    __slots__ = ("fid", "idx", "gen")

    def __init__(self, fid: int, idx: np.ndarray, gen: np.ndarray):
        self.fid = fid
        self.idx = idx
        self.gen = gen


class _CleanRun:
    """A run of clean blocks occupying one slot of the LRU list.

    ``idx`` is in per-block LRU order (ascending block numbers for
    blocks that entered together).  Eviction takes whole nodes off the
    LRU head, slicing the last one when only part of it is needed.
    """

    __slots__ = ("fid", "idx", "id", "prev", "next")

    def __init__(self, fid: int, idx: np.ndarray, node_id: int):
        self.fid = fid
        self.idx = idx
        self.id = node_id
        self.prev: _CleanRun | None = None
        self.next: _CleanRun | None = None


class _DelayedFlush:
    """A dirty extent waiting out its Sprite-style delay."""

    __slots__ = ("file_id", "offset", "length", "run", "cancelled")

    def __init__(self, file_id: int, offset: int, length: int, run: _Run):
        self.file_id = file_id
        self.offset = offset
        self.length = length
        self.run = run
        self.cancelled = False


@dataclass(slots=True)
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
        # Hot-path locals: resolved once so the per-request code performs
        # zero registry lookups and no repeated attribute chains.
        self._stats = metrics.cache
        self._record_demand = metrics.record_demand
        #: Mutation epoch: bumped whenever block states, prefetch bits,
        #: stream state, frame-table geometry or known file sizes change
        #: through the full (slow) request paths.  The batch kernel
        #: (:mod:`repro.sim.batch`) memoises whole-run classifications
        #: keyed by this counter: while it holds, nothing the memo
        #: depends on can have changed, because the kernel's own fast
        #: commits deliberately do not bump it.  Over-bumping is always
        #: safe (it only forces a re-classification), so the increment
        #: sites err on the side of coverage.
        self.epoch = 0
        self._files: dict[int, _FileFrames] = {}
        self._resident = 0
        self._lru_head: _CleanRun | None = None
        self._lru_tail: _CleanRun | None = None
        self._clean_count = 0
        self._next_node_id = 0
        self._nodes: dict[int, _CleanRun] = {}
        #: waiters keyed by (file_id, block, generation): callbacks of
        #: demand reads overlapping a block whose disk read is in flight
        self._waiters: dict[tuple[int, int, int], list[Callable[[], None]]] = {}
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
        stats = self._stats
        stats.read_requests += 1
        stats.read_bytes += length
        self._record_demand(self.engine.now, length)
        if offset + length > self._file_sizes.get(file_id, 0):
            self._file_sizes[file_id] = offset + length
            self.epoch += 1

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
        stats = self._stats
        stats.write_requests += 1
        stats.write_bytes += length
        self._record_demand(self.engine.now, length)
        if offset + length > self._file_sizes.get(file_id, 0):
            self._file_sizes[file_id] = offset + length
            self.epoch += 1

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
        self._stats.bypass_requests += 1
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
        self._stats.bypass_requests += 1
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

    def _file(self, file_id: int, n_blocks: int) -> _FileFrames:
        """The file's frame columns, grown to cover ``n_blocks``."""
        frames = self._files.get(file_id)
        if frames is None:
            bs = self.config.block_bytes
            hint = -(-self._file_sizes.get(file_id, 0) // bs)
            frames = _FileFrames(max(n_blocks, hint, 64))
            self._files[file_id] = frames
            self.epoch += 1
        elif frames.st.size < n_blocks:
            frames.grow(max(n_blocks, 2 * frames.st.size))
            self.epoch += 1
        return frames

    @property
    def resident_blocks(self) -> int:
        return self._resident

    def owner_blocks(self, owner: int) -> int:
        return self._owner_counts.get(owner, 0)

    def _drop_frames(self, frames: _FileFrames, idx: np.ndarray) -> None:
        """Free frames (state -> absent, generation bumped) and settle
        the owner accounting.  The clean-LRU is NOT touched: callers
        either evicted via the LRU already or are dropping pinned
        (reading/dirty/flushing) frames that were never on it.
        """
        counts = self._owner_counts
        n = idx.size
        if n == 1:
            b = int(idx[0])
            first_owner = int(frames.own[b])
            counts[first_owner] = counts.get(first_owner, 1) - 1
            frames.st_buf[b] = _ABSENT
            frames.gen[b] += 1
            self._resident -= 1
            self.epoch += 1
            return
        own = frames.own[idx]
        first_owner = int(own[0])
        if own[-1] == first_owner and (own == first_owner).all():
            # Runs are allocated by a single process, so most nodes are
            # single-owner; only write-extent settles can mix owners.
            counts[first_owner] = counts.get(first_owner, n) - n
        else:
            owners, counts_per = np.unique(own, return_counts=True)
            for owner, n in zip(owners, counts_per):
                counts[int(owner)] = counts.get(int(owner), int(n)) - int(n)
        frames.st[idx] = _ABSENT
        frames.gen[idx] += 1
        self._resident -= idx.size
        self.epoch += 1

    # ------------------------------------------------------------------
    # Clean-LRU run structure
    # ------------------------------------------------------------------
    def _lru_append(self, node: _CleanRun) -> None:
        """Link ``node`` at the MRU (tail) end."""
        tail = self._lru_tail
        node.prev = tail
        node.next = None
        if tail is None:
            self._lru_head = node
        else:
            tail.next = node
        self._lru_tail = node

    def _lru_unlink(self, node: _CleanRun) -> None:
        prev, nxt = node.prev, node.next
        if prev is None:
            self._lru_head = nxt
        else:
            prev.next = nxt
        if nxt is None:
            self._lru_tail = prev
        else:
            nxt.prev = prev
        node.prev = node.next = None

    def _clean_append(self, frames: _FileFrames, fid: int, idx) -> None:
        """Make frames clean-resident as one MRU run (O(1) list ops);
        ``idx`` is as for :meth:`_clean_touch`."""
        node_id = self._next_node_id
        self._next_node_id = node_id + 1
        node = _CleanRun(fid, np.asarray(idx, dtype=np.int64), node_id)
        self._nodes[node_id] = node
        n = len(idx)
        if n <= _SHORT_SPAN:
            st, nid = frames.st_buf, frames.nid_buf
            for b in idx:
                st[b] = _VALID
                nid[b] = node_id
        else:
            frames.st[idx] = _VALID
            frames.nid[idx] = node_id
        self._lru_append(node)
        self._clean_count += n
        self.epoch += 1

    def _node_runs(self, frames: _FileFrames, idx):
        """Yield ``(i, j, node)`` for each maximal run ``idx[i:j]`` on one
        clean-LRU node.  Short spans read the ``nid`` buffer lazily (a
        caller's split renumbers only blocks already yielded); wide spans
        group one vectorized snapshot.
        """
        n = len(idx)
        nodes = self._nodes
        if n > _SHORT_SPAN:
            nids = frames.nid[idx]
            cuts = (np.flatnonzero(nids[1:] != nids[:-1]) + 1).tolist()
            bounds = [0, *cuts, n]
            for k in range(len(bounds) - 1):
                yield bounds[k], bounds[k + 1], nodes[int(nids[bounds[k]])]
            return
        nid = frames.nid_buf
        i = 0
        while i < n:
            node_id = nid[idx[i]]
            j = i + 1
            while j < n and nid[idx[j]] == node_id:
                j += 1
            yield i, j, nodes[node_id]
            i = j

    def _clean_touch(self, frames: _FileFrames, idx) -> None:
        """Move already-clean frames to MRU, preserving per-block order.

        ``idx`` is ascending block numbers: an int64 array, or on short
        spans any sequence of ints (the all-clean read hit passes a
        ``range``).  Runs of consecutive frames sharing a node move
        together: a whole node is relinked in O(1); a partial slice is
        extracted to a new MRU node while the remainder keeps the node's
        LRU position -- exactly the per-block order the legacy
        ``move_to_end`` loop produced.
        """
        for i, j, node in self._node_runs(frames, idx):
            if j - i == node.idx.size:
                if node is not self._lru_tail:
                    self._lru_unlink(node)
                    self._lru_append(node)
            else:
                group = np.asarray(idx[i:j], dtype=np.int64)
                node.idx = np.setdiff1d(node.idx, group, assume_unique=True)
                node_id = self._next_node_id
                self._next_node_id = node_id + 1
                new_node = _CleanRun(node.fid, group, node_id)
                self._nodes[node_id] = new_node
                frames.nid[group] = node_id
                self._lru_append(new_node)

    def _clean_remove(self, frames: _FileFrames, idx) -> None:
        """Take specific clean frames out of the LRU (state untouched by
        this call; callers transition it right after).  Remaining frames
        of each affected node keep their relative order and the node
        keeps its LRU position.  ``idx`` is as for :meth:`_clean_touch`.
        """
        nodes = self._nodes
        for i, j, node in self._node_runs(frames, idx):
            if j - i == node.idx.size:
                self._lru_unlink(node)
                del nodes[node.id]
            else:
                group = np.asarray(idx[i:j], dtype=np.int64)
                node.idx = np.setdiff1d(node.idx, group, assume_unique=True)
        self._clean_count -= len(idx)

    # ------------------------------------------------------------------
    # Frame management
    # ------------------------------------------------------------------
    def _over_cap(self, owner: int, extra: int) -> bool:
        cap = self.config.max_blocks_per_process
        return cap is not None and self.owner_blocks(owner) + extra > cap

    def try_allocate_run(
        self, fid: int, idx: np.ndarray, owner: int, state: int
    ) -> _Run | None:
        """Install a run of absent frames, evicting clean LRU as needed.

        All-or-nothing: returns None (no side effects) when not enough
        frames can be freed.  With an ownership cap, an over-cap process
        may only recycle its *own* clean frames.  Eviction pops whole
        runs off the LRU head (splitting at most one), so the per-request
        cost is O(runs), not O(blocks).  ``state`` is ``_READING`` or
        ``_DIRTY``: new frames are pinned, never on the clean LRU.
        """
        needed = idx.size
        frames = self._files[fid]
        if needed == 0:
            return _Run(fid, idx, frames.gen[idx].copy())
        counts = self._owner_counts
        nodes = self._nodes
        if self._over_cap(owner, needed):
            cap = self.config.max_blocks_per_process
            assert cap is not None
            allowed_new = max(0, cap - counts.get(owner, 0))
            must_recycle = needed - allowed_new
            # Scan runs from the LRU head collecting this owner's clean
            # frames in per-block LRU order (node order, then in-node
            # order -- the order the legacy per-block scan visited).
            victims: list[tuple[_CleanRun, np.ndarray]] = []
            n_found = 0
            node = self._lru_head
            while node is not None and n_found < must_recycle:
                vf = self._files[node.fid]
                mine = node.idx[vf.own[node.idx] == owner]
                if mine.size:
                    take = min(mine.size, must_recycle - n_found)
                    victims.append((node, mine[:take]))
                    n_found += take
                node = node.next
            if n_found < must_recycle:
                return None
            self._c_evictions.inc(n_found)
            for node, vidx in victims:
                vframes = self._files[node.fid]
                if vidx.size == node.idx.size:
                    self._lru_unlink(node)
                    del nodes[node.id]
                else:
                    node.idx = np.setdiff1d(node.idx, vidx, assume_unique=True)
                self._drop_frames(vframes, vidx)
            self._clean_count -= n_found
        else:
            must_evict = needed - (self.config.n_blocks - self._resident)
            if must_evict > 0:
                if must_evict > self._clean_count:
                    return None
                self._c_evictions.inc(must_evict)
                node = self._lru_head
                remaining = must_evict
                while remaining:
                    k = node.idx.size
                    vframes = self._files[node.fid]
                    if k <= remaining:
                        self._drop_frames(vframes, node.idx)
                        remaining -= k
                        nxt = node.next
                        self._lru_unlink(node)
                        del nodes[node.id]
                        node = nxt
                    else:
                        self._drop_frames(vframes, node.idx[:remaining])
                        node.idx = node.idx[remaining:]
                        remaining = 0
                self._clean_count -= must_evict

        if needed <= _SHORT_SPAN:
            st, pf, own, gens = frames.st_buf, frames.pf_buf, frames.own, frames.gen
            for b in idx.tolist():
                st[b] = state
                own[b] = owner
                pf[b] = 0
                gens[b] += 1
            gen = frames.gen[idx]
        else:
            frames.st[idx] = state
            frames.own[idx] = owner
            frames.pf[idx] = False
            gen = frames.gen[idx] + 1
            frames.gen[idx] = gen
        counts[owner] = counts.get(owner, 0) + needed
        self._resident += needed
        self.epoch += 1
        return _Run(fid, idx, gen)

    def park_for_frames(self, retry: Callable[[], bool]) -> None:
        """Queue a retry closure to run when frames may be available."""
        self._stats.frame_stalls += 1
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
    def _fire_waiters(self, run: _Run) -> None:
        """Release demand reads waiting on frames of ``run``, in
        ascending block order (the order the legacy per-block loop fired
        them).  Generation matching scopes the firing to this run's
        incarnation of each block, like the legacy per-object waiter
        lists; the state may have moved on (e.g. overwritten to
        flushing) and the waiters are still released -- their data is in
        the cache either way.
        """
        fid = run.fid
        idx = run.idx
        lo = int(idx[0])
        hi = int(idx[-1])
        # Runs are usually gap-free; then membership is index arithmetic
        # instead of a searchsorted call per candidate key.
        contiguous = idx.size == hi - lo + 1
        matched: list[tuple[int, tuple[int, int, int]]] = []
        for key in self._waiters:
            kf, kb, kg = key
            if kf != fid or kb < lo or kb > hi:
                continue
            if contiguous:
                if run.gen[kb - lo] == kg:
                    matched.append((kb, key))
                continue
            pos = int(np.searchsorted(idx, kb))
            if pos < idx.size and idx[pos] == kb and run.gen[pos] == kg:
                matched.append((kb, key))
        matched.sort()
        for _, key in matched:
            for waiter in self._waiters.pop(key):
                waiter()

    def issue_disk_read(
        self,
        file_id: int,
        offset: int,
        length: int,
        run: _Run,
        on_done: Callable[[], None] | None = None,
    ) -> None:
        """One disk read covering ``run``; frames settle VALID on arrival.

        When the device reports failure (retries exhausted), the reading
        frames are abandoned -- dropped from the cache so a later demand
        read retries from disk -- and any waiters are released anyway:
        the requester's I/O is reported failed, not lost.
        """

        def arrive(ok: bool) -> None:
            # A write may have overwritten frames while the read was in
            # flight (state flushing); only still-reading frames of this
            # allocation settle to VALID (or, on failure, get abandoned).
            frames = self._files[file_id]
            idx = run.idx
            live = idx[
                (frames.gen[idx] == run.gen) & (frames.st[idx] == _READING)
            ]
            if ok:
                if live.size:
                    self._clean_append(frames, file_id, live)
            elif live.size:
                self._drop_frames(frames, live)
            if self._waiters:
                self._fire_waiters(run)
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
        run: _Run,
        on_done: Callable[[], None] | None = None,
        *,
        reflush: int = 0,
    ) -> None:
        """One disk write covering ``run``; frames become clean on finish.

        When the device reports failure, frames still dirty-in-flight are
        re-queued (back to dirty, re-flushed after ``reflush_delay_s``) up
        to ``max_reflushes`` times; past that the data is dropped and
        counted as lost.  The ``outstanding_flushes`` latch is held across
        the whole retry saga so the drain callback cannot fire while a
        re-flush is pending.
        """
        frames = self._files[file_id]
        idx = run.idx
        short = idx.size <= _SHORT_SPAN
        if short:
            # (block, generation) pairs of the allocation snapshot
            snapshot = list(zip(idx.tolist(), run.gen.tolist()))
            st, gen = frames.st_buf, frames.gen
            alive = [b for b, g in snapshot if gen[b] == g]
            clean = [b for b in alive if st[b] == _VALID]
            if clean:
                self._clean_remove(frames, clean)
            for b in alive:
                st[b] = _FLUSHING
        else:
            alive = idx[frames.gen[idx] == run.gen]
            clean = alive[frames.st[alive] == _VALID]
            if clean.size:
                self._clean_remove(frames, clean)
            frames.st[alive] = _FLUSHING
        self.epoch += 1
        self.outstanding_flushes += 1
        self._g_wb_queue.set_max(self.outstanding_flushes)

        def finished(ok: bool) -> None:
            frames = self._files[file_id]
            if short:
                st, gen = frames.st_buf, frames.gen
                live = [b for b, g in snapshot if gen[b] == g and st[b] == _FLUSHING]
            else:
                live = idx[(frames.gen[idx] == run.gen) & (frames.st[idx] == _FLUSHING)]
            if not ok:
                live = np.asarray(live, dtype=np.int64)
                if live.size and reflush < self.recovery.max_reflushes:
                    self.metrics.faults.reflushes += 1
                    frames.st[live] = _DIRTY
                    self.epoch += 1
                    live_gen = frames.gen[live]  # == the snapshot's: live matched it

                    def redo() -> None:
                        self.outstanding_flushes -= 1
                        f2 = self._files[file_id]
                        still_mask = (f2.gen[live] == live_gen) & (
                            f2.st[live] == _DIRTY
                        )
                        self._issue_flush_runs(
                            file_id,
                            _Run(file_id, live[still_mask], live_gen[still_mask]),
                            on_done,
                            reflush=reflush + 1,
                        )

                    # Latch stays held until redo() runs (decrement and
                    # re-issue are back to back, so drain cannot slip in).
                    self.engine.schedule(self.recovery.reflush_delay_s, redo)
                    return
                if live.size:
                    # Retries and re-flushes exhausted: write-behind data
                    # is dropped -- this is the data-at-risk turning into
                    # data lost.
                    self.metrics.faults.lost_bytes += (
                        int(live.size) * self.config.block_bytes
                    )
                    self._drop_frames(frames, live)
            elif len(live):
                self._clean_append(frames, file_id, live)
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
        run: _Run,
        on_done: Callable[[], None] | None,
        *,
        reflush: int = 0,
    ) -> None:
        """Flush a (possibly sparse) set of dirty frames as contiguous runs.

        Used when only part of an extent still needs writing -- a re-flush
        after failure, or a delayed flush some of whose frames were
        already flushed by an overlapping extent.  ``on_done`` rides on
        the last run; with no runs at all it fires synchronously along
        with the drain check the skipped write would have performed.
        """
        idx = run.idx
        if idx.size == 0:
            if on_done is not None:
                on_done()
            if self.outstanding_flushes == 0 and self.on_drained is not None:
                self.on_drained()
            return
        bs = self.config.block_bytes
        cut = np.flatnonzero(np.diff(idx) > 1) + 1
        starts = np.concatenate([[0], cut, [idx.size]])
        n_runs = starts.size - 1
        for i in range(n_runs):
            a, b = int(starts[i]), int(starts[i + 1])
            sub = _Run(file_id, idx[a:b], run.gen[a:b])
            run_off = int(idx[a]) * bs
            run_len = (b - a) * bs
            done = on_done if i == n_runs - 1 else None
            self.issue_disk_write(
                file_id, run_off, run_len, sub, done, reflush=reflush
            )

    # ------------------------------------------------------------------
    # Delayed writes (Sprite-style, section 2.1)
    # ------------------------------------------------------------------
    def schedule_delayed_flush(
        self, file_id: int, offset: int, length: int, run: _Run
    ) -> None:
        """Hold dirty frames for ``flush_delay_s`` before flushing.

        If :meth:`discard_file` removes the file before the delay
        expires -- a compiler temporary deleted young -- the disk write
        never happens: "temporary files which exist for less than 30
        seconds ... [are] never written to disk".
        """
        frames = self._files[file_id]
        idx = run.idx
        alive = idx[frames.gen[idx] == run.gen]
        clean = alive[frames.st[alive] == _VALID]
        if clean.size:
            self._clean_remove(frames, clean)
        frames.st[alive] = _DIRTY
        self.epoch += 1
        handle = _DelayedFlush(file_id, offset, length, run)
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
            # Only frames still dirty in this run's incarnation belong to
            # this flush.  A frame rewritten during the delay is owned by
            # the *newer* delayed extent (same generation, so it stays
            # here, and the newer flush finds it flushing and skips it);
            # one already flushed or evicted is flushing/valid/absent and
            # writing it again would double-count the bytes in the write
            # statistics.
            f2 = self._files[file_id]
            live = idx[(f2.gen[idx] == run.gen) & (f2.st[idx] == _DIRTY)]
            if live.size == idx.size:
                # Whole extent intact: one contiguous write, exactly as
                # originally queued.
                self.issue_disk_write(file_id, offset, length, run)
            else:
                self._issue_flush_runs(
                    file_id, _Run(file_id, live, f2.gen[live].copy()), None
                )

        self.engine.schedule(self.config.flush_delay_s, fire)

    def discard_file(self, file_id: int) -> int:
        """Drop a deleted file: cancel its pending delayed flushes and
        free its resident clean/dirty frames.  Returns the number of
        cancelled flush extents (frames already flushing are beyond
        recall and complete normally).
        """
        cancelled = 0
        for handle in self._delayed_flushes.get(file_id, []):
            if not handle.cancelled:
                handle.cancelled = True
                cancelled += 1
                self._stats.writes_cancelled += 1
        frames = self._files.get(file_id)
        if frames is not None:
            clean = np.flatnonzero(frames.st == _VALID)
            if clean.size:
                self._clean_remove(frames, clean)
            gone = np.flatnonzero((frames.st == _VALID) | (frames.st == _DIRTY))
            if gone.size:
                self._drop_frames(frames, gone)
        self._streams.pop(file_id, None)
        self.epoch += 1
        if cancelled:
            self._kick_frame_waiters()
        return cancelled

    # ------------------------------------------------------------------
    # Faults: data at risk, degraded mode
    # ------------------------------------------------------------------
    def dirty_bytes(self) -> int:
        """Write-behind bytes not yet safely on disk (data at risk).

        Dirty frames are waiting for their flush; flushing frames are in
        flight but unacknowledged.  A crash at this instant loses exactly
        this many bytes.
        """
        n = sum(
            f.st_buf.count(_DIRTY) + f.st_buf.count(_FLUSHING)
            for f in self._files.values()
        )
        return n * self.config.block_bytes

    def enter_degraded(self) -> None:
        """The SSD died: dump its contents, route everything to disk.

        Resident clean data is simply gone (re-readable from disk);
        resident dirty data is lost with the device.  Frames with disk
        transfers in flight (reading/flushing) settle normally -- those
        transfers were already streaming.  Subsequent read/write requests
        bypass the cache entirely.
        """
        if self.degraded:
            return
        self.degraded = True
        self.epoch += 1
        self.metrics.faults.degraded_at_s = self.engine.now
        lost = 0
        for frames in self._files.values():
            clean = np.flatnonzero(frames.st == _VALID)
            if clean.size:
                self._clean_remove(frames, clean)
            dirty = np.flatnonzero(frames.st == _DIRTY)
            lost += int(dirty.size)
            gone = np.flatnonzero((frames.st == _VALID) | (frames.st == _DIRTY))
            if gone.size:
                self._drop_frames(frames, gone)
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
        self.epoch += 1
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
        if start >= window_end:
            return
        first, last = self._block_span(start, window_end - start)
        st = self._files[file_id].st_buf
        if last < len(st) and st.find(_ABSENT, first, last + 1) < 0:
            # Nothing absent in the window: the scan below would issue
            # nothing and march straight to its end.
            stream.prefetch_until = window_end
            return
        bs = self.config.block_bytes
        while start < window_end:
            length = min(stream.length, window_end - start)
            first, last = self._block_span(start, length)
            frames = self._file(file_id, last + 1)
            # Only prefetch runs of absent blocks; stop growing the window
            # when frames are unavailable (prefetch never parks).
            if frames.st_buf.find(_ABSENT, first, last + 1) >= 0:
                absent = (
                    np.flatnonzero(frames.st[first:last + 1] == _ABSENT) + first
                )
                run = self.try_allocate_run(file_id, absent, owner, _READING)
                if run is None:
                    break
                frames.pf[absent] = True
                run_off = int(absent[0]) * bs
                run_len = (int(absent[-1]) - int(absent[0]) + 1) * bs
                self._stats.prefetch_issued += 1
                self._stats.prefetch_blocks += int(absent.size)
                self.issue_disk_read(file_id, run_off, run_len, run)
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
        """Classify the span and issue disk reads; False to retry later."""
        cache = self.cache
        cache.epoch += 1  # clears prefetch bits / touches LRU below
        stats = cache._stats
        first, last = cache._block_span(self.offset, self.length)
        end = last + 1
        span = end - first
        fid = self.file_id
        frames = cache._file(fid, end)
        if span <= _SHORT_SPAN and frames.st_buf.count(_VALID, first, end) == span:
            # All-clean short hit (section 6.3's common case): count and
            # clear prefetch bits, touch the LRU, complete inline.
            pf = frames.pf_buf
            n_ra_hit = pf.count(1, first, end)
            if n_ra_hit:
                pf[first:end] = bytes(span)
            cache._clean_touch(frames, range(first, end))
            if not self.counted:
                stats.block_hits += span
                stats.readahead_hits += n_ra_hit
                self.counted = True
            self._finish()
            return True
        seg = frames.st[first:end]

        if not seg.any():
            # Cold read: the whole span is one missing run.
            n_miss = span
            n_hit = n_inflight = n_ra_hit = 0
            missing: list[np.ndarray] = [np.arange(first, end)]
            reading = _EMPTY_IDX
        else:
            absent = np.flatnonzero(seg == _ABSENT)
            reading = np.flatnonzero(seg == _READING) + first
            n_miss = int(absent.size)
            n_inflight = int(reading.size)
            n_hit = span - n_miss - n_inflight
            if n_hit:
                resident = np.flatnonzero(seg >= _VALID) + first
                pf_hits = resident[frames.pf[resident]]
                n_ra_hit = int(pf_hits.size)
                if n_ra_hit:
                    frames.pf[pf_hits] = False
                touched = resident[frames.st[resident] == _VALID]
                if touched.size:
                    cache._clean_touch(frames, touched)
            else:
                n_ra_hit = 0
            if n_miss:
                cut = np.flatnonzero(np.diff(absent) > 1) + 1
                missing = [
                    part + first for part in np.split(absent, cut)
                ]
            else:
                missing = []

        # Allocate every missing run up front; all-or-nothing.
        allocated: list[_Run] = []
        for idx in missing:
            run = cache.try_allocate_run(fid, idx, self.owner, _READING)
            if run is None:
                for done in allocated:
                    cache._drop_frames(frames, done.idx)
                return False
            allocated.append(run)

        if not self.counted:
            stats.block_hits += n_hit
            stats.block_misses += n_miss
            stats.block_inflight_hits += n_inflight
            stats.readahead_hits += n_ra_hit
            self.counted = True

        self.outstanding = len(allocated) + n_inflight

        if n_inflight:
            waiters = cache._waiters
            gens = frames.gen[reading]
            for b, g in zip(reading, gens):
                key = (fid, int(b), int(g))
                lst = waiters.get(key)
                if lst is None:
                    waiters[key] = [self._one_arrived]
                else:
                    lst.append(self._one_arrived)
        bs = cache.config.block_bytes
        for run in allocated:
            run_off = int(run.idx[0]) * bs
            run_len = int(run.idx.size) * bs
            cache.issue_disk_read(fid, run_off, run_len, run, self._one_arrived)

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


_EMPTY_IDX = np.empty(0, dtype=np.int64)


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
        cache.epoch += 1  # dirties frames / clears prefetch bits below
        first, last = cache._block_span(self.offset, self.length)
        end = last + 1
        span = end - first
        fid = self.file_id
        frames = cache._file(fid, end)
        # Snapshot the whole span's generations before allocating: if the
        # allocation evicts one of this request's own present frames, its
        # bumped generation no longer matches and the extent write treats
        # it as dead (the legacy dead-Block ride-along case).
        gen_span = frames.gen[first:end].copy()
        if span <= _SHORT_SPAN and frames.st_buf.find(_ABSENT, first, end) < 0:
            # Short rewrite of resident blocks: nothing to allocate, and
            # every block's prefetch bit is cleared.
            frames.pf_buf[first:end] = bytes(span)
        else:
            seg = frames.st[first:end]
            if seg.any():
                absent = np.flatnonzero(seg == _ABSENT) + first
            else:
                absent = np.arange(first, end)
            # New frames go straight to dirty: every write path
            # immediately transitions them out of the clean pool anyway,
            # and nothing observes the LRU between allocation and that
            # transition, so skipping the clean-LRU round trip changes no
            # behavior.
            new_run = cache.try_allocate_run(fid, absent, self.owner, _DIRTY)
            if new_run is None:
                return False
            if absent.size != span:
                present = np.flatnonzero(frames.st[first:end] != _ABSENT) + first
                frames.pf[present] = False
            gen_span[absent - first] = new_run.gen
        run = _Run(fid, np.arange(first, end), gen_span)

        if cache.config.write_behind:
            # Data lands in the cache; the writer continues immediately,
            # paying only the (SSD) copy-in penalty as CPU; the flush
            # happens behind its back (optionally after a Sprite-style
            # delay, during which a deleted file escapes the disk).
            cache._stats.writes_absorbed += 1
            if cache.config.flush_delay_s > 0:
                cache.schedule_delayed_flush(fid, self.offset, self.length, run)
            else:
                cache.issue_disk_write(fid, self.offset, self.length, run)
            self.on_complete(cache.config.hit_penalty_s(self.length))
        else:
            # Write-through: the writer waits for the disk; the copy-in
            # penalty is charged on wake-up.
            penalty = cache.config.hit_penalty_s(self.length)
            cache.issue_disk_write(
                fid,
                self.offset,
                self.length,
                run,
                lambda: self.on_complete(penalty),
            )
        return True
