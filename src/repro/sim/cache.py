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

Hot-path structure: extent-native frames
----------------------------------------
A staged venus request covers ~100 4 KB frames; section 6.3's
applications on the 32 KB-block SSD mostly ask for 1-2 blocks.  Rather
than a Python object per frame, frame metadata lives in per-file
columns:

* ``st`` -- block state (absent / reading / valid / dirty / flushing),
* ``own`` -- owning process, kept only under an ownership cap,
* ``pf`` -- prefetched flag,
* ``gen`` -- the id of the allocation that installed the block, from
  one cache-wide counter: a disk completion settles only blocks still
  carrying its allocation's id and in the state it left them (a
  dropped block is absent),
* ``nid`` -- id of the clean-LRU node holding the block.

``st`` and ``pf`` are ``bytearray`` buffers, ``gen`` and ``nid``
``array('q')`` buffers; ``st``, ``gen`` and ``nid`` also have zero-copy
NumPy views (:class:`_FileFrames`).  No per-request bookkeeping calls
into NumPy: the views serve only the rare mask of a partly reallocated
run and the ownership cap's scans.
Every set the cache handles is a contiguous block range ``[lo, hi)`` or
an ascending list of them, and every span -- one block or a hundred --
takes the same path: ``bytearray.count`` recognises an all-clean hit or
a cold miss, a compiled regular expression splits a mixed span into
runs of one state, and installs, drops and settles are slice
assignments.  A :class:`_Run` is ``(fid, lo, hi, gen)`` with -1 in
``gen`` where a block is not part of it, which no generation equals.

The clean LRU is a doubly-linked list of :class:`_CleanRun` nodes, each
a range of clean blocks in per-block LRU order (ascending).  Touches
and removals walk a span node by node (``nodes[nid[b]]``, then
``b = node.hi``); cutting the middle out of a node leaves its left and
right parts as two adjacent nodes in its slot.  Per-block LRU order --
which picks eviction victims, hence the disk request sequence and the
seeded rotational-delay RNG stream -- is therefore exactly that of a
per-block LRU.  Eviction pops whole nodes off the head, trimming at most
one.

The behavioural contract is a set of recorded digests: the random cache
corpus (``tests/harness/cache_corpus.py``), the golden tables and the
benchmark's ``perfbench/digests.json``.
"""

from __future__ import annotations

import re
from array import array
from collections import deque
from dataclasses import dataclass
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


# Block lifecycle states, stored as small ints in the ``st`` column.
_ABSENT = 0
_READING = 1  #: disk read in flight; frame pinned
_VALID = 2  #: clean resident; evictable
_DIRTY = 3  #: written, awaiting flush start
_FLUSHING = 4  #: disk write in flight; frame pinned
_VALID_BYTE = bytes((_VALID,))
_DIRTY_BYTE = bytes((_DIRTY,))

#: Maximal runs of one state (or class of states) in an ``st`` buffer.
_ABSENTS = re.compile(b"\x00+")
_RESIDENTS = re.compile(b"[\x02-\x04]+")  # valid, dirty or flushing
_UNPINNED = re.compile(b"[\x02\x03]+")  # valid or dirty
_RUNS_OF = {state: re.compile(b"%c+" % state) for state in (_READING, _DIRTY, _FLUSHING)}
#: Reading runs; also the true runs of a boolean mask's bytes.
_ONES = _RUNS_OF[_READING]


class _FileFrames:
    """Columnar frame metadata for one file, grown on demand.

    ``st``, ``gen`` and ``nid`` are zero-copy NumPy views of the
    ``st_buf`` bytearray and the ``gen_buf`` and ``nid_buf``
    ``array('q')`` buffers; the prefetch flags live in the ``pf_buf``
    bytearray alone.  ``own`` stays a NumPy array, written only under an
    ownership cap: ``np.zeros`` leaves a table nothing writes
    unresident where an ``array('q')`` would fill it.
    """

    __slots__ = ("st_buf", "pf_buf", "gen_buf", "nid_buf", "st", "gen", "nid", "own")

    def __init__(self, n_blocks: int):
        self.own = np.zeros(n_blocks, dtype=np.int64)
        self._bind(
            bytearray(n_blocks),
            bytearray(n_blocks),
            array("q", [0]) * n_blocks,
            array("q", [-1]) * n_blocks,
        )

    def grow(self, n_blocks: int) -> None:
        extra = n_blocks - self.st.size
        self.own = np.concatenate([self.own, np.zeros(extra, dtype=np.int64)])
        # A buffer under a live view cannot resize in place: concatenate
        # into new buffers and rebind the views to them.
        self._bind(
            self.st_buf + bytearray(extra),
            self.pf_buf + bytearray(extra),
            self.gen_buf + array("q", [0]) * extra,
            self.nid_buf + array("q", [-1]) * extra,
        )

    def _bind(self, st: bytearray, pf: bytearray, gen: array, nid: array) -> None:
        self.st_buf, self.pf_buf, self.gen_buf, self.nid_buf = st, pf, gen, nid
        self.st = np.frombuffer(st, dtype=np.uint8)
        self.gen = np.frombuffer(gen, dtype=np.int64)
        self.nid = np.frombuffer(nid, dtype=np.int64)


@dataclass(slots=True, eq=False)
class _Run:
    """Handle to frames ``[lo, hi)`` of one file as allocated.

    ``gen`` is the generation snapshot (an ``array('q')``), with -1 at
    positions that are not part of the run: the gaps of a prefetch over
    a partly resident window, blocks a write's own allocation evicted,
    blocks a re-flush leaves out.  Disk completions act only on blocks
    whose current generation still equals the snapshot: the same
    incarnation, not a later reallocation.
    """

    fid: int
    lo: int
    hi: int
    gen: array


@dataclass(slots=True, eq=False, repr=False)
class _CleanRun:
    """Clean blocks ``[lo, hi)`` of one file in one slot of the LRU list.

    Per-block LRU order within a node is ascending block order; every
    block in the range is clean and carries the node's id in ``nid``.
    """

    fid: int
    lo: int
    hi: int
    id: int
    prev: _CleanRun | None = None
    next: _CleanRun | None = None


@dataclass(slots=True, eq=False)
class _DelayedFlush:
    """A dirty extent waiting out its Sprite-style delay."""

    file_id: int
    offset: int
    length: int
    run: _Run
    cancelled: bool = False


@dataclass(slots=True)
class _StreamState:
    """Per-file sequential-pattern tracking for the prefetcher."""

    next_offset: int  # end of the last demand read
    length: int  # last demand request size
    prefetch_until: int = 0  # exclusive end of issued prefetch


class _PerLength(dict):
    """``fn(length)`` memoized per request length.

    For the frozen config's per-request functions (``hit_penalty_s``,
    ``auto_depth``): a dict subscript costs less than recomputing them
    on every hit or prefetch.
    """

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable[[int], float]):
        super().__init__()
        self._fn = fn

    def __missing__(self, length: int) -> float:
        value = self[length] = self._fn(length)
        return value


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
        self._observed = reg.enabled
        self._c_evictions = reg.counter("sim.cache.evictions")
        self._c_parks = reg.counter("sim.cache.frame_wait_parks")
        self._g_wb_queue = reg.gauge("sim.cache.writebehind_queue_depth")
        # Hot-path locals: resolved once so the per-request code performs
        # zero registry lookups and no repeated attribute chains.  The
        # config is frozen, so its derived geometry is too.
        self._stats = metrics.cache
        self._record_demand = metrics.record_demand
        self._bs = config.block_bytes
        self._n_blocks = config.n_blocks
        self._cap = config.max_blocks_per_process
        #: per request length, resolved on first use: bounded by the
        #: trace's distinct request sizes
        self._hit_penalty = _PerLength(config.hit_penalty_s)
        self._auto_depth = _PerLength(config.auto_depth)
        self._files: dict[int, _FileFrames] = {}
        self._resident = 0
        self._lru_head: _CleanRun | None = None
        self._lru_tail: _CleanRun | None = None
        self._clean_count = 0
        self._next_node_id = 0
        self._nodes: dict[int, _CleanRun] = {}
        #: id the next allocation stamps on its blocks' ``gen``; 0 is
        #: the never-allocated block and -1 a run's gap
        self._next_gen = 1
        #: waiters keyed by (file_id, block, generation): callbacks of
        #: demand reads overlapping a block whose disk read is in flight
        self._waiters: dict[tuple[int, int, int], list[Callable[[], None]]] = {}
        self._frame_waiters: deque[Callable[[], bool]] = deque()
        #: blocks per owning process, kept only under a cap
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
        on_complete: Callable[[float], None],
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

        if self.degraded:
            self.metrics.faults.degraded_requests += 1
            self._bypass_read(file_id, offset, length, on_complete)
            return
        bs = self._bs
        first = offset // bs
        end = (offset + length - 1) // bs + 1
        if self._oversized(end - first):
            self._bypass_read(file_id, offset, length, on_complete)
            return
        frames = self._file(file_id, end)
        if self._serve_clean(frames, first, end):
            on_complete(self._hit_penalty[length])
        else:
            pending = _PendingRead(
                self, file_id, first, end, length, owner, on_complete
            )
            if not pending.issue(frames):
                self.park_for_frames(pending.start)
        self._after_demand_read(file_id, offset, length, owner)

    def write(
        self,
        file_id: int,
        offset: int,
        length: int,
        owner: int,
        on_complete: Callable[[float], None],
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

        if self.degraded:
            self.metrics.faults.degraded_requests += 1
            self._bypass_write(file_id, offset, length, on_complete)
            return
        bs = self._bs
        first = offset // bs
        end = (offset + length - 1) // bs + 1
        if self._oversized(end - first):
            self._bypass_write(file_id, offset, length, on_complete)
            return
        pending = _PendingWrite(
            self, file_id, offset, length, first, end, owner, on_complete
        )
        if not pending.start():
            self.park_for_frames(pending.start)

    def _serve_clean(self, frames: _FileFrames, first: int, end: int) -> bool:
        """Serve a demand read of blocks ``[first, end)`` if every one is
        clean-resident (section 6.3's common case): count the hits, spend
        the prefetch bits and touch the LRU.  False, having done nothing,
        otherwise.  A first attempt and a parked read's retry both come
        through here.
        """
        span = end - first
        if frames.st_buf.count(_VALID, first, end) != span:
            return False
        pf = frames.pf_buf
        n_ra_hit = pf.count(1, first, end)
        if n_ra_hit:
            pf[first:end] = bytes(span)
        self._clean_touch(frames, first, end)
        stats = self._stats
        stats.block_hits += span
        stats.readahead_hits += n_ra_hit
        return True

    # ------------------------------------------------------------------
    # Oversized-request bypass
    # ------------------------------------------------------------------
    def _oversized(self, needed: int) -> bool:
        """True when a request spanning ``needed`` blocks can never be
        framed: bigger than the cache itself, or bigger than the owner's
        buffer cap.  Such requests go straight to the disk (the classic
        bypass), otherwise they would park forever.
        """
        cap = self._cap
        return needed > self._n_blocks or (cap is not None and needed > cap)

    def _bypass_read(
        self, file_id: int, offset: int, length: int, on_complete
    ) -> None:
        self._stats.bypass_requests += 1
        # Degraded requests never touched the (failed) SSD, so no
        # copy-through penalty.
        penalty = 0.0 if self.degraded else self._hit_penalty[length]
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
        penalty = 0.0 if self.degraded else self._hit_penalty[length]
        if self.config.write_behind:
            # The device streams straight from the writer's memory; the
            # writer continues once the transfer is handed off.
            self.outstanding_flushes += 1
            if self._observed:
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
    def _file(self, file_id: int, n_blocks: int) -> _FileFrames:
        """The file's frame columns, grown to cover ``n_blocks``."""
        frames = self._files.get(file_id)
        if frames is None:
            hint = -(-self._file_sizes.get(file_id, 0) // self._bs)
            frames = _FileFrames(max(n_blocks, hint, 64))
            self._files[file_id] = frames
        elif frames.st.size < n_blocks:
            frames.grow(max(n_blocks, 2 * frames.st.size))
        return frames

    @property
    def resident_blocks(self) -> int:
        return self._resident

    def owner_blocks(self, owner: int) -> int:
        """Blocks ``owner`` holds; counted only under an ownership cap
        (0 without one)."""
        return self._owner_counts.get(owner, 0)

    def _drop_frames(self, frames: _FileFrames, lo: int, hi: int) -> None:
        """Free frames ``[lo, hi)`` (state -> absent) and, under a cap,
        settle the owner accounting.  The clean-LRU is NOT touched:
        callers either took the frames off it already or are dropping
        pinned (reading/dirty/flushing) frames that were never on it.
        """
        n = hi - lo
        if self._cap is not None:
            counts = self._owner_counts
            own = frames.own[lo:hi]
            first_owner = int(own[0])
            # Runs are allocated by a single process, so most ranges are
            # single-owner; only write-extent settles can mix owners.
            if own.tobytes() == own[:1].tobytes() * n:
                counts[first_owner] = counts.get(first_owner, n) - n
            else:
                owners, counts_per = np.unique(own, return_counts=True)
                for owner, k in zip(owners.tolist(), counts_per.tolist()):
                    counts[owner] = counts.get(owner, k) - k
        frames.st_buf[lo:hi] = bytes(n)
        self._resident -= n

    def _live(
        self, frames: _FileFrames, run: _Run, state: int | None = None
    ) -> list[tuple[int, int]]:
        """The blocks of ``run`` not reallocated since (and, given
        ``state``, in that state), as ascending ``[lo, hi)`` ranges."""
        lo, hi = run.lo, run.hi
        if frames.gen_buf[lo:hi] == run.gen:
            # The whole run is still this incarnation (the usual case):
            # only the state splits it.
            st = frames.st_buf
            if state is None or st.count(state, lo, hi) == hi - lo:
                return [(lo, hi)]
            return [m.span() for m in _RUNS_OF[state].finditer(st, lo, hi)]
        mask = frames.gen[lo:hi] == np.frombuffer(run.gen, dtype=np.int64)
        if state is not None:
            mask &= frames.st[lo:hi] == state
        return [(lo + m.start(), lo + m.end()) for m in _ONES.finditer(mask.tobytes())]

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

    def _new_node(self, frames: _FileFrames, fid: int, lo: int, hi: int) -> _CleanRun:
        """An unlinked node over ``[lo, hi)``, stamped into ``nid``."""
        node_id = self._next_node_id
        self._next_node_id = node_id + 1
        node = _CleanRun(fid, lo, hi, node_id)
        self._nodes[node_id] = node
        frames.nid[lo:hi] = node_id
        return node

    def _node_cut(self, frames: _FileFrames, node: _CleanRun, b: int, e: int) -> None:
        """Take blocks ``[b, e)`` out of ``node``.  What remains keeps
        the node's LRU slot; a middle cut leaves the right part as a new
        node linked straight after it."""
        if b == node.lo:
            if e == node.hi:
                self._lru_unlink(node)
                del self._nodes[node.id]
            else:
                node.lo = e
        elif e == node.hi:
            node.hi = b
        else:
            right = self._new_node(frames, node.fid, e, node.hi)
            nxt = node.next
            right.prev = node
            right.next = nxt
            node.next = right
            if nxt is None:
                self._lru_tail = right
            else:
                nxt.prev = right
            node.hi = b

    def _clean_append(self, frames: _FileFrames, fid: int, lo: int, hi: int) -> None:
        """Make frames ``[lo, hi)`` clean-resident as one MRU node."""
        frames.st_buf[lo:hi] = _VALID_BYTE * (hi - lo)
        self._lru_append(self._new_node(frames, fid, lo, hi))
        self._clean_count += hi - lo

    def _clean_touch(self, frames: _FileFrames, lo: int, hi: int) -> None:
        """Move the clean frames in ``[lo, hi)`` to MRU, preserving
        per-block order; other frames in the range are skipped.

        The range is walked node by node: a whole node is relinked in
        O(1); part of one moves to a new MRU node while the rest keeps
        the node's LRU position -- exactly the per-block order of a
        ``move_to_end`` per block in ascending order.
        """
        st, nid, nodes = frames.st_buf, frames.nid_buf, self._nodes
        b = st.find(_VALID, lo, hi)
        while b >= 0:
            node = nodes[nid[b]]
            e = node.hi if node.hi < hi else hi
            if b == node.lo and e == node.hi:
                if node is not self._lru_tail:
                    self._lru_unlink(node)
                    self._lru_append(node)
            else:
                self._node_cut(frames, node, b, e)
                self._lru_append(self._new_node(frames, node.fid, b, e))
            b = st.find(_VALID, e, hi)

    def _clean_remove(self, frames: _FileFrames, lo: int, hi: int) -> None:
        """Take the clean frames in ``[lo, hi)`` out of the LRU (state
        untouched by this call; callers transition it right after).
        Remaining frames of each affected node keep their LRU position.
        """
        st, nid, nodes = frames.st_buf, frames.nid_buf, self._nodes
        b = st.find(_VALID, lo, hi)
        while b >= 0:
            node = nodes[nid[b]]
            e = node.hi if node.hi < hi else hi
            self._node_cut(frames, node, b, e)
            self._clean_count -= e - b
            b = st.find(_VALID, e, hi)

    # ------------------------------------------------------------------
    # Frame management
    # ------------------------------------------------------------------
    def try_allocate_run(
        self, fid: int, runs: list[tuple[int, int]], owner: int, state: int
    ) -> _Run | None:
        """Install absent frames ``runs`` (ascending ``[lo, hi)`` ranges
        of one file), evicting clean LRU as needed.

        All-or-nothing over the union: returns None (no side effects)
        when not enough frames can be freed.  With an ownership cap, an
        over-cap process may only recycle its *own* clean frames.
        Eviction pops whole nodes off the LRU head (trimming at most
        one), so the cost is O(nodes), not O(blocks).  ``state`` is
        ``_READING`` or ``_DIRTY``: new frames are pinned, never on the
        clean LRU.  The returned run spans ``runs`` with -1 in the gaps;
        its blocks carry one fresh allocation id.
        """
        needed = 0
        for lo, hi in runs:
            needed += hi - lo
        frames = self._files[fid]
        counts = self._owner_counts
        cap = self._cap
        if cap is not None and counts.get(owner, 0) + needed > cap:
            must_recycle = needed - max(0, cap - counts.get(owner, 0))
            # Collect this owner's clean frames from the LRU head in
            # per-block LRU order (node order, then block order).
            victims: list[tuple[_FileFrames, int, int]] = []
            n_found = 0
            node = self._lru_head
            while node is not None and n_found < must_recycle:
                vf = self._files[node.fid]
                mine = vf.own[node.lo:node.hi] == owner
                for m in _ONES.finditer(mine.tobytes()):
                    b = node.lo + m.start()
                    take = min(m.end() - m.start(), must_recycle - n_found)
                    victims.append((vf, b, b + take))
                    n_found += take
                    if n_found == must_recycle:
                        break
                node = node.next
            if n_found < must_recycle:
                return None
            if self._observed:
                self._c_evictions.inc(n_found)
            for vf, b, e in victims:
                self._clean_remove(vf, b, e)
                self._drop_frames(vf, b, e)
        else:
            must_evict = needed - (self._n_blocks - self._resident)
            if must_evict > 0:
                if must_evict > self._clean_count:
                    return None
                if self._observed:
                    self._c_evictions.inc(must_evict)
                self._clean_count -= must_evict
                nodes = self._nodes
                node = self._lru_head
                while must_evict:
                    vframes = self._files[node.fid]
                    k = node.hi - node.lo
                    if k > must_evict:
                        self._drop_frames(vframes, node.lo, node.lo + must_evict)
                        node.lo += must_evict
                        break
                    self._drop_frames(vframes, node.lo, node.hi)
                    must_evict -= k
                    del nodes[node.id]
                    nxt = node.next
                    node.next = None
                    node = nxt
                # ``node`` heads what is left of the LRU.
                self._lru_head = node
                if node is None:
                    self._lru_tail = None
                else:
                    node.prev = None

        st, pf, gens = frames.st_buf, frames.pf_buf, frames.gen_buf
        fill = bytes((state,))
        stamp = array("q", [self._next_gen])
        self._next_gen += 1
        lo0, hi0 = runs[0][0], runs[-1][1]
        gen = array("q", [-1]) * (hi0 - lo0)
        for lo, hi in runs:
            st[lo:hi] = fill * (hi - lo)
            pf[lo:hi] = bytes(hi - lo)
            gens[lo:hi] = gen[lo - lo0:hi - lo0] = stamp * (hi - lo)
        if cap is not None:
            own = frames.own
            for lo, hi in runs:
                own[lo:hi] = owner
            counts[owner] = counts.get(owner, 0) + needed
        self._resident += needed
        return _Run(fid, lo0, hi0, gen)

    def park_for_frames(self, retry: Callable[[], bool]) -> None:
        """Queue a retry closure to run when frames may be available."""
        self._stats.frame_stalls += 1
        if self._observed:
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
        ascending block order.  Generation matching scopes the firing to
        this run's incarnation of each block (gap positions hold -1 and
        match nothing); the state may have moved on (e.g. overwritten to
        flushing) and the waiters are still released -- their data is in
        the cache either way.
        """
        fid, lo, hi, gen = run.fid, run.lo, run.hi, run.gen
        matched = sorted(
            (kb, (kf, kb, kg))
            for kf, kb, kg in self._waiters
            if kf == fid and lo <= kb < hi and gen[kb - lo] == kg
        )
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
            for lo, hi in self._live(frames, run, _READING):
                if ok:
                    self._clean_append(frames, file_id, lo, hi)
                else:
                    self._drop_frames(frames, lo, hi)
            if self._waiters:
                self._fire_waiters(run)
            if on_done is not None:
                on_done()
            if self._frame_waiters:
                self._kick_frame_waiters()

        self.device.submit(file_id, offset, length, is_write=False, on_done=arrive)

    def _pin(self, run: _Run, state: int) -> None:
        """Move ``run``'s frames to a pinned ``state``, taking any clean
        ones off the LRU first.  Runs are pinned as they are issued,
        when every block they cover is resident."""
        frames = self._files[run.fid]
        fill = bytes((state,))
        for lo, hi in self._live(frames, run):
            self._clean_remove(frames, lo, hi)
            frames.st_buf[lo:hi] = fill * (hi - lo)

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
        self._pin(run, _FLUSHING)
        self.outstanding_flushes += 1
        if self._observed:
            self._g_wb_queue.set_max(self.outstanding_flushes)

        def finished(ok: bool) -> None:
            frames = self._files[file_id]
            live = self._live(frames, run, _FLUSHING)
            if not ok:
                if live and reflush < self.recovery.max_reflushes:
                    self.metrics.faults.reflushes += 1
                    # The re-flush covers exactly the blocks live now.
                    gen = array("q", [-1]) * (run.hi - run.lo)
                    for lo, hi in live:
                        frames.st_buf[lo:hi] = _DIRTY_BYTE * (hi - lo)
                        gen[lo - run.lo:hi - run.lo] = run.gen[lo - run.lo:hi - run.lo]
                    retry = _Run(file_id, run.lo, run.hi, gen)

                    def redo() -> None:
                        self.outstanding_flushes -= 1
                        self._issue_flush_runs(
                            file_id, retry, on_done, reflush=reflush + 1
                        )

                    # Latch stays held until redo() runs (decrement and
                    # re-issue are back to back, so drain cannot slip in).
                    self.engine.schedule(self.recovery.reflush_delay_s, redo)
                    return
                # Retries and re-flushes exhausted: write-behind data is
                # dropped -- this is the data-at-risk turning into data
                # lost.
                for lo, hi in live:
                    self.metrics.faults.lost_bytes += (hi - lo) * self._bs
                    self._drop_frames(frames, lo, hi)
            else:
                for lo, hi in live:
                    self._clean_append(frames, file_id, lo, hi)
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
        """Flush the frames of ``run`` still dirty in its incarnation,
        one disk write per contiguous range.

        Used when only part of an extent still needs writing -- a re-flush
        after failure, or a delayed flush some of whose frames were
        already flushed by an overlapping extent.  ``on_done`` rides on
        the last write; with none at all it fires synchronously along
        with the drain check the skipped write would have performed.
        """
        dirty = self._live(self._files[file_id], run, _DIRTY)
        if not dirty:
            if on_done is not None:
                on_done()
            if self.outstanding_flushes == 0 and self.on_drained is not None:
                self.on_drained()
            return
        bs = self._bs
        for lo, hi in dirty:
            sub = _Run(file_id, lo, hi, run.gen[lo - run.lo:hi - run.lo])
            done = on_done if hi == dirty[-1][1] else None
            self.issue_disk_write(
                file_id, lo * bs, (hi - lo) * bs, sub, done, reflush=reflush
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
        self._pin(run, _DIRTY)
        handle = _DelayedFlush(file_id, offset, length, run)
        self._delayed_flushes.setdefault(file_id, []).append(handle)
        self.outstanding_flushes += 1  # keeps drain accounting honest
        if self._observed:
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
            if self._live(self._files[file_id], run, _DIRTY) == [(run.lo, run.hi)]:
                # Whole extent intact: one contiguous write, exactly as
                # originally queued.
                self.issue_disk_write(file_id, offset, length, run)
            else:
                self._issue_flush_runs(file_id, run, None)

        self.engine.schedule(self.config.flush_delay_s, fire)

    def _drop_unpinned(self, frames: _FileFrames) -> int:
        """Drop every clean and dirty frame of one file (frames with a
        transfer in flight settle normally); returns the dirty count."""
        n_dirty = frames.st_buf.count(_DIRTY)
        for m in list(_UNPINNED.finditer(frames.st_buf)):
            lo, hi = m.span()
            self._clean_remove(frames, lo, hi)
            self._drop_frames(frames, lo, hi)
        return n_dirty

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
            self._drop_unpinned(frames)
        self._streams.pop(file_id, None)
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
        return n * self._bs

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
        self.metrics.faults.degraded_at_s = self.engine.now
        lost = sum(self._drop_unpinned(f) for f in self._files.values())
        self.metrics.faults.lost_bytes += lost * self._bs
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
        """Keep up to ``depth`` requests of look-ahead in flight past the
        demand read that just ended at ``stream.next_offset``.

        Only the part of the window not covered before is looked at: on
        a steady sequential stream that is one request's worth of bytes.
        """
        step = stream.length
        start = stream.next_offset
        window_end = start + self._auto_depth[step] * step
        file_end = self._file_sizes.get(file_id, 0)
        if window_end > file_end:
            window_end = file_end
        if stream.prefetch_until > start:
            start = stream.prefetch_until
        if start >= window_end:
            return
        bs = self._bs
        st = self._files[file_id].st_buf
        end = (window_end - 1) // bs + 1
        if end <= len(st) and st.find(_ABSENT, start // bs, end) < 0:
            # Nothing absent in the window: the scan below would issue
            # nothing and march straight to its end.
            stream.prefetch_until = window_end
            return
        while start < window_end:
            stop = start + step
            if stop > window_end:
                stop = window_end
            first, end = start // bs, (stop - 1) // bs + 1
            frames = self._file(file_id, end)
            # Only prefetch runs of absent blocks, as one disk read over
            # their extent; stop growing the window when frames are
            # unavailable (prefetch never parks).
            runs = [m.span() for m in _ABSENTS.finditer(frames.st_buf, first, end)]
            if runs:
                run = self.try_allocate_run(file_id, runs, owner, _READING)
                if run is None:
                    break
                n_blocks = 0
                for lo, hi in runs:
                    frames.pf_buf[lo:hi] = b"\x01" * (hi - lo)
                    n_blocks += hi - lo
                self._stats.prefetch_issued += 1
                self._stats.prefetch_blocks += n_blocks
                self.issue_disk_read(
                    file_id, run.lo * bs, (run.hi - run.lo) * bs, run
                )
            start = stream.prefetch_until = stop


class _PendingRead:
    """State machine for one demand read that is not an all-clean hit."""

    __slots__ = (
        "cache",
        "file_id",
        "first",
        "end",
        "length",
        "owner",
        "on_complete",
        "outstanding",
    )

    def __init__(
        self,
        cache: BufferCache,
        file_id: int,
        first: int,
        end: int,
        length: int,
        owner: int,
        on_complete: Callable[[float], None],
    ):
        self.cache = cache
        self.file_id = file_id
        self.first = first
        self.end = end
        self.length = length
        self.owner = owner
        self.on_complete = on_complete
        self.outstanding = 0

    def start(self) -> bool:
        """Retry after parking for frames; False to park again."""
        cache = self.cache
        frames = cache._file(self.file_id, self.end)
        if cache._serve_clean(frames, self.first, self.end):
            self._finish()
            return True
        return self.issue(frames)

    def issue(self, frames: _FileFrames) -> bool:
        """Classify a span that is not all clean and issue disk reads;
        False to retry later."""
        cache = self.cache
        bs = cache._bs
        first, end = self.first, self.end
        span = end - first
        fid = self.file_id
        st, pf = frames.st_buf, frames.pf_buf
        n_valid = st.count(_VALID, first, end)
        n_miss = st.count(_ABSENT, first, end)
        n_inflight = st.count(_READING, first, end)
        if n_miss == span:
            # Cold: the whole span is one missing run.
            missing, reading, resident = [(first, end)], [], []
        else:
            missing = [m.span() for m in _ABSENTS.finditer(st, first, end)]
            reading = [m.span() for m in _ONES.finditer(st, first, end)]
            resident = [m.span() for m in _RESIDENTS.finditer(st, first, end)]
        if n_valid:
            cache._clean_touch(frames, first, end)

        # Allocate every missing run up front; all-or-nothing.
        allocated: list[_Run] = []
        for lo, hi in missing:
            run = cache.try_allocate_run(fid, [(lo, hi)], self.owner, _READING)
            if run is None:
                for done in allocated:
                    cache._drop_frames(frames, done.lo, done.hi)
                return False
            allocated.append(run)

        # Resident prefetched blocks are read-ahead hits; their bits are
        # spent (in-flight ones keep theirs until they are resident).
        # Only now: a read that parked above keeps them for its retry.
        n_ra_hit = 0
        for lo, hi in resident:
            k = pf.count(1, lo, hi)
            if k:
                n_ra_hit += k
                pf[lo:hi] = bytes(hi - lo)

        stats = cache._stats
        stats.block_hits += span - n_miss - n_inflight
        stats.block_misses += n_miss
        stats.block_inflight_hits += n_inflight
        stats.readahead_hits += n_ra_hit

        self.outstanding = len(allocated) + n_inflight
        waiters = cache._waiters
        for lo, hi in reading:
            for b, g in zip(range(lo, hi), frames.gen_buf[lo:hi]):
                waiters.setdefault((fid, b, g), []).append(self._one_arrived)
        for run in allocated:
            cache.issue_disk_read(
                fid, run.lo * bs, (run.hi - run.lo) * bs, run, self._one_arrived
            )

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
        self.on_complete(self.cache._hit_penalty[self.length])


class _PendingWrite:
    """State machine for one demand write."""

    __slots__ = (
        "cache",
        "file_id",
        "offset",
        "length",
        "first",
        "end",
        "owner",
        "on_complete",
    )

    def __init__(
        self,
        cache: BufferCache,
        file_id: int,
        offset: int,
        length: int,
        first: int,
        end: int,
        owner: int,
        on_complete: Callable[[float], None],
    ):
        self.cache = cache
        self.file_id = file_id
        self.offset = offset
        self.length = length
        self.first = first
        self.end = end
        self.owner = owner
        self.on_complete = on_complete

    def start(self) -> bool:
        cache = self.cache
        first, end = self.first, self.end
        fid = self.file_id
        frames = cache._file(fid, end)
        st = frames.st_buf
        absent = [m.span() for m in _ABSENTS.finditer(st, first, end)]
        # New frames go straight to dirty: every write path immediately
        # transitions them out of the clean pool anyway, and nothing
        # observes the LRU between allocation and that transition, so
        # skipping the clean-LRU round trip changes no behavior.
        if absent and cache.try_allocate_run(fid, absent, self.owner, _DIRTY) is None:
            return False
        # A block still absent now was present but evicted by this very
        # allocation: it is dead to this write (-1 matches no generation).
        gen = frames.gen_buf[first:end]
        for m in _ABSENTS.finditer(st, first, end):
            b, e = m.span()
            gen[b - first:e - first] = array("q", [-1]) * (e - b)
        # Prefetch bits of the span are spent (absent blocks' bits are
        # never read, so clearing the whole span is exact).
        frames.pf_buf[first:end] = bytes(end - first)
        run = _Run(fid, first, end, gen)

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
            self.on_complete(cache._hit_penalty[self.length])
        else:
            # Write-through: the writer waits for the disk; the copy-in
            # penalty is charged on wake-up.
            penalty = cache._hit_penalty[self.length]
            cache.issue_disk_write(
                fid,
                self.offset,
                self.length,
                run,
                lambda: self.on_complete(penalty),
            )
        return True
