"""Run-level batch simulation kernel (``REPRO_ENGINE_IMPL=batch``).

The event engine spends most of a warm-cache run on ceremony: every
trace record whose data is resident costs a dispatch event, a
quantum-slice event, a full cache classification pass and an LRU touch
-- even though the *outcome* of that machinery is fully determined the
moment the record is issued.  This kernel exploits the trace's dominant
regularity (the paper's constant-size sequential runs, exposed by
:meth:`TraceArray.sequential_runs`) to advance whole non-interacting
stretches cheaply while producing **bit-identical results**, digest for
digest, against the event-at-a-time engine.

Four cooperating layers:

* **Chain pump.**  The engine calls :meth:`BatchKernel.pump` between
  calendar events -- never from inside one, so every callback's trailing
  effects (frame-waiter kicks, drain checks, retry bookkeeping) land
  before the next dispatch exactly as they do under the event engine.
  When the next due event is a scheduler dispatch or quantum slice whose
  whole chain completes strictly before the following calendar entry,
  the pump pops it and runs the *real* ``_slice_done`` body inline,
  accounting the elided events through :meth:`Engine.advance_inline` so
  clock, sequence numbers and ``events_run`` (all digest-visible) match
  the event engine bit for bit.  The round-robin alternation of multiple
  CPU-bound processes -- the Figure-8 workload is two venus copies
  sharing one CPU -- proceeds without touching the heap.

* **Run-level resident-read fast path.**  Demand reads whose span is
  wholly resident (and whose read-ahead window holds no absent block, so
  the prefetcher would not issue I/O) skip the cache's allocation
  machinery: :meth:`BatchKernel.try_fast_read` classifies the span
  against the columnar frame tables, commits the hit statistics,
  prefetch-bit clears, LRU touch and stream advance directly, and hands
  back the hit penalty.  Classification is *per run*, not per record:
  when a record opens a per-file sequential run
  (:meth:`TraceArray.stream_run_ends`), one vectorized pass over the
  frame table bounds how far the run stays clean-resident
  (``resident_until``), where the first absent block sits (the bound the
  read-ahead window must not cross), and which blocks carry prefetch
  bits.  The bounds are memoised against :attr:`BufferCache.epoch` -- a
  mutation counter every slow-path operation bumps -- so each subsequent
  record of the run commits with a handful of scalar comparisons, no
  numpy classification at all.  The kernel's read commits deliberately
  do not bump the epoch: between bumps the frame states it cached cannot
  change, because evictions, settles, dirtying and prefetch issue all
  live on the slow paths.

* **Run-level write fast path.**  Sequential write-behind records whose
  span is already framed -- or framable from the free pool without
  eviction -- absorb directly into the columnar frame tables
  (:meth:`BatchKernel.try_fast_write`): dirty bits, write-behind queue
  accounting, delayed-flush registration and stats all commit inline,
  with flush *submission* always delegated to the cache so device
  ordering and the fault injector's RNG stream are untouched.  The write
  memo carries a conservative budget: how many records can still absorb
  before one could trigger eviction, a flush deadline, or a policy
  interaction (write-through, degraded mode) -- the kernel falls back to
  :meth:`BufferCache.write` exactly there.  Absorbed writes must bump
  the epoch (they dirty frames); an *epoch-trust chain*
  (:meth:`BatchKernel._memo_fresh`) recognises the epochs the kernel
  itself advanced through benign writes, so one file's write run does
  not invalidate every other file's memo.

* **Vectorized whole-run commit.**  When a clean-resident read run is
  long enough (:attr:`BatchTraceProcess._bulk_eligible` gates in O(1)),
  :meth:`BatchKernel._try_bulk` classifies and commits the entire run in
  one NumPy pass -- bulk LRU-generation touch, bulk prefetch-bit clear,
  summed hit stats, `np.add.at` into the binned rate series -- and a
  single :meth:`Engine.advance_inline` covers every elided event, so the
  event engine is entered once per *interaction point* rather than once
  per record.

The kernel **falls back to the event engine** at every interaction
point: another calendar entry (disk completion, flush deadline, fault
cut, async completion, another CPU's slice) due at or before the
emulated horizon, an event budget or tick grid in force, a degraded or
legacy cache, write-through or eviction-requiring writes, oversized
spans, or any block that is not resident.  Fault injection draws
randomness only at device submits, which absorbed hits and dirtied
frames never reach, so batching cannot perturb the injector's RNG
stream.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right

import numpy as np

from repro.sim.cache import (
    BufferCache, _Run, _StreamState, _ABSENT, _DIRTY, _VALID,
)
from repro.sim.procmodel import TraceProcess, _noop
from repro.util.units import MB


class _RunMemo:
    """Cached classification bounds for one file's active run.

    Valid while :attr:`BufferCache.epoch` equals :attr:`epoch`; see
    :meth:`BatchKernel._build_memo` for the field semantics.  Plain
    attribute record -- every field is assigned exactly once at build
    time except the rolling ``next_off`` / ``pf_ptr`` cursors.
    """

    __slots__ = (
        "epoch", "next_off", "length", "resident_until", "first_absent",
        "depth_bytes", "file_end", "nb_limit", "pf_pos", "pf_ptr",
        "frames", "stream",
    )


class _WriteMemo:
    """Cached classification bounds for one file's active *write* run.

    Valid while :attr:`BufferCache.epoch` equals :attr:`epoch`.  Unlike
    the read memo, the kernel's own write commits do mutate frame state
    (dirtying, flush hand-off) and therefore bump the epoch; the memo is
    resynchronized after each commit, which is sound because nothing
    foreign can run in between -- device completions and delayed-flush
    deadlines are always scheduled asynchronously.

    ``absorb_until`` is the byte bound up to which the run keeps its
    classification: for an allocating run (``alloc``), the first frame
    that is not absent -- dirtying past it touches resident data the
    slow path must arbitrate; for an overwrite run, the first frame that
    *is* absent.  ``budget`` counts the frames still allocatable before
    eviction or an ownership-cap recycle would trigger -- the first
    record to exceed it falls back to :meth:`BufferCache.write` exactly
    there.  ``prev_last`` is the previous record's last block: a
    non-aligned run re-dirties that boundary block, which the kernel
    itself made resident, so it is excluded from the absent span.
    """

    __slots__ = (
        "epoch", "next_off", "length", "absorb_until", "alloc",
        "budget", "prev_last", "owner", "frames",
    )


class BatchKernel:
    """Shared per-simulation state for the batch engine."""

    def __init__(self, engine, scheduler, metrics, cache, config, *, obs=None):
        self.engine = engine
        self.scheduler = scheduler
        self.metrics = metrics
        self.cache = cache
        # The fast read path reads the production cache's frame tables
        # directly; any other implementation (legacy) gets the chain
        # pump only.
        self._fast_cache = type(cache) is BufferCache
        # Instruments resolved once at wiring time (the disabled-obs
        # path must stay lookup-free per event, like the rest of sim/).
        reg = obs
        if reg is None:
            from repro.obs.registry import get_registry

            reg = get_registry()
        self._c_chains = reg.counter("sim.batch.chains")
        self._c_events_elided = reg.counter("sim.batch.events_elided")
        self._c_fast_reads = reg.counter("sim.batch.fast_reads")
        self._c_bailouts = reg.counter("sim.batch.bailouts")
        self._c_skipped = reg.counter("sim.batch.fast_reads_skipped")
        self._c_runs = reg.counter("sim.batch.runs_fast_pathed")
        self._c_fallback = reg.counter("sim.batch.events_fallback")
        self._c_fast_writes = reg.counter("sim.batch.fast_writes")
        self._c_write_bailouts = reg.counter("sim.batch.write_bailouts")
        self._c_bulk = reg.counter("sim.batch.runs_bulk_committed")
        #: per-file run memos, valid while ``cache.epoch`` is unchanged
        self._memos: dict[int, _RunMemo] = {}
        #: per-file write-run memos (resynced past the kernel's own bumps)
        self._wmemos: dict[int, _WriteMemo] = {}
        # Epoch-trust chain: every fast-write commit bumps the cache
        # epoch, which would strand every other file's memo even though
        # an eviction-free write cannot change another file's frame
        # states, stream, or prefetch bits (it only consumes free
        # frames, which _note_benign_bump charges against the other
        # write memos' budgets).  While ``cache.epoch == _epoch_trust``
        # every bump in ``(_epoch_floor, _epoch_trust]`` is such a
        # benign kernel-own commit, and a memo is still fresh when it
        # was built inside the window and postdates the last benign
        # write to its own file (``_wtouched``).  Any foreign bump --
        # device completion, flush deadline, slow-path read or write --
        # breaks the chain because only the kernel moves ``_epoch_trust``.
        self._epoch_trust = -1
        self._epoch_floor = -1
        self._wtouched: dict[int, int] = {}
        # Adaptive guard: on miss-dominated workloads most fast-read
        # attempts fail and their classification pass is pure overhead.
        # When a window of attempts succeeds too rarely the kernel stops
        # *attempting* for a stretch, then probes again.  Skipping an
        # attempt and having it fail are indistinguishable (both take
        # the full cache path), so the guard cannot perturb results.
        self._win_attempts = 0
        self._win_hits = 0
        self.skip_reads = 0
        self._wwin_attempts = 0
        self._wwin_hits = 0
        self.skip_writes = 0
        # Pin the scheduler's event callbacks to single bound-method
        # objects so heap entries can be recognized by identity.
        self._dispatch_fn = scheduler._run_slice
        self._slice_fn = scheduler._slice_done
        scheduler._run_slice = self._dispatch_fn
        scheduler._slice_done = self._slice_fn

    # ------------------------------------------------------------------
    # Chain pump
    # ------------------------------------------------------------------
    def pump(self) -> None:
        """Emulate due scheduler chains between calendar events.

        Called by :meth:`Engine.run` at the top of its loop, where no
        event callback is mid-flight.  Each iteration handles the
        earliest calendar entry when it belongs to the scheduler:

        * a *dispatch* (``_run_slice``) whose quantum slice would end
          strictly before the next calendar entry and within the run's
          ``until`` bound is elided entirely -- the clock jumps to the
          slice end and the real ``_slice_done`` body runs inline
          (consume, busy accounting, preemption or record issue, next
          dispatch).  The dispatch event already consumed its sequence
          number when it was scheduled, so only the never-scheduled
          slice event's is accounted;

        * a *slice expiry* (``_slice_done``) is simply run inline at its
          due time -- it is the next event regardless, and keeping it in
          the pump lets the following dispatch be elided too.

        Everything else -- ties included, conservatively -- returns
        control to the engine loop.
        """
        engine = self.engine
        heap = engine._heap
        if (
            not heap
            or engine.run_max_events is not None
            or engine.tick_s is not None
        ):
            return
        sched = self.scheduler
        dispatch_fn = self._dispatch_fn
        slice_fn = self._slice_fn
        slice_done = self._slice_fn
        cancelled = engine._cancelled
        until = engine.run_until
        config = sched.config
        advance = engine.advance_inline
        pop = heapq.heappop
        chains = 0
        elided = 0
        while heap:
            item = heap[0]
            fn = item[2]
            if fn is dispatch_fn:
                when = item[0]
                if when > until or item[1] in cancelled:
                    break
                proc, cpu = item[3]
                slice_s = min(config.quantum_s, proc.compute_remaining())
                if slice_s > 0:
                    if self._memos:
                        j = self._try_bulk(proc, cpu, when, until)
                        if j:
                            chains += j
                            elided += 2 * j
                            continue
                    t2 = when + slice_s
                    if t2 > until:
                        self._c_bailouts.inc()
                        break
                    # The next calendar entry after the root is the
                    # smaller root child -- enough to bound the slice
                    # without popping (and re-pushing on bailout).
                    n_heap = len(heap)
                    if n_heap > 1:
                        nxt = heap[1][0]
                        if n_heap > 2 and heap[2][0] < nxt:
                            nxt = heap[2][0]
                        if t2 >= nxt:
                            # The slice would land at or past the next
                            # calendar entry, whose callback may change
                            # the ready queue first; leave the dispatch
                            # for the real machinery.
                            self._c_bailouts.inc()
                            break
                    pop(heap)
                    # Dispatch event ran (seq already allocated at
                    # schedule time) + slice event ran (never
                    # scheduled): two events, one fresh seq.
                    advance(t2, 2, 1)
                    chains += 1
                    elided += 2
                    slice_done(proc, cpu, slice_s)
                else:
                    # Zero compute: the real chain is the dispatch event
                    # alone, with the slice-done body inline at its time.
                    pop(heap)
                    advance(when, 1, 0)
                    chains += 1
                    elided += 1
                    slice_done(proc, cpu, 0.0)
            elif fn is slice_fn:
                when = item[0]
                if when > until or item[1] in cancelled:
                    break
                pop(heap)
                advance(when, 1, 0)
                elided += 1
                proc, cpu, slice_s = item[3]
                slice_done(proc, cpu, slice_s)
            else:
                break
        if chains:
            self._c_chains.inc(chains)
        if elided:
            self._c_events_elided.inc(elided)

    # ------------------------------------------------------------------
    # Epoch-trust chain
    # ------------------------------------------------------------------
    def _memo_fresh(self, memo, file_id: int) -> bool:
        """True when a stale-epoch memo is still provably valid.

        Holds when every bump since the memo's epoch came from this
        kernel's own eviction-free write commits (the trust chain is
        unbroken) to files other than ``file_id`` -- a write to the
        memo's own file changes the very frame states the memo bounds.
        Resynchronizes the memo's epoch on success so the next check is
        a single comparison.
        """
        if (
            self.cache.epoch == self._epoch_trust
            and memo.epoch >= self._epoch_floor
            and memo.epoch >= self._wtouched.get(file_id, -1)
        ):
            memo.epoch = self.cache.epoch
            return True
        return False

    def _note_benign_bump(self, file_id: int, pre_epoch: int,
                          allocated: int) -> None:
        """Record a fast-write commit in the epoch-trust chain.

        ``pre_epoch`` is the cache epoch captured before the commit's
        mutations; if it does not match the chain head, something
        foreign ran since the last fast write and the trust window
        restarts there.  ``allocated`` free frames were consumed, which
        shrinks every *other* write memo's eviction-free budget (their
        own commits already maintain theirs); the cap component of
        those budgets is per-owner and untouched, so the deduction is
        conservative.
        """
        epoch = self.cache.epoch
        if pre_epoch != self._epoch_trust:
            self._epoch_floor = pre_epoch
        self._epoch_trust = epoch
        self._wtouched[file_id] = epoch
        if allocated:
            for fid, m in self._wmemos.items():
                if fid != file_id:
                    m.budget -= allocated

    # ------------------------------------------------------------------
    # Resident-read fast path
    # ------------------------------------------------------------------
    def try_fast_read(self, file_id: int, offset: int, length: int,
                      run_end: int = 0):
        """Commit a fully-resident demand read scalar-side.

        Returns the hit penalty to hand to ``on_complete``, or None when
        the record needs the full cache path (miss, inflight block,
        oversized span, degraded mode, a frame table that would grow, or
        a prefetch that would issue).  Simulated time is untouched --
        this replaces only :meth:`BufferCache.read`'s classification
        machinery with its precomputed outcome, so it is valid even
        while other processes contend for the CPU.

        ``run_end`` is the exclusive byte end of the record's per-file
        sequential run (:meth:`TraceArray.stream_run_ends`).  When it
        reaches past this record, a successful classification also
        memoises the remaining span's bounds so the run's later records
        commit through :meth:`_commit_from_memo` without a numpy pass.
        """
        cache = self.cache
        if not self._fast_cache or cache.degraded or length <= 0:
            self._c_fallback.inc()
            return None
        memo = self._memos.get(file_id)
        if memo is not None:
            if (
                offset == memo.next_off
                and length == memo.length
                and (memo.epoch == cache.epoch
                     or self._memo_fresh(memo, file_id))
            ):
                penalty = self._commit_from_memo(cache, memo, file_id,
                                                 offset, length)
                if penalty is not None:
                    self._c_fast_reads.inc()
                    return penalty
            else:
                # Stale (a foreign mutation bumped the epoch) or the
                # stream seeked away; rebuild on the next classify.
                del self._memos[file_id]
        if self.skip_reads > 0:
            self.skip_reads -= 1
            self._c_skipped.inc()
            self._c_fallback.inc()
            return None
        penalty = self._classify_and_commit(cache, file_id, offset, length)
        self._win_attempts += 1
        if penalty is not None:
            self._win_hits += 1
            self._c_fast_reads.inc()
            end = offset + length
            if run_end > end:
                self._build_memo(cache, file_id, end, length, run_end)
        else:
            self._c_fallback.inc()
        if self._win_attempts >= 32:
            # Below ~38% success the attempt overhead outweighs the
            # saved classification passes; back off for a stretch.
            if self._win_hits * 8 < self._win_attempts * 3:
                self.skip_reads = 160
            self._win_attempts = 0
            self._win_hits = 0
        return penalty

    def _build_memo(self, cache, file_id, next_off, length, run_end):
        """One vectorized pass bounding how far the run stays fast.

        Scans the frame table once over the run's remaining span plus
        the widest read-ahead window any of its records can open, and
        records three byte bounds:

        * ``resident_until`` -- records ending at or before it cover
          only clean-``VALID`` blocks (a dirty or in-flight block
          truncates it; those records fall back to per-record
          classification, which handles mixed spans);
        * ``first_absent`` -- the first absent block's offset (or the
          frame-table end, which the per-record path also treats as a
          bail); a record whose read-ahead window would cross it must
          take the slow path so the prefetcher can issue;
        * the positions of set prefetch bits inside the resident span,
          consumed by a pointer walk as records commit.

        All bounds are immutable while ``cache.epoch`` holds, because
        every operation that can change them bumps it.
        """
        frames = cache._files.get(file_id)
        if frames is None:
            return
        cfg = cache.config
        file_end = cache._file_sizes.get(file_id, 0)
        span_end = run_end if run_end <= file_end else file_end
        if span_end < next_off + length:
            return  # the rest of the run would extend the inode
        bs = cfg.block_bytes
        st = frames.st
        a = next_off // bs
        read_ahead = cfg.read_ahead
        stream = None
        depth_bytes = 0
        wmax = span_end
        if read_ahead:
            stream = cache._streams.get(file_id)
            if stream is None or stream.next_offset != next_off:
                return
            depth_bytes = cfg.auto_depth(length) * length
            wmax = span_end + depth_bytes
            if wmax > file_end:
                wmax = file_end
        table_bytes = st.size * bs
        scan_last = (wmax - 1) // bs  # inclusive
        bounded = scan_last < st.size
        if not bounded:
            scan_last = st.size - 1
        if scan_last < a:
            return
        seg = st[a:scan_last + 1]
        bad = np.flatnonzero(seg != _VALID)
        if bad.size:
            resident_until = (a + int(bad[0])) * bs
            absent_rel = bad[seg[bad] == _ABSENT]
            if absent_rel.size:
                first_absent = (a + int(absent_rel[0])) * bs
            else:
                first_absent = wmax + 1 if bounded else table_bytes
        else:
            resident_until = (scan_last + 1) * bs
            first_absent = wmax + 1 if bounded else table_bytes
        if resident_until > span_end:
            resident_until = span_end
        if resident_until < next_off + length:
            return  # not even one more record commits fast
        rb = (resident_until - 1) // bs
        pf_rel = np.flatnonzero(frames.pf[a:rb + 1])
        nb_limit = cfg.n_blocks
        cap = cfg.max_blocks_per_process
        if cap is not None and cap < nb_limit:
            nb_limit = cap
        memo = _RunMemo()
        memo.epoch = cache.epoch
        memo.next_off = next_off
        memo.length = length
        memo.resident_until = resident_until
        memo.first_absent = first_absent
        memo.depth_bytes = depth_bytes
        memo.file_end = file_end
        memo.nb_limit = nb_limit
        memo.pf_pos = (pf_rel + a).tolist()
        memo.pf_ptr = 0
        memo.frames = frames
        memo.stream = stream
        self._memos[file_id] = memo
        self._c_runs.inc()

    def _commit_from_memo(self, cache, memo, file_id, offset, length):
        """Scalar-side commit of one run record against its memo.

        Mirrors :meth:`_classify_and_commit`'s all-clean commit branch;
        the checks that remain per record (span within the resident
        bound, block-count caps, the read-ahead window against the first
        absent block) are plain integer comparisons.
        """
        end = offset + length
        if end > memo.resident_until:
            del self._memos[file_id]
            return None
        cfg = cache.config
        bs = cfg.block_bytes
        a = offset // bs
        b = (end - 1) // bs
        if b - a + 1 > memo.nb_limit:
            del self._memos[file_id]
            return None
        stream = memo.stream
        advance = False
        we = 0
        if stream is not None:
            we = end + memo.depth_bytes
            if we > memo.file_end:
                we = memo.file_end
            start = stream.prefetch_until
            if start < end:
                start = end
            if start < we:
                if we > memo.first_absent:
                    # The window reaches an absent block (or runs off
                    # the frame table): the prefetcher must issue, which
                    # only the full path may do.
                    del self._memos[file_id]
                    return None
                advance = True
        # ---- commit (identical effects to the classify path) ---------
        frames = memo.frames
        stats = cache._stats
        stats.read_requests += 1
        stats.read_bytes += length
        self.metrics.demand_series.add(self.engine.now, length / MB)
        stats.block_hits += b - a + 1
        pf_pos = memo.pf_pos
        p = memo.pf_ptr
        if p < len(pf_pos) and pf_pos[p] <= b:
            q = p + 1
            n_pf = len(pf_pos)
            while q < n_pf and pf_pos[q] <= b:
                q += 1
            stats.readahead_hits += q - p
            frames.pf[a:b + 1] = False
            memo.pf_ptr = q
        cache._clean_touch(frames, a, b + 1)
        if stream is not None:
            stream.next_offset = end
            stream.length = length
            if advance:
                stream.prefetch_until = we
        memo.next_off = end
        return cfg.hit_penalty_s(length)

    def _classify_and_commit(self, cache, file_id, offset, length):
        cfg = cache.config
        file_end = cache._file_sizes.get(file_id, 0)
        end = offset + length
        if end > file_end:
            return None  # would extend the inode; leave to the real path
        frames = cache._files.get(file_id)
        if frames is None:
            return None
        bs = cfg.block_bytes
        a = offset // bs
        b = (end - 1) // bs
        st = frames.st
        if b >= st.size:
            return None
        nb = b - a + 1
        if nb > cfg.n_blocks:
            return None
        cap = cfg.max_blocks_per_process
        if cap is not None and nb > cap:
            return None
        seg = st[a:b + 1]
        if seg.min() < _VALID:
            return None  # an absent or in-flight block in the span
        stream = None
        matched = False
        advance = False
        we = 0
        if cfg.read_ahead:
            stream = cache._streams.get(file_id)
            matched = stream is not None and offset == stream.next_offset
            if matched:
                we = end + cfg.auto_depth(length) * length
                if we > file_end:
                    we = file_end
                start = stream.prefetch_until
                if start < end:
                    start = end
                if start < we:
                    wlast = (we - 1) // bs
                    if wlast >= st.size:
                        return None
                    if st[start // bs:wlast + 1].min() == _ABSENT:
                        return None
                    advance = True
        # ---- commit --------------------------------------------------
        stats = cache._stats
        stats.read_requests += 1
        stats.read_bytes += length
        self.metrics.demand_series.add(self.engine.now, length / MB)
        stats.block_hits += nb
        pfseg = frames.pf[a:b + 1]
        npf = int(np.count_nonzero(pfseg))
        if npf:
            stats.readahead_hits += npf
            frames.pf[a:b + 1] = False
        # The touch skips the span's dirty/flushing frames.
        cache._clean_touch(frames, a, b + 1)
        if cfg.read_ahead:
            if matched:
                stream.next_offset = end
                stream.length = length
                if advance:
                    # No absent block in the window, so the prefetcher
                    # marches straight to window_end without issuing.
                    stream.prefetch_until = we
            else:
                cache._streams[file_id] = _StreamState(
                    next_offset=end, length=length
                )
        return cfg.hit_penalty_s(length)

    # ------------------------------------------------------------------
    # Vectorized whole-run commit
    # ------------------------------------------------------------------
    # Fewer records than this and the planning pass costs more than the
    # per-record machinery it elides; more than _MAX_BULK and the numpy
    # temporaries stop fitting comfortably in cache.
    _MIN_BULK = 6
    _MAX_BULK = 2048

    def _bulk_plan(self, p):
        """Per-process bulk candidacy for the record at its cursor.

        Returns ``(memo, cursor, off0, length, mcap, d)`` or None.
        ``mcap`` is the number of consecutive records provably
        committable against the run memo (row-adjacent same-shape reads,
        span within the memo's resident and read-ahead bounds).  ``d``
        has ``mcap + 1`` entries: ``d[0]`` is the process's current
        pending compute and ``d[j]`` the compute it will owe after
        issuing record ``cursor + j - 1`` -- built with the scalar
        path's exact float association, ``(delta + fs) + penalty``,
        penalty elided for async records (their completion callback is a
        no-op).
        """
        cache = self.cache
        c = p._cursor
        fid = p._file_ids[c]
        if p._writes[c]:
            return None
        memo = self._memos.get(fid)
        if memo is None or (
            memo.epoch != cache.epoch and not self._memo_fresh(memo, fid)
        ):
            return None
        off0 = p._offsets[c]
        L = p._lengths[c]
        if memo.next_off != off0 or memo.length != L or L <= 0:
            return None
        cfg = cache.config
        if L // cfg.block_bytes + 1 > memo.nb_limit:
            return None  # a record could exceed the span cap mid-run
        bb = memo.resident_until
        if memo.stream is not None and memo.file_end > memo.first_absent:
            t = memo.first_absent - memo.depth_bytes
            if t < bb:
                bb = t  # past this, a read-ahead window must issue
        mcap = int(p._row_run_end[c]) - c
        km = (bb - off0) // L
        if km < mcap:
            mcap = int(km)
        if mcap > self._MAX_BULK:
            mcap = self._MAX_BULK
        if mcap < 1:
            return None
        fs = p._fs_overhead_s
        pen = cfg.hit_penalty_s(L)
        n = p._n_records
        d = np.empty(mcap + 1)
        d[0] = p._pending_compute
        hi = c + mcap + 1
        if hi <= n:
            body = p._np_deltas[c + 1:hi] + fs
        else:
            body = np.concatenate((p._np_deltas[c + 1:n], [0.0])) + fs
        body[~p._np_asyncs[c:c + mcap]] += pen
        d[1:] = body
        return memo, c, off0, L, mcap, d

    def _bulk_commit_proc(self, p, memo, c, off0, L, m):
        """Cache-side and replay-state effects of ``m`` run records.

        Mirrors ``m`` consecutive :meth:`_commit_from_memo` calls minus
        the LRU touches (the caller orders those) and the time-dependent
        series adds (the caller vectorizes those against the slice-end
        times).  Returns the per-record block bounds for both.
        """
        cache = self.cache
        bs = cache.config.block_bytes
        offs = off0 + L * np.arange(m, dtype=np.int64)
        a = offs // bs
        b = (offs + (L - 1)) // bs
        frames = memo.frames
        stats = cache._stats
        stats.read_requests += m
        stats.read_bytes += m * L
        stats.block_hits += int((b - a).sum()) + m
        b_last = int(b[-1])
        pf_pos = memo.pf_pos
        ptr = memo.pf_ptr
        if ptr < len(pf_pos) and pf_pos[ptr] <= b_last:
            q = bisect_right(pf_pos, b_last, ptr)
            stats.readahead_hits += q - ptr
            frames.pf[int(a[0]):b_last + 1] = False
            memo.pf_ptr = q
        end_last = int(offs[-1]) + L
        stream = memo.stream
        if stream is not None:
            stream.next_offset = end_last
            stream.length = L
            if memo.depth_bytes > 0:
                # Monotone window growth: the final prefetch mark equals
                # the last record's window end (the per-record advances
                # only ratchet toward it); with depth 0 no record ever
                # opens a window, so the mark must not move.
                we = end_last + memo.depth_bytes
                if we > memo.file_end:
                    we = memo.file_end
                if stream.prefetch_until < we:
                    stream.prefetch_until = we
        memo.next_off = end_last
        p._cursor = c + m
        p._pstats.n_ios += m
        return a, b, frames

    def _try_bulk(self, proc, cpu, when, until):
        """Classify and commit a whole clean-resident run in one pass.

        Emulates the full dispatch/slice/issue cycle for up to
        ``_MAX_BULK`` consecutive resident-read records -- solo, or two
        processes in strict round-robin alternation on one CPU -- and
        enters the event engine once, at the final slice end.  Every
        accumulator (clock, busy time, per-process CPU, binned series)
        is advanced with the exact float association the scalar path
        uses: running sums via ``np.cumsum`` (sequential accumulation),
        binned adds via ``np.add.at`` (unbuffered, in-order).  Declines
        (returning 0) whenever any cycle could deviate: another calendar
        entry before the final slice end, a slice that would hit quantum
        expiry, a busy interval crossing a bin boundary, or a record
        past the run memo's bounds.
        """
        if type(proc) is not BatchTraceProcess:
            return 0
        if not proc._bulk_eligible[proc._cursor]:
            return 0
        if not self._fast_cache or self.cache.degraded:
            return 0
        sched = self.scheduler
        ready = sched._ready
        nready = len(ready)
        if nready == 0:
            other = None
        elif nready == 1:
            other = ready[0]
            if type(other) is not BatchTraceProcess:
                return 0
            if not other._bulk_eligible[other._cursor]:
                return 0
        else:
            return 0
        plan0 = self._bulk_plan(proc)
        if plan0 is None:
            return 0
        memo0, c0, off0, L0, mcap0, d0 = plan0
        config = sched.config
        quantum = config.quantum_s
        min_bulk = self._MIN_BULK
        bad = np.flatnonzero((d0[:mcap0] <= 0.0) | (d0[:mcap0] > quantum))
        v0 = int(bad[0]) if bad.size else mcap0
        if other is not None:
            plan1 = self._bulk_plan(other)
            if plan1 is None:
                return 0
            memo1, c1, off1, L1, mcap1, d1 = plan1
            if memo1 is memo0:
                return 0  # same file: the two streams would interleave
            bad = np.flatnonzero((d1[:mcap1] <= 0.0) | (d1[:mcap1] > quantum))
            v1 = int(bad[0]) if bad.size else mcap1
            j_max = min(2 * v0, 2 * v1 + 1)
            sw = config.switch_overhead_s
        else:
            j_max = v0
            sw = 0.0
        if j_max < min_bulk:
            return 0
        # Interleaved slice sequence and the exact event-time chain:
        # e_k = ((e_{k-1} + sw) + d_k), reproduced by one sequential
        # cumsum over [when, d_1, sw, d_2, sw, ...].
        if other is not None:
            ds = np.empty(j_max)
            ds[0::2] = d0[:(j_max + 1) // 2]
            ds[1::2] = d1[:j_max // 2]
        else:
            ds = d0[:j_max]
        x = np.empty(2 * j_max)
        x[0] = when
        x[1::2] = ds
        x[2::2] = sw
        cs = np.cumsum(x)
        e = cs[1::2]
        # Time horizon: the per-record pump bails at t2 > until or
        # t2 >= next-entry; the next entry after our dispatch is the
        # smaller root child (the dispatch itself still heads the heap).
        heap = self.engine._heap
        if len(heap) >= 3:
            horizon = min(heap[1][0], heap[2][0])
        elif len(heap) == 2:
            horizon = heap[1][0]
        else:
            horizon = math.inf
        j = int(min(
            np.searchsorted(e, until, side="right"),
            np.searchsorted(e, horizon, side="left"),
            j_max,
        ))
        if j < min_bulk:
            return 0
        # Busy spreads must stay single-bin: add_spread's multi-segment
        # loop has its own rounding, so a slice crossing a bin edge
        # falls back to the per-record path.
        metrics = self.metrics
        busy = metrics.busy_series
        t0b = busy.t0
        bw = busy.bin_width
        tst = e[:j] - ds[:j]
        w = e[:j] - tst
        bi = ((tst - t0b) / bw).astype(np.int64)
        be = t0b + (bi + 1) * bw
        low = be <= tst
        if low.any():
            be = np.where(low, t0b + (bi + 2) * bw, be)
        cross = np.flatnonzero((w > 0.0) & (be < e[:j]))
        if cross.size:
            j = int(cross[0])
        # The cycle after the last record must owe compute, else its
        # slice-done would chain the next issue inside the same event.
        while j >= min_bulk:
            if other is None:
                nxt = d0[j]
            elif j & 1:
                nxt = d0[(j + 1) // 2]
            else:
                nxt = d1[j // 2]
            if nxt > 0.0:
                break
            j -= 1
        if j < min_bulk:
            return 0
        # ---- commit ---------------------------------------------------
        heapq.heappop(heap)  # our dispatch entry
        engine = self.engine
        ej = e[:j]
        dj = ds[:j]
        tst = tst[:j]
        w = w[:j]
        bi = bi[:j]
        # J dispatch + J slice events ran; J slice seqs plus J-1
        # follow-on dispatch seqs were allocated (the first dispatch's
        # seq predates the bulk; the last follow-on is scheduled for
        # real below).
        engine.advance_inline(float(ej[-1]), 2 * j, 2 * j - 1)
        m0 = (j + 1) // 2 if other is not None else j
        m1 = j // 2
        # Busy series, in the scalar path's add order: each slice's
        # spread, then (in pair mode) the following context switch's
        # point charge at the slice end.  (w*w)/w replicates the
        # single-bin add_spread's weight*(seg/duration) rounding.
        kept = w > 0.0
        if other is not None and sw > 0.0:
            seq_idx = np.empty(2 * j - 1, dtype=np.int64)
            seq_val = np.empty(2 * j - 1)
            seq_idx[0::2] = bi
            seq_idx[1::2] = ((ej[:j - 1] - t0b) / bw).astype(np.int64)
            wk = np.where(kept, w, 1.0)
            seq_val[0::2] = (wk * wk) / wk
            seq_val[1::2] = sw
            keep = np.ones(2 * j - 1, dtype=bool)
            keep[0::2] = kept
            busy.add_at(seq_idx[keep], seq_val[keep])
            metrics.switch_seconds = float(np.cumsum(np.concatenate(
                ([metrics.switch_seconds], np.full(j - 1, sw))))[-1])
            sched._c_switches.inc(j - 1)
        elif kept.all():
            busy.add_at(bi, (w * w) / w)
        else:
            wk = w[kept]
            busy.add_at(bi[kept], (wk * wk) / wk)
        metrics.busy_seconds = float(np.cumsum(np.concatenate(
            ([metrics.busy_seconds], dj)))[-1])
        dmd = metrics.demand_series
        didx = ((ej - dmd.t0) / dmd.bin_width).astype(np.int64)
        if other is not None:
            dval = np.empty(j)
            dval[0::2] = L0 / MB
            dval[1::2] = L1 / MB
        else:
            dval = np.full(j, L0 / MB)
        dmd.add_at(didx, dval)
        # Per-process accumulators (each folds its own slices, in order).
        a0, b0, frames0 = self._bulk_commit_proc(proc, memo0, c0, off0, L0, m0)
        proc._pending_compute = float(d0[m0])
        ps = proc._pstats
        if other is not None:
            dsp = dj[0::2]
        else:
            dsp = dj
        ps.cpu_seconds = float(np.cumsum(np.concatenate(
            ([ps.cpu_seconds], dsp)))[-1])
        cache = self.cache
        if other is None:
            cache._clean_touch(frames0, int(a0[0]), int(b0[-1]) + 1)
        else:
            a1, b1, frames1 = self._bulk_commit_proc(
                other, memo1, c1, off1, L1, m1
            )
            other._pending_compute = float(d1[m1])
            ps1 = other._pstats
            ps1.cpu_seconds = float(np.cumsum(np.concatenate(
                ([ps1.cpu_seconds], dj[1::2])))[-1])
            # LRU order is digest-visible through eviction victims, and
            # the two files' touches interleave record by record -- so
            # touch per record, in issue order, not per file.
            touch = cache._clean_touch
            a0, b0 = a0.tolist(), b0.tolist()
            a1, b1 = a1.tolist(), b1.tolist()
            for k in range(j):
                i = k >> 1
                if k & 1:
                    touch(frames1, a1[i], b1[i] + 1)
                else:
                    touch(frames0, a0[i], b0[i] + 1)
        # Scheduler tail: leave the real machinery to schedule the
        # follow-on dispatch (and charge its switch) exactly as if the
        # last emulated slice-done had just returned.
        last = proc if (other is None or (j & 1)) else other
        if other is not None:
            if last is other:
                ready[0] = proc
            sched._running[cpu] = last
            sched._last_on_cpu[cpu] = last
        sched.dispatches += j - 1
        sched._c_dispatches.inc(j - 1)
        sched._g_ready.set_max(2 if other is not None else 1)
        sched._release(cpu)
        ready.append(last)
        sched._maybe_dispatch()
        self._c_bulk.inc()
        self._c_fast_reads.inc(j)
        return j

    # ------------------------------------------------------------------
    # Sequential-write fast path
    # ------------------------------------------------------------------
    def try_fast_write(self, file_id: int, offset: int, length: int,
                       owner: int, run_end: int = 0):
        """Absorb a write-behind write directly into the frame tables.

        Returns the hit penalty (the writer continues immediately, as
        write-behind always lets it), or None when the record needs
        :meth:`BufferCache.write`: write-through (completion is
        asynchronous), degraded mode, a span that would extend the inode
        or grow the frame table, an oversized request, or an allocation
        that would evict or recycle frames -- eviction ordering belongs
        to the slow path.  The flush itself is always delegated to
        :meth:`BufferCache.issue_disk_write` /
        :meth:`BufferCache.schedule_delayed_flush`, so device submit
        order -- and with it the fault injector's RNG stream -- is
        untouched.
        """
        cache = self.cache
        cfg = cache.config
        if (
            not self._fast_cache
            or cache.degraded
            or not cfg.write_behind
            or length <= 0
        ):
            self._c_write_bailouts.inc()
            return None
        memo = self._wmemos.get(file_id)
        if memo is not None:
            if (
                offset == memo.next_off
                and length == memo.length
                and owner == memo.owner
                and (memo.epoch == cache.epoch
                     or self._memo_fresh(memo, file_id))
            ):
                penalty = self._commit_write_from_memo(
                    cache, memo, file_id, offset, length, owner
                )
                if penalty is not None:
                    self._c_fast_writes.inc()
                    return penalty
            else:
                del self._wmemos[file_id]
        if self.skip_writes > 0:
            self.skip_writes -= 1
            self._c_write_bailouts.inc()
            return None
        penalty = self._classify_and_commit_write(
            cache, file_id, offset, length, owner
        )
        self._wwin_attempts += 1
        if penalty is not None:
            self._wwin_hits += 1
            self._c_fast_writes.inc()
            end = offset + length
            if run_end > end:
                self._build_write_memo(
                    cache, file_id, end, length, run_end, owner
                )
        else:
            self._c_write_bailouts.inc()
        if self._wwin_attempts >= 32:
            # Same back-off economics as the read guard: when eviction
            # pressure makes most attempts bail, stop paying for the
            # classification scans for a stretch.  Skipping an attempt
            # and having it bail are indistinguishable.
            if self._wwin_hits * 8 < self._wwin_attempts * 3:
                self.skip_writes = 160
            self._wwin_attempts = 0
            self._wwin_hits = 0
        return penalty

    def _classify_and_commit_write(self, cache, file_id, offset, length,
                                   owner):
        """One-record classification + commit for an eviction-free write.

        Mirrors :meth:`BufferCache.write` + ``_PendingWrite.start`` for
        the case where every absent frame fits without eviction: stats,
        demand series, dirty allocation, prefetch-bit clears and the
        flush hand-off are identical by construction.  The generation
        span is snapshotted *after* allocation, which equals the slow
        path's before-allocation snapshot patched with the new
        generations, because no eviction can have bumped a present
        frame's generation in between.
        """
        cfg = cache.config
        end = offset + length
        if end > cache._file_sizes.get(file_id, 0):
            return None  # would extend the inode; leave to the real path
        frames = cache._files.get(file_id)
        if frames is None:
            return None
        bs = cfg.block_bytes
        first = offset // bs
        last = (end - 1) // bs
        st = frames.st
        if last >= st.size:
            return None  # frame table would grow
        nb = last - first + 1
        cap = cfg.max_blocks_per_process
        if nb > cfg.n_blocks or (cap is not None and nb > cap):
            return None  # oversized: the bypass path owns it
        seg = st[first:last + 1]
        if seg.all():
            absent = None
            needed = 0
        else:
            absent = np.flatnonzero(seg == _ABSENT) + first
            needed = int(absent.size)
            if needed > cfg.n_blocks - cache._resident:
                return None  # would evict
            if (
                cap is not None
                and cache._owner_counts.get(owner, 0) + needed > cap
            ):
                return None  # would recycle the owner's own frames
        # ---- commit (identical effects to BufferCache.write) ----------
        stats = cache._stats
        stats.write_requests += 1
        stats.write_bytes += length
        self.metrics.demand_series.add(self.engine.now, length / MB)
        if needed:
            frames.st[absent] = _DIRTY
            frames.own[absent] = owner
            frames.pf[absent] = False
            frames.gen[absent] += 1
            counts = cache._owner_counts
            counts[owner] = counts.get(owner, 0) + needed
            cache._resident += needed
        if needed != nb:
            # Some frames were present: their prefetch bits are spent,
            # exactly as the slow path clears them post-allocation.
            frames.pf[first:last + 1] = False
        pre_epoch = cache.epoch
        cache.epoch += 1
        gen_span = frames.gen[first:last + 1].copy()
        run = _Run(file_id, first, last + 1, gen_span)
        stats.writes_absorbed += 1
        if cfg.flush_delay_s > 0:
            cache.schedule_delayed_flush(file_id, offset, length, run)
        else:
            cache.issue_disk_write(file_id, offset, length, run)
        self._note_benign_bump(file_id, pre_epoch, needed)
        return cfg.hit_penalty_s(length)

    def _build_write_memo(self, cache, file_id, next_off, length, run_end,
                          owner):
        """One vectorized pass bounding how far the write run absorbs fast.

        Scans the frame table once over the run's remaining span and
        records the byte bound at which its classification flips -- the
        first non-absent frame for an allocating run, the first absent
        frame for an overwrite run -- plus the frame budget the run may
        allocate before eviction or an ownership-cap recycle triggers.
        Records beyond either bound fall back to per-record
        classification (which handles mixed spans) or to the slow path.
        """
        frames = cache._files.get(file_id)
        if frames is None:
            return
        cfg = cache.config
        file_end = cache._file_sizes.get(file_id, 0)
        span_end = run_end if run_end <= file_end else file_end
        if span_end < next_off + length:
            return  # the rest of the run would extend the inode
        bs = cfg.block_bytes
        # Worst-case blocks one record can cover; oversized requests
        # belong to the bypass path and must not commit here.
        nb_max = (length - 1) // bs + 2
        cap = cfg.max_blocks_per_process
        if nb_max > cfg.n_blocks or (cap is not None and nb_max > cap):
            return
        st = frames.st
        prev_last = (next_off - 1) // bs
        scan_from = prev_last + 1
        scan_last = (span_end - 1) // bs
        if scan_last >= st.size:
            scan_last = st.size - 1  # past the table: the slow path grows it
        if scan_last < scan_from:
            return
        seg = st[scan_from:scan_last + 1]
        alloc = seg[0] == _ABSENT
        bad = np.flatnonzero(seg != _ABSENT if alloc else seg == _ABSENT)
        if bad.size:
            absorb_until = (scan_from + int(bad[0])) * bs
        else:
            absorb_until = (scan_last + 1) * bs
        if absorb_until > span_end:
            absorb_until = span_end
        if absorb_until < next_off + length:
            return  # not even one more record commits fast
        budget = cfg.n_blocks - cache._resident
        if cap is not None:
            allowed = cap - cache._owner_counts.get(owner, 0)
            if allowed < budget:
                budget = allowed
        memo = _WriteMemo()
        memo.epoch = cache.epoch
        memo.next_off = next_off
        memo.length = length
        memo.absorb_until = absorb_until
        memo.alloc = bool(alloc)
        memo.budget = budget
        memo.prev_last = prev_last
        memo.owner = owner
        memo.frames = frames
        self._wmemos[file_id] = memo
        self._c_runs.inc()

    def _commit_write_from_memo(self, cache, memo, file_id, offset, length,
                                owner):
        """Scalar-side commit of one write-run record against its memo.

        The remaining per-record checks are integer comparisons: the
        span against the absorb bound, the allocation against the frame
        budget.  The flush hand-off still goes through the real cache
        entry points; the memo's epoch is resynchronized afterwards
        because nothing foreign runs during the commit.
        """
        end = offset + length
        if end > memo.absorb_until:
            del self._wmemos[file_id]
            return None
        cfg = cache.config
        bs = cfg.block_bytes
        first = offset // bs
        last = (end - 1) // bs
        frames = memo.frames
        nb = last - first + 1
        if memo.alloc:
            a0 = first + 1 if first == memo.prev_last else first
            needed = last - a0 + 1
            if needed > memo.budget:
                del self._wmemos[file_id]
                return None
        else:
            a0 = first
            needed = 0
        # ---- commit (identical effects to the classify path) ----------
        stats = cache._stats
        stats.write_requests += 1
        stats.write_bytes += length
        self.metrics.demand_series.add(self.engine.now, length / MB)
        if needed > 0:
            absent = np.arange(a0, last + 1)
            frames.st[absent] = _DIRTY
            frames.own[absent] = owner
            frames.pf[absent] = False
            frames.gen[absent] += 1
            counts = cache._owner_counts
            counts[owner] = counts.get(owner, 0) + needed
            cache._resident += needed
            memo.budget -= needed
        if needed != nb:
            # The boundary block (or, on an overwrite run, the whole
            # span) was already framed by this kernel's own commits;
            # its prefetch bit is clear, but mirror the slow path's
            # unconditional post-allocation clear anyway.
            frames.pf[first:last + 1] = False
        pre_epoch = cache.epoch
        cache.epoch += 1
        gen_span = frames.gen[first:last + 1].copy()
        run = _Run(file_id, first, last + 1, gen_span)
        stats.writes_absorbed += 1
        if cfg.flush_delay_s > 0:
            cache.schedule_delayed_flush(file_id, offset, length, run)
        else:
            cache.issue_disk_write(file_id, offset, length, run)
        self._note_benign_bump(file_id, pre_epoch, needed)
        memo.next_off = end
        memo.prev_last = last
        memo.epoch = cache.epoch
        return cfg.hit_penalty_s(length)


class BatchTraceProcess(TraceProcess):
    """A :class:`TraceProcess` whose I/O consults the kernel first.

    Only :meth:`_submit` is overridden: demand reads and writes are
    offered to the fast paths and fall back to the full cache
    untouched.  The replay loop, blocking discipline and accounting are
    the base class's.
    """

    def __init__(self, *args, kernel: BatchKernel, **kwargs):
        super().__init__(*args, **kwargs)
        self._kernel = kernel
        # Exclusive byte end of each record's per-file sequential run,
        # decoded to a plain list like the other replay columns.  The
        # kernel uses it to bound the span one classification pass can
        # memoise for the run's remaining records.
        self._run_ends: list[int] = self.trace.stream_run_ends().tolist()
        # Bulk-commit columns: exclusive *record-index* end of each
        # record's row-adjacent run (same file/size/direction, strictly
        # sequential rows -- the stretch the kernel may emulate without
        # a shape change), plus numpy views of the compute deltas and
        # async flags for vectorized pending-compute chains.
        n = self._n_records
        starts = self.trace.sequential_runs()
        if n:
            rid = np.zeros(n, dtype=np.int64)
            rid[starts[1:]] = 1
            self._row_run_end = np.concatenate(
                (starts[1:], [n])
            )[np.cumsum(rid)]
        else:
            self._row_run_end = np.zeros(0, dtype=np.int64)
        self._np_deltas = np.array(self._deltas_s, dtype=float)
        self._np_asyncs = np.array(self._asyncs, dtype=bool)
        # O(1) bulk-commit gate, indexed by cursor: True only where a
        # row-adjacent read run long enough to possibly clear _MIN_BULK
        # starts or continues (>= 3 records: the pair-mode minimum, at
        # least ceil(_MIN_BULK / 2) per process).  Length n + 1 so the
        # final dispatch (cursor == n, trailing compute) indexes False
        # instead of out of bounds.  Workloads that never run 3 reads
        # back to back -- venus alternates read/write per record -- pay
        # one boolean load per dispatch instead of a planning pass.
        eligible = np.zeros(n + 1, dtype=bool)
        if n:
            run_left = self._row_run_end - np.arange(n, dtype=np.int64)
            eligible[:n] = (run_left >= 3) & ~np.array(
                self._writes, dtype=bool
            )
        self._bulk_eligible = eligible

    def _submit(self, file_id, offset, length, is_write, on_done) -> None:
        # on_cpu_available advanced the cursor before submitting, so
        # the issuing record is cursor - 1.
        if is_write:
            penalty = self._kernel.try_fast_write(
                file_id, offset, length, self.process_id,
                self._run_ends[self._cursor - 1],
            )
        else:
            penalty = self._kernel.try_fast_read(
                file_id, offset, length, self._run_ends[self._cursor - 1]
            )
        if penalty is not None:
            (on_done if on_done is not None else _noop)(penalty)
            return
        callback = on_done if on_done is not None else _noop
        if is_write:
            self.cache.write(file_id, offset, length, self.process_id, callback)
        else:
            self.cache.read(file_id, offset, length, self.process_id, callback)
