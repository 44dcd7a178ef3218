"""Vectorized fast path for :func:`~repro.trace.decode.decode_array`.

The scalar decoder walks the trace line by line in Python; at a few
million lines that loop dominates every cold trace load.  This module
decodes the *whole document* with NumPy instead: one pass classifies
bytes, :func:`~repro.trace.digits.parse_digits` parses every integer
token at once, and
the omitted-field reconstruction (the format's per-file / per-process
delta state) becomes grouped ffills and segmented cumsums over the
parsed token table.

Correctness contract
--------------------
The fast path must be **byte-identical** to the scalar decoder or not
run at all.  It therefore accepts only the strict output grammar of
:class:`~repro.trace.encode.TraceEncoder` -- ASCII digits, single
spaces, ``\\n`` line ends, ``255``-prefixed comment lines -- and
*wholesale falls back* to the scalar path on any deviation: stray
bytes, tabs, a minus sign (no field of a decodable record is negative),
oversized numbers, unknown compression bits, omitted fields without
prior state, anything.  The fallback decodes the whole document record
by record with a fresh :class:`~repro.trace.decode.TraceDecoder`, so
every :class:`~repro.util.errors.TraceFormatError` (message and line
number) and every weird-but-accepted input (``int("1_0")``, ``+5``,
``-0``) is the decoder's -- just slower.  Divergence is only possible
when the fast path *succeeds*, and success requires the strict grammar
plus magnitude guards that make its int64 arithmetic provably exact
(see ``_MAX_ABS`` / ``_MAX_ACC``).
"""

from __future__ import annotations

import numpy as np

from repro.trace import flags as F
from repro.trace.array import ID_END, TraceArray, group_cumsum, group_order
from repro.trace.digits import MAX_DIGITS, parse_digits

_NL = 0x0A
_SPACE = 0x20
_D0 = 0x30
_D9 = 0x39

#: Per-token magnitude guard.  Tokens beyond this fall back to the
#: scalar path; below it, the ``*_IN_BLOCKS`` multiply (x512 = 2**9)
#: stays under 2**54 and can never overflow int64.
_MAX_ABS = 1 << 45
#: Accumulation guard.  Running sums (start times, per-file offsets,
#: per-process clocks) are shadowed in float64; while every partial sum
#: stays under 2**52 the float arithmetic is exact, so a bounded shadow
#: proves the int64 cumsum did not wrap.  Beyond it: scalar fallback
#: (Python ints are unbounded there, and the decoder rejects a value no
#: column can hold).
_MAX_ACC = float(1 << 52)


def decode_document(buf: bytes) -> TraceArray | None:
    """Decode a whole document; ``None`` means scalar fallback.

    Only ASCII documents are taken, comment text included.  Each byte-
    and token-level array is dropped once the next stage no longer needs
    it: freed heap space stays resident, so the temporaries alive at
    once set how far the process's heap grows (42 MB traced on bvi's
    2.1 MB trace at scale 0.05, 20 bytes per document byte).
    """
    if not buf:
        return TraceArray.empty()
    if not buf.isascii():
        return None
    if not buf.endswith(b"\n"):
        buf += b"\n"
    a = np.frombuffer(buf, dtype=np.uint8)
    n = a.size
    isnl = a == _NL
    nl_pos = np.flatnonzero(isnl)
    line_starts = np.concatenate((np.zeros(1, dtype=np.int64), nl_pos[:-1] + 1))

    # -- comment lines: "255" at line start, then space or end-of-line.
    # Comment text is arbitrary, so those bytes are excluded from both
    # the grammar check and tokenization (the scalar path never parses
    # them either).  Anything comment-like the prefix test misses
    # (" 255 x", "0255 1") is caught after parsing and falls back.
    def _at(idx: np.ndarray) -> np.ndarray:
        return a[np.minimum(idx, n - 1)]

    tail = _at(line_starts + 3)
    is_comment_line = (
        (a[line_starts] == 0x32)        # '2'
        & (_at(line_starts + 1) == 0x35)  # '5'
        & (_at(line_starts + 2) == 0x35)  # '5'
        & ((tail == _SPACE) | (tail == _NL))
    )
    has_comments = bool(is_comment_line.any())
    if has_comments:
        delta = np.zeros(n + 1, dtype=np.int8)
        delta[line_starts[is_comment_line]] = 1
        delta[nl_pos[is_comment_line]] -= 1
        # Comment lines do not nest, so the running sum is 0 or 1.
        in_comment = np.cumsum(delta[:n], dtype=np.int8) > 0
        del delta
    del line_starts, tail, is_comment_line

    # Byte-compare chains beat a classification LUT here: comparisons
    # vectorize (SIMD), per-element table gathers do not.
    tok = (a >= _D0) & (a <= _D9)
    grammar_ok = a == _SPACE
    grammar_ok |= isnl
    grammar_ok |= tok
    if has_comments:
        grammar_ok |= in_comment
    if not grammar_ok.all():
        return None
    del grammar_ok, isnl

    if has_comments:
        tok &= ~in_comment
        del in_comment
    if not tok.any():
        return TraceArray.empty()
    tok_start = tok.copy()
    tok_start[1:] &= ~tok[:-1]
    ts = np.flatnonzero(tok_start)
    del tok_start
    # Token lengths.  The encoder separates tokens with exactly one
    # byte (space or newline), in which case lengths follow from
    # consecutive starts alone; verify by total token bytes and only
    # fall back to the end-of-token scan for multi-space/comment gaps.
    dig_len = np.diff(ts, append=n) - 1  # final newline closes the last token
    if int(dig_len.sum()) != int(np.count_nonzero(tok)):
        tok_end = tok.copy()
        tok_end[:-1] &= ~tok[1:]
        dig_len = np.flatnonzero(tok_end) - ts + 1
    del tok
    if (dig_len > MAX_DIGITS).any():
        return None

    vals = parse_digits(a, ts, dig_len)
    del dig_len
    if (vals > _MAX_ABS).any():
        return None

    # -- line structure of the token table: cumulative token count at
    # each line end gives both per-line counts and first-token offsets.
    tok_before_eol = np.searchsorted(ts, nl_pos, side="left")
    del ts, nl_pos
    counts = np.diff(tok_before_eol, prepend=0)
    record_lines = np.flatnonzero(counts > 0)
    m = record_lines.size
    if m == 0:
        return TraceArray.empty()
    base = tok_before_eol[record_lines] - counts[record_lines]
    cnt = counts[record_lines]
    if (cnt < 2).any():
        return None  # "record has no compression field"
    record_type = vals[base]
    if (record_type > 254).any():
        return None  # out of range, or a comment the prefix test missed
    comp = vals[base + 1]
    if (comp & ~F.TRACE_COMPRESSION_MASK).any():
        return None
    has_off = (comp & F.TRACE_NO_BLOCK) == 0
    has_len = (comp & F.TRACE_NO_LENGTH) == 0
    has_op = (comp & F.TRACE_NO_OPERATIONID) == 0
    has_fid = (comp & F.TRACE_NO_FILEID) == 0
    has_pid = (comp & F.TRACE_NO_PROCESSID) == 0
    off_blk = (comp & F.TRACE_OFFSET_IN_BLOCKS) != 0
    len_blk = (comp & F.TRACE_LENGTH_IN_BLOCKS) != 0
    if (off_blk & ~has_off).any() or (len_blk & ~has_len).any():
        return None  # *_IN_BLOCKS set on omitted field
    # recordType, compression, startTime, completionTime, processTime
    # are always present; the five optional fields add one token each.
    expected = 5 + has_off + has_len + has_op + has_fid + has_pid
    if (cnt != expected).any():
        return None  # truncated record or trailing fields

    # -- field positions (struct order, shifted by what is present)
    off_idx = base + 2
    len_idx = off_idx + has_off
    start_idx = len_idx + has_len
    dur_idx = start_idx + 1
    op_idx = dur_idx + 1
    fid_idx = op_idx + has_op
    pid_idx = fid_idx + has_fid
    pt_idx = pid_idx + has_pid

    # Every token is nonnegative, so every partial sum of a cumsum below
    # is bounded by its total; a bounded float64 total proves the int64
    # cumsum is exact.
    start_delta = vals[start_idx]
    if float(np.sum(start_delta, dtype=np.float64)) >= _MAX_ACC:
        return None
    start_time = np.cumsum(start_delta)
    duration = vals[dur_idx]

    # -- processId: previous record in the trace (global ffill)
    if not has_pid[0]:
        return None  # omitted on first record
    pid_exp = vals[pid_idx]
    if (pid_exp[has_pid] >= ID_END).any():
        return None
    process_id = pid_exp[_ffill_index(has_pid)]

    # -- fileId: previous record by this process (per-process ffill)
    porder = group_order(process_id)
    pid_s = process_id[porder]
    pgroup_start = np.empty(m, dtype=bool)
    pgroup_start[0] = True
    pgroup_start[1:] = pid_s[1:] != pid_s[:-1]
    has_fid_s = has_fid[porder]
    if (pgroup_start & ~has_fid_s).any():
        return None  # fileId omitted but process has no prior record
    fid_exp = vals[fid_idx]
    if (fid_exp[has_fid] >= ID_END).any():
        return None
    # First-of-group is always explicit, so a plain running maximum of
    # explicit indices never leaks state across group boundaries.
    fid_s = fid_exp[porder][_ffill_index(has_fid_s)]
    file_id = np.empty(m, dtype=np.int64)
    file_id[porder] = fid_s

    # -- processTime deltas -> absolute per-process clock
    pt = vals[pt_idx]
    if float(np.sum(pt, dtype=np.float64)) >= _MAX_ACC:
        return None
    process_clock = group_cumsum(process_id, pt)

    # -- per-file state: length / operationId ffill, offset by
    # sequential extension (anchor + sum of lengths since the anchor)
    forder = group_order(file_id)
    fid_f = file_id[forder]
    fgroup_start = np.empty(m, dtype=bool)
    fgroup_start[0] = True
    fgroup_start[1:] = fid_f[1:] != fid_f[:-1]
    has_len_s = has_len[forder]
    has_op_s = has_op[forder]
    has_off_s = has_off[forder]
    if (fgroup_start & ~(has_len_s & has_op_s & has_off_s)).any():
        return None  # omitted field but file has no prior record

    # The encoder omits offset/length/operationId under one shared
    # condition in the common case, so the three ffill index vectors
    # usually coincide -- detect that and compute each only once.
    anchor = _ffill_index(has_off_s)
    if np.array_equal(has_len_s, has_off_s):
        len_fill = anchor
    else:
        len_fill = _ffill_index(has_len_s)
    if np.array_equal(has_op_s, has_off_s):
        op_fill = anchor
    elif np.array_equal(has_op_s, has_len_s):
        op_fill = len_fill
    else:
        op_fill = _ffill_index(has_op_s)

    raw = vals[len_idx]
    len_exp = np.where(len_blk, raw * F.TRACE_BLOCK_SIZE, raw)
    len_s = len_exp[forder][len_fill]
    length = np.empty(m, dtype=np.int64)
    length[forder] = len_s

    op_exp = vals[op_idx]
    op_s = op_exp[forder][op_fill]
    operation_id = np.empty(m, dtype=np.int64)
    operation_id[forder] = op_s

    if float(np.sum(len_s, dtype=np.float64)) >= _MAX_ACC:
        return None
    lcsum = np.cumsum(len_s)
    excl = lcsum - len_s  # lengths of earlier records, all files mixed;
    # differences below only ever span one contiguous file group.
    raw = vals[off_idx]
    off_exp = np.where(off_blk, raw * F.TRACE_BLOCK_SIZE, raw)
    off_exp_s = off_exp[forder]
    off_s = off_exp_s[anchor] + (excl - excl[anchor])
    offset = np.empty(m, dtype=np.int64)
    offset[forder] = off_s

    return TraceArray(
        record_type.astype(np.uint16),
        file_id.astype(np.uint32),
        process_id.astype(np.uint32),
        operation_id.astype(np.uint64),
        offset,
        length,
        start_time,
        duration,
        process_clock,
    )


def _ffill_index(present: np.ndarray) -> np.ndarray:
    """Index of the most recent True at or before each position.

    ``present[0]`` must be True (callers check); the result then always
    points at a valid explicit entry.
    """
    idx = np.where(present, np.arange(present.size, dtype=np.int64), -1)
    np.maximum.accumulate(idx, out=idx)
    return idx
