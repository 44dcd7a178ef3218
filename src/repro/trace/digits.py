"""Vectorized decimal integers for the two ASCII documents of section 4.

The packet log (:mod:`repro.trace.packets`) and the compressed trace
(:mod:`repro.trace.encode`, :mod:`repro.trace.decode_fast`) are both
lines of space-separated decimal integers.  At a few hundred thousand
lines a ``str()`` or ``int()`` per field dominates their cost, so both
directions run here on whole documents with NumPy:

* :func:`format_rows` writes a table of integers as lines, every digit
  of every field in one pass;
* :func:`parse_digits` evaluates every digit run of a document by
  Horner's rule, one digit-count class at a time.

Neither knows the grammar of the document around the digits; the
callers check it and fall back to their scalar code where it does not
hold.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_D0 = 0x30
_SPACE = 0x20
_NL = 0x0A

#: Longest digit run :func:`parse_digits` accepts: 10**18 - 1 < 2**63.
MAX_DIGITS = 18

#: :func:`format_rows` writes four digits per step, each step one
#: gather from a table of their ASCII bytes packed little-endian in a
#: ``uint32``.  Entries ``[_CHUNK:]`` are a field's leading chunk: its
#: leading zeros are NUL bytes, which the final pass deletes.
_CHUNK = 10_000


def _chunk_table() -> np.ndarray:
    c = np.arange(_CHUNK)
    digits = np.stack([c // 1000, c // 100 % 10, c // 10 % 10, c % 10], axis=1)
    padded = (digits + _D0).astype(np.uint8)
    leading = padded.copy()
    width = 1 + (c >= 10) + (c >= 100) + (c >= 1000)
    leading[np.arange(4) < (4 - width)[:, None]] = 0
    return np.concatenate((padded, leading)).view("<u4").ravel()


_LOW = _chunk_table()
# Above the lowest chunk, a leading chunk of 0 means the field has no
# digits left: no bytes at all.
_HIGH = _LOW.copy()
_HIGH[_CHUNK] = 0


def _chunks(top: int) -> int:
    """Four-digit chunks needed to write every value up to ``top``."""
    k = 1
    while _CHUNK**k <= top:
        k += 1
    return k


#: Rows :func:`format_rows` lays out at once; bounds its working memory.
_BLOCK_ROWS = 1 << 16


def format_rows(
    columns: Sequence[np.ndarray],
    present: Sequence[np.ndarray | None] | None = None,
    tags: np.ndarray | None = None,
) -> bytes:
    """A table of nonnegative integers as ASCII lines, one per row.

    Row *i* is written as the values ``columns[j][i]`` whose
    ``present[j][i]`` is true (every value of a column whose ``present``
    entry is None), in column order, separated by single spaces and
    ended by ``\\n``; with ``tags`` it starts with the byte ``tags[i]``
    and a space.  Every row must have a present value.  Values are
    int64 and >= 0.
    """
    present = present or [None] * len(columns)
    n = columns[0].size
    return b"".join(
        _format_block(
            [values[lo : lo + _BLOCK_ROWS] for values in columns],
            [None if shown is None else shown[lo : lo + _BLOCK_ROWS] for shown in present],
            None if tags is None else tags[lo : lo + _BLOCK_ROWS],
        )
        for lo in range(0, n, _BLOCK_ROWS)
    )


def _format_block(columns, present, tags) -> bytes:
    """:func:`format_rows` for one block of rows.

    The block is laid out as fixed-width ``uint32`` cells, column-major
    so each step writes one contiguous row of cells: per column, four
    digits per cell and one cell for the separator.  Cells are padded
    with NUL bytes, and one pass over the finished block deletes them.
    """
    n = columns[0].size
    tops = [int(values.max()) for values in columns]
    widths = [_chunks(top) for top in tops]
    lead = 0 if tags is None else 1
    cells = np.zeros((lead + sum(widths) + len(widths), n), dtype="<u4")
    if tags is not None:
        cells[0] = tags.astype("<u4") | (_SPACE << 8)
    last_sep = np.empty(n, dtype=np.intp)
    cell = lead
    for values, shown, top, width in zip(columns, present, tops, widths):
        rest = values.astype(np.uint32 if top < 1 << 32 else np.int64)
        if shown is not None:
            rest[~shown] = 0
        for k in range(width):
            quotient = rest // _CHUNK
            index = rest - quotient * _CHUNK
            index += (quotient == 0) * index.dtype.type(_CHUNK)
            chunk = (_HIGH if k else _LOW)[index]
            if k == 0 and shown is not None:
                chunk[~shown] = 0
            cells[cell + width - 1 - k] = chunk
            rest = quotient
        cell += width
        if shown is None:
            cells[cell] = _SPACE
            last_sep[:] = cell
        else:
            cells[cell, shown] = _SPACE
            last_sep[shown] = cell
        cell += 1
    cells[last_sep, np.arange(n)] = _NL
    return cells.T.tobytes().translate(None, b"\0")


def parse_digits(a: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Values of the digit runs ``a[starts[i]:starts[i] + lengths[i]]``.

    ``a`` is a uint8 document; every run must be 1 to
    :data:`MAX_DIGITS` ASCII digits (the caller checks).  Tokens of L
    digits evaluate by Horner's rule over L per-position gathers, so
    each digit is touched once and the largest temporary is one
    token-count int64 vector (a (k, L) window matrix costs ~2x more in
    allocator traffic alone).  Documents hold few distinct digit
    counts, so the outer loop runs a handful of times.
    """
    vals = np.empty(starts.size, dtype=np.int64)
    # digit counts fit a byte, and numpy's stable argsort switches to
    # radix sort (~6x faster than the int64 merge sort) at <= 16 bits
    order = np.argsort(lengths.astype(np.uint8), kind="stable")
    dl_sorted = lengths[order]
    group_bounds = np.flatnonzero(dl_sorted[1:] != dl_sorted[:-1]) + 1
    group_starts = np.concatenate((np.zeros(1, dtype=np.int64), group_bounds))
    group_ends = np.concatenate((group_bounds, [dl_sorted.size]))
    for s, e in zip(group_starts.tolist(), group_ends.tolist()):
        width = int(dl_sorted[s])
        idx = order[s:e]
        pos = starts[idx]
        # <= 9 digits fits int32 (999_999_999 < 2**31): half the
        # memory traffic for the overwhelmingly common short tokens.
        acc = a[pos].astype(np.int32 if width <= 9 else np.int64)
        acc -= _D0
        for j in range(1, width):
            acc *= 10
            acc += a[pos + j]
            acc -= _D0
        vals[idx] = acc
    return vals
