"""Extent-based block allocation.

Files are laid out on a disk of 512-byte blocks (the trace format's
``TRACE_BLOCK_SIZE``) as ordered lists of extents.  An allocator with
``max_extent_blocks = None`` produces fully contiguous files; a finite
cap plus inter-file interleaving produces the fragmentation real file
systems exhibit, which is what makes physical traces interesting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.errors import SimulationError
from repro.util.units import TRACE_BLOCK_SIZE


@dataclass(frozen=True)
class Extent:
    """A contiguous run of disk blocks: [start_block, start_block + n)."""

    start_block: int
    n_blocks: int

    def __post_init__(self) -> None:
        if self.start_block < 0 or self.n_blocks <= 0:
            raise ValueError(f"bad extent ({self.start_block}, {self.n_blocks})")

    @property
    def end_block(self) -> int:
        return self.start_block + self.n_blocks


@dataclass
class FileLayout:
    """One file's logical-to-physical mapping."""

    file_id: int
    extents: list[Extent] = field(default_factory=list)

    @property
    def n_blocks(self) -> int:
        return sum(e.n_blocks for e in self.extents)

    @property
    def size_bytes(self) -> int:
        return self.n_blocks * TRACE_BLOCK_SIZE

    @property
    def n_extents(self) -> int:
        return len(self.extents)

    def physical_runs(self, offset: int, length: int) -> list[tuple[int, int]]:
        """Physical (start_block, n_blocks) runs covering a byte range.

        The byte range is rounded out to block boundaries (a 100-byte
        read still moves a whole 512-byte block) and split wherever the
        file's extents break.
        """
        if offset < 0 or length <= 0:
            raise ValueError("need offset >= 0 and length > 0")
        first = offset // TRACE_BLOCK_SIZE
        last = (offset + length - 1) // TRACE_BLOCK_SIZE
        if last >= self.n_blocks:
            raise SimulationError(
                f"file {self.file_id}: access to logical block {last} "
                f"beyond layout of {self.n_blocks} blocks"
            )
        runs: list[tuple[int, int]] = []
        logical = 0
        for extent in self.extents:
            ext_first = logical
            ext_last = logical + extent.n_blocks - 1
            lo = max(first, ext_first)
            hi = min(last, ext_last)
            if lo <= hi:
                start = extent.start_block + (lo - ext_first)
                n = hi - lo + 1
                if runs and runs[-1][0] + runs[-1][1] == start:
                    runs[-1] = (runs[-1][0], runs[-1][1] + n)
                else:
                    runs.append((start, n))
            logical = ext_last + 1
            if logical > last:
                break
        return runs


class BlockAllocator:
    """Sequential first-free extent allocator over one disk.

    ``max_extent_blocks`` caps extent length; interleaving allocations
    across files then fragments all of them (each file's next extent
    lands after the other files' latest ones).
    """

    def __init__(
        self,
        n_blocks: int,
        *,
        max_extent_blocks: int | None = None,
        rng: np.random.Generator | None = None,
    ):
        if n_blocks <= 0:
            raise ValueError("disk must have at least one block")
        if max_extent_blocks is not None and max_extent_blocks <= 0:
            raise ValueError("max_extent_blocks must be positive")
        self.n_blocks = n_blocks
        self.max_extent_blocks = max_extent_blocks
        self._rng = rng
        self._next_free = 0
        self.layouts: dict[int, FileLayout] = {}

    def _extent_cap(self) -> int | None:
        if self.max_extent_blocks is None:
            return None
        if self._rng is None:
            return self.max_extent_blocks
        # Mild variation so extent boundaries do not all align.
        return max(1, int(self._rng.integers(
            self.max_extent_blocks // 2 + 1, self.max_extent_blocks + 1
        )))

    def allocate(self, file_id: int, n_bytes: int) -> FileLayout:
        """Append ``n_bytes`` (rounded up to blocks) to a file's layout.

        Without a cap, consecutive allocations to the same file merge
        into one extent (perfectly contiguous layout).  With a cap, each
        extent models an allocation group: the allocator skips a gap
        after it, so even a lone file ends up fragmented -- which is the
        behaviour the cap exists to model.
        """
        if n_bytes <= 0:
            raise ValueError("allocation must be positive")
        layout = self.layouts.setdefault(file_id, FileLayout(file_id))
        remaining = -(-n_bytes // TRACE_BLOCK_SIZE)  # ceil division
        while remaining > 0:
            cap = self._extent_cap()
            take = remaining if cap is None else min(cap, remaining)
            if self._next_free + take > self.n_blocks:
                raise SimulationError(
                    f"disk full: need {take} blocks, "
                    f"{self.n_blocks - self._next_free} free"
                )
            extent = Extent(self._next_free, take)
            self._next_free += take
            last = layout.extents[-1] if layout.extents else None
            if last is not None and last.end_block == extent.start_block:
                layout.extents[-1] = Extent(
                    last.start_block, last.n_blocks + extent.n_blocks
                )
            else:
                layout.extents.append(extent)
            remaining -= take
            if cap is not None and remaining > 0:
                # Allocation-group boundary: leave a gap so the next
                # extent is discontiguous.
                gap = min(cap, self.n_blocks - self._next_free)
                self._next_free += gap
        return layout

    def layout(self, file_id: int) -> FileLayout:
        try:
            return self.layouts[file_id]
        except KeyError:
            raise SimulationError(f"no layout for file {file_id}") from None
