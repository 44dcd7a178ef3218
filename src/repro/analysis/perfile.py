"""Per-file statistics: the "large files vs small files" view.

Section 5.2 considers only "large" files for the access-size analysis,
because small parameter and text-output files "do not contribute much to
the overall I/O".  This module computes per-file aggregates and the
large/small split so the benchmarks can reproduce that filtering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.array import TraceArray
from repro.util.units import MB


@dataclass(frozen=True)
class FileStats:
    """Aggregates over one trace file id."""

    file_id: int
    n_ios: int
    n_reads: int
    n_writes: int
    read_bytes: int
    write_bytes: int
    avg_io_bytes: float
    max_end_offset: int  #: lower bound on the file's size

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    @property
    def rw_data_ratio(self) -> float:
        return self.read_bytes / self.write_bytes if self.write_bytes else float("inf")


def per_file_stats(trace: TraceArray) -> dict[int, FileStats]:
    """Aggregate each file id's accesses."""
    stats: dict[int, FileStats] = {}
    for fid in trace.file_ids():
        sub = trace.for_file(int(fid))
        reads = sub.is_read
        n = len(sub)
        stats[int(fid)] = FileStats(
            file_id=int(fid),
            n_ios=n,
            n_reads=int(reads.sum()),
            n_writes=int((~reads).sum()),
            read_bytes=int(sub.length[reads].sum()),
            write_bytes=int(sub.length[~reads].sum()),
            avg_io_bytes=float(sub.length.mean()) if n else 0.0,
            max_end_offset=int((sub.offset + sub.length).max()) if n else 0,
        )
    return stats


def split_large_small(
    stats: dict[int, FileStats], *, large_threshold_bytes: int = 2 * MB
) -> tuple[list[FileStats], list[FileStats]]:
    """Partition files into (large, small) by apparent size.

    "In most cases, these files were over a few megabytes long" -- the
    default threshold is 2 MB on the file's maximum accessed offset.
    """
    large = [s for s in stats.values() if s.max_end_offset >= large_threshold_bytes]
    small = [s for s in stats.values() if s.max_end_offset < large_threshold_bytes]
    return large, small


def large_file_io_fraction(
    trace: TraceArray, *, large_threshold_bytes: int = 2 * MB
) -> float:
    """Fraction of transferred bytes going to large files.

    The paper's justification for ignoring small files: their
    "contribution is dwarfed by accesses to large machine-generated data
    files".
    """
    stats = per_file_stats(trace)
    large, _ = split_large_small(stats, large_threshold_bytes=large_threshold_bytes)
    total = trace.total_bytes
    if total == 0:
        return 0.0
    return sum(s.total_bytes for s in large) / total


def unique_sizes_per_file(trace: TraceArray) -> dict[int, int]:
    """Number of distinct request sizes per file (regularity check)."""
    out: dict[int, int] = {}
    for fid in trace.file_ids():
        sub = trace.for_file(int(fid))
        out[int(fid)] = int(np.unique(sub.length).size)
    return out
