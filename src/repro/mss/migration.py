"""Idle-time migration: keeping the online disks from filling.

A watermark policy in the style of contemporary MSS daemons (the paper's
reference [1] surveys them): when online usage crosses the high
watermark, demote least-recently-accessed files until usage falls below
the low watermark.  Files pinned (currently open) are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mss.hierarchy import Level, MassStorageSystem
from repro.util.errors import SimulationError


@dataclass
class MigrationReport:
    """What one migration pass did."""

    migrated_files: list[int] = field(default_factory=list)
    bytes_freed: int = 0


@dataclass
class MigrationPolicy:
    """High/low watermark LRU demotion."""

    mss: MassStorageSystem
    high_watermark: float = 0.9
    low_watermark: float = 0.75
    pinned: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        if not 0 < self.low_watermark < self.high_watermark <= 1:
            raise ValueError(
                "need 0 < low_watermark < high_watermark <= 1"
            )

    def pin(self, file_id: int) -> None:
        """Protect an open file from demotion."""
        self.pinned.add(file_id)

    @property
    def usage_fraction(self) -> float:
        return self.mss.disk_used_bytes / self.mss.config.disk_capacity_bytes

    def needed(self) -> bool:
        return self.usage_fraction > self.high_watermark

    def run_pass(self) -> MigrationReport:
        """Demote LRU files until below the low watermark (or stuck)."""
        report = MigrationReport()
        if not self.needed():
            return report
        target = self.low_watermark * self.mss.config.disk_capacity_bytes
        candidates = sorted(
            (
                fid
                for fid in self.mss.files_at(Level.DISK)
                if fid not in self.pinned
            ),
            key=self.mss.last_access,
        )
        for fid in candidates:
            if self.mss.disk_used_bytes <= target:
                break
            size = self.mss.size_of(fid)
            self.mss.migrate_out(fid)
            report.migrated_files.append(fid)
            report.bytes_freed += size
        return report

    def ensure_room(self, size_bytes: int) -> MigrationReport:
        """Free at least ``size_bytes`` of online space (for a stage-in).

        Raises when even demoting every unpinned file cannot make room.
        """
        report = MigrationReport()
        candidates = sorted(
            (
                fid
                for fid in self.mss.files_at(Level.DISK)
                if fid not in self.pinned
            ),
            key=self.mss.last_access,
        )
        i = 0
        while self.mss.disk_free_bytes < size_bytes:
            if i >= len(candidates):
                raise SimulationError(
                    f"cannot free {size_bytes} bytes: all remaining disk "
                    "residents are pinned"
                )
            fid = candidates[i]
            i += 1
            size = self.mss.size_of(fid)
            self.mss.migrate_out(fid)
            report.migrated_files.append(fid)
            report.bytes_freed += size
        return report
