"""The mass storage system: the bottom of the paper's storage hierarchy.

"The I/O system has ... several terabytes of nearline and offline tape
storage.  The tape storage is divided into two parts -- a nearline
storage facility called the Mass Storage System (MSS), which can
automatically mount tapes with requested data, and the extensive offline
tape library which requires operator intervention."

The buffering study (section 6) sits above this layer, but a production
file's life starts here: before a job can stream its data set at disk
speed, the data must be *staged in* through a small number of tape
drives.  This package models that hierarchy -- residence levels and a
drive-limited staging queue -- so the whole disk/SSD/tape pyramid of
section 2.2 is executable.
"""

from repro.mss.hierarchy import (
    DriveStats,
    Level,
    MassStorageSystem,
    MSSConfig,
    StageRequest,
)

__all__ = [
    "DriveStats",
    "Level",
    "MassStorageSystem",
    "MSSConfig",
    "StageRequest",
]
