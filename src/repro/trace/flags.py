"""Flag constants from the paper's ``iotrace.h`` appendix.

The names and values are a direct port of the include file reproduced in
the appendix of UCB/CSD 91/616.  Two families of flags exist:

* ``recordType`` flags describe *what* the record is: logical vs physical,
  read vs write, sync vs async, the kind of data accessed, and the optional
  cache-hit annotations.
* ``compression`` flags describe *how* the record is encoded: which fields
  were omitted (to be reconstructed from earlier records) and whether the
  offset/length are expressed in 512-byte blocks.
"""

from __future__ import annotations

from enum import IntEnum

# --------------------------------------------------------------------------
# recordType flags
# --------------------------------------------------------------------------

#: Mask selecting the data-kind bits of ``recordType``.
TRACE_DATA_KIND_MASK = 0x03

TRACE_FILE_DATA = 0x0  #: file (user) data
TRACE_META_DATA = 0x1  #: metadata, such as indirect blocks
TRACE_READAHEAD = 0x2  #: readahead blocks requested by the file system
TRACE_VIRTUAL_MEM = 0x3  #: blocks requested by VM paging

TRACE_LOGICAL_RECORD = 0x80  #: set for logical records, clear for physical
TRACE_PHYSICAL_RECORD = 0x00

TRACE_READ = 0x00
TRACE_WRITE = 0x40  #: set for writes, clear for reads

TRACE_SYNC = 0x00
TRACE_ASYNC = 0x08  #: set for asynchronous requests

#: Optional analysis-only annotation: request satisfied in the cache?
TRACE_CACHE_HIT = 0x00
TRACE_CACHE_MISS = 0x20

#: Optional analysis-only annotation: cached block was a readahead block?
TRACE_RA_HIT = 0x10
TRACE_RA_MISS = 0x00

#: Whole-``recordType`` value marking a human-readable comment record.
TRACE_COMMENT = 0xFF

# --------------------------------------------------------------------------
# compression flags
# --------------------------------------------------------------------------

#: Offset value is expressed in 512-byte blocks (only if offset present).
TRACE_OFFSET_IN_BLOCKS = 0x01
#: Length value is expressed in 512-byte blocks (only if length present).
TRACE_LENGTH_IN_BLOCKS = 0x02
#: Unit for the *_IN_BLOCKS flags.
TRACE_BLOCK_SIZE = 512

#: Length omitted: take from the previous record of this file.
TRACE_NO_LENGTH = 0x04
#: Process id omitted: take from the previous record in the trace.
TRACE_NO_PROCESSID = 0x08
#: Operation id omitted: take from the previous record of this file.
TRACE_NO_OPERATIONID = 0x20
#: Offset/block omitted: sequential with the previous access to this file
#: (previous record's starting offset + length).
TRACE_NO_BLOCK = 0x40
#: File id omitted: take from the previous record by this process.
TRACE_NO_FILEID = 0x80

#: All compression bits that may legally be set.
TRACE_COMPRESSION_MASK = (
    TRACE_OFFSET_IN_BLOCKS
    | TRACE_LENGTH_IN_BLOCKS
    | TRACE_NO_LENGTH
    | TRACE_NO_PROCESSID
    | TRACE_NO_OPERATIONID
    | TRACE_NO_BLOCK
    | TRACE_NO_FILEID
)


class DataKind(IntEnum):
    """The data-kind bits of ``recordType`` as an enum."""

    FILE_DATA = TRACE_FILE_DATA
    META_DATA = TRACE_META_DATA
    READAHEAD = TRACE_READAHEAD
    VIRTUAL_MEM = TRACE_VIRTUAL_MEM


def make_record_type(
    *,
    write: bool = False,
    logical: bool = True,
    asynchronous: bool = False,
    kind: DataKind = DataKind.FILE_DATA,
    cache_miss: bool | None = None,
    readahead_hit: bool | None = None,
) -> int:
    """Compose a ``recordType`` byte from structured arguments.

    ``cache_miss`` and ``readahead_hit`` are the optional analysis-only
    annotations; pass ``None`` to leave their bits clear (the default,
    matching traces used purely for simulation).
    """
    value = int(kind)
    if logical:
        value |= TRACE_LOGICAL_RECORD
    if write:
        value |= TRACE_WRITE
    if asynchronous:
        value |= TRACE_ASYNC
    if cache_miss:
        value |= TRACE_CACHE_MISS
    if readahead_hit:
        value |= TRACE_RA_HIT
    return value


def is_write(record_type: int) -> bool:
    return bool(record_type & TRACE_WRITE)


def is_logical(record_type: int) -> bool:
    return bool(record_type & TRACE_LOGICAL_RECORD)


def is_async(record_type: int) -> bool:
    return bool(record_type & TRACE_ASYNC)


def data_kind(record_type: int) -> DataKind:
    return DataKind(record_type & TRACE_DATA_KIND_MASK)
