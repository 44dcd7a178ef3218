"""The paper's I/O trace format and collection pipeline.

Layers, bottom to top:

* :mod:`repro.trace.flags` / :mod:`repro.trace.record` -- the
  ``iotrace.h`` record model.
* :mod:`repro.trace.encode` / :mod:`repro.trace.decode` /
  :mod:`repro.trace.io` -- the compressed ASCII on-disk format;
  :mod:`repro.trace.digits` formats and parses its digits, and the
  packet log's, a whole document at a time.  A trace outside the
  encoder's strict grammar is read by the one scalar decoder,
  :class:`TraceDecoder`, whose errors name the line.
* :mod:`repro.trace.array` -- columnar bulk representation used by
  analysis and simulation.
* :mod:`repro.trace.packets` / :mod:`repro.trace.procstat` /
  :mod:`repro.trace.reconstruct` -- the library-hook -> procstat ->
  packet-file -> reconstructed-stream collection pipeline.
* :mod:`repro.trace.stats` / :mod:`repro.trace.validate` -- size
  accounting and structural validation.
"""

from repro.trace import flags
from repro.trace.array import TraceArray
from repro.trace.decode import TraceDecoder, decode_array, decode_lines
from repro.trace.encode import EncoderStats, TraceEncoder
from repro.trace.io import read_trace_array, write_trace, write_trace_array
from repro.trace.packets import (
    IOEvent,
    TracePacket,
    dump_packets,
    load_packets,
    packet_overhead_ratio,
)
from repro.trace.procstat import ProcstatCollector, collect_to_list
from repro.trace.reconstruct import reconstruct_records
from repro.trace.record import (
    AnyRecord,
    CommentRecord,
    TraceRecord,
    file_name_comment,
)
from repro.trace.stats import TraceSizeReport, measure_trace_sizes
from repro.trace.validate import ValidationReport, validate_array

__all__ = [
    "flags",
    "TraceArray",
    "TraceDecoder",
    "decode_array",
    "decode_lines",
    "EncoderStats",
    "TraceEncoder",
    "read_trace_array",
    "write_trace",
    "write_trace_array",
    "IOEvent",
    "TracePacket",
    "dump_packets",
    "load_packets",
    "packet_overhead_ratio",
    "ProcstatCollector",
    "collect_to_list",
    "reconstruct_records",
    "AnyRecord",
    "CommentRecord",
    "TraceRecord",
    "file_name_comment",
    "TraceSizeReport",
    "measure_trace_sizes",
    "ValidationReport",
    "validate_array",
]
