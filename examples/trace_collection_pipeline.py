#!/usr/bin/env python
"""The full trace-collection pipeline, end to end.

Reproduces section 4's data path on a synthetic application:

  instrumented library hooks -> procstat packets -> packet log on disk ->
  reconstruction into a single time-ordered stream -> compressed ASCII
  trace file -> decode and verify.

Also reports the appendix's two size claims: compression effectiveness on
sequential traces, and ASCII-beats-binary.

Run:  python examples/trace_collection_pipeline.py [workdir]
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.trace import (
    ProcstatCollector,
    TraceArray,
    dump_packets,
    load_packets,
    measure_trace_sizes,
    packet_overhead_ratio,
    read_trace_array,
    reconstruct_records,
    validate_array,
    write_trace,
)
from repro.workloads import model_for


def main() -> None:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp())
    workdir.mkdir(parents=True, exist_ok=True)

    # 1. Run an instrumented application; its library hooks feed procstat.
    print("=== running ccm under the tracing hooks ===")
    packets = []
    collector = ProcstatCollector(
        packets.append, max_events_per_packet=256, flush_interval=100_000
    )
    model = model_for("ccm", scale=0.2)
    workload = model.generate(collector=collector)
    n_events = sum(len(p) for p in packets)
    print(
        f"{n_events} I/O events batched into {len(packets)} packets "
        f"(header overhead {packet_overhead_ratio(packets):.2%})"
    )

    # 2. Persist and reload the packet log.
    packet_log = workdir / "ccm.packets"
    dump_packets(packet_log, packets)
    reloaded = list(load_packets(packet_log))
    print(f"packet log: {packet_log} ({packet_log.stat().st_size} bytes)")

    # 3. Reconstruct the single time-ordered stream (requires buffering
    #    between flushes, exactly as the paper notes).
    records = reconstruct_records(reloaded)
    reconstructed = TraceArray.from_records(records)
    report = validate_array(reconstructed)
    print(f"reconstructed {report.n_records} records; valid: {report.ok}")

    # 4. Write the standard compressed ASCII trace.
    trace_path = workdir / "ccm.trace"
    header = [f"trace of {workload.name} (synthetic), scale={workload.scale}"]
    header += [c.text for c in workload.comments]
    stats = write_trace(trace_path, records, header_comments=header,
                        omit_operation_ids=True)
    print(
        f"trace file: {trace_path} ({stats.bytes_written} bytes, "
        f"{stats.bytes_written / max(1, stats.records):.1f} B/record; "
        f"{stats.omission_rate():.1f} of 5 optional fields omitted on average)"
    )

    # 5. Decode it back and check it round-trips (every field but the
    #    operation ids, which the writer omitted).
    decoded = read_trace_array(trace_path)
    assert len(decoded) == len(reconstructed) and all(
        np.array_equal(column, getattr(decoded, name))
        for name, column in reconstructed.columns().items()
        if name != "operation_id"
    ), "round trip failed"
    print("decode round-trip: OK")

    # 6. The appendix's size claims.
    sizes = measure_trace_sizes(records)
    print(
        f"\nsize report: compressed ASCII {sizes.ascii_compressed_bytes} B vs "
        f"uncompressed ASCII {sizes.ascii_uncompressed_bytes} B "
        f"(x{sizes.compression_ratio:.2f}) vs fixed binary "
        f"{sizes.binary_bytes} B (ASCII is {sizes.ascii_vs_binary_ratio:.2f}x "
        f"smaller -- 'Surprisingly, text traces were shorter than binary')"
    )


if __name__ == "__main__":
    main()
