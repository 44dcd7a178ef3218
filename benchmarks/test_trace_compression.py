"""The appendix's trace-format claims.

* Compression works *because* supercomputer traces are sequential and
  file-concentrated: most optional fields are omitted.
* "Surprisingly, text traces were shorter than binary traces."
* Batching amortizes packet headers ("one header served for hundreds of
  I/O calls").
"""

from conftest import once

from repro.trace.packets import packet_overhead_ratio
from repro.trace.procstat import collect_to_list
from repro.trace.stats import measure_trace_sizes
from repro.util.tables import TextTable


def test_trace_compression(benchmark, workloads):
    venus = workloads["venus"]

    def run():
        records = list(venus.trace.to_records())
        return measure_trace_sizes(records)

    report = once(benchmark, run)
    table = TextTable(["encoding", "bytes", "bytes/record"], title="venus trace size")
    table.add_row(
        ["compressed ASCII", report.ascii_compressed_bytes, round(report.bytes_per_record, 1)]
    )
    table.add_row(
        [
            "uncompressed ASCII",
            report.ascii_uncompressed_bytes,
            round(report.ascii_uncompressed_bytes / report.n_records, 1),
        ]
    )
    table.add_row(
        ["fixed binary", report.binary_bytes, round(report.binary_bytes / report.n_records, 1)]
    )
    print()
    print(table.render())
    print(
        f"optional fields omitted per record: "
        f"{report.encoder_stats.omission_rate():.2f} of 5"
    )

    # Sequential, few-files trace: most optional fields vanish.
    assert report.encoder_stats.omission_rate() > 3.0
    assert report.compression_ratio > 1.5
    # ASCII beats fixed binary.
    assert report.ascii_vs_binary_ratio > 1.0
    assert report.bytes_per_record < 30


def test_packet_header_amortization(benchmark, workloads):
    ccm = workloads["ccm"]
    events = list(_as_events(ccm))

    def run():
        batched = collect_to_list(iter(events), max_events_per_packet=512)
        single = collect_to_list(iter(events[:2000]), max_events_per_packet=1)
        return packet_overhead_ratio(batched), packet_overhead_ratio(single)

    batched_ratio, single_ratio = once(benchmark, run)
    print(
        f"\npacket header overhead: batched {batched_ratio:.2%}, "
        f"one-record-per-packet {single_ratio:.2%}"
    )
    # "far too much data" without batching; negligible with it.
    assert batched_ratio < 0.02
    assert single_ratio > 0.5


def _as_events(workload):
    """Rebuild IOEvents from a generated trace (columnar -> events)."""
    from repro.trace.packets import IOEvent

    t = workload.trace
    for i in range(len(t)):
        yield IOEvent(
            record_type=int(t.record_type[i]),
            file_id=int(t.file_id[i]),
            process_id=int(t.process_id[i]),
            operation_id=int(t.operation_id[i]),
            offset=int(t.offset[i]),
            length=int(t.length[i]),
            start_time=int(t.start_time[i]),
            duration=int(t.duration[i]),
            process_clock=int(t.process_clock[i]),
        )
