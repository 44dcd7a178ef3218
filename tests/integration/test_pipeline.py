"""End-to-end pipeline integration.

The full data path of the paper, in one test file:

  application model -> library hooks -> procstat packets -> packet log
  on disk -> reconstruction -> ASCII trace file -> decode -> analysis &
  buffering simulation

with cross-checks that every stage preserves the stream.
"""

import numpy as np
import pytest

from repro.analysis.summary import summarize_table2, trace_table1
from repro.fslayout import analyze_physical, translate_trace
from repro.sim import SimConfig, simulate, ssd_cache
from repro.sim.procmodel import relabel_copies
from repro.trace import (
    CommentRecord,
    ProcstatCollector,
    TraceArray,
    decode_lines,
    dump_packets,
    load_packets,
    read_trace_array,
    reconstruct_records,
    write_trace_array,
)
from repro.trace.validate import validate_array
from repro.util.units import MB
from repro.workloads import generate_workload, model_for


@pytest.fixture(scope="module")
def venus():
    return generate_workload("venus", scale=0.1)


class TestFullPipeline:
    def test_generate_collect_persist_decode_simulate(self, tmp_path, venus):
        # 1. run the model under procstat batching
        packets = []
        collector = ProcstatCollector(packets.append, max_events_per_packet=128)
        model = model_for("venus", scale=0.1)
        model.generate(collector=collector)

        # 2. persist and reload the packet log
        packet_log = tmp_path / "venus.packets"
        dump_packets(packet_log, packets)
        rebuilt = TraceArray.from_records(
            reconstruct_records(load_packets(packet_log))
        )

        # 3. the reconstructed stream matches the directly generated one
        np.testing.assert_array_equal(rebuilt.offset, venus.trace.offset)
        np.testing.assert_array_equal(rebuilt.length, venus.trace.length)
        np.testing.assert_array_equal(
            rebuilt.process_clock, venus.trace.process_clock
        )

        # 4. write the standard trace file and decode it back
        trace_path = tmp_path / "venus.trace"
        write_trace_array(
            trace_path,
            rebuilt,
            header_comments=[c.text for c in venus.comments],
        )
        decoded = read_trace_array(trace_path)
        assert validate_array(decoded).ok
        np.testing.assert_array_equal(decoded.offset, venus.trace.offset)
        comments = [
            r
            for r in decode_lines(trace_path.read_text().splitlines())
            if isinstance(r, CommentRecord)
        ]
        assert len(comments) == len(venus.comments)

        # 5. analysis on the decoded trace matches analysis on the original
        direct = trace_table1("venus", venus.trace)
        via_file = trace_table1("venus", decoded)
        assert via_file.total_io_mb == pytest.approx(direct.total_io_mb)
        assert via_file.n_ios == direct.n_ios

        # 6. the decoded trace drives the simulator to the same outcome
        config = SimConfig(cache=ssd_cache(256 * MB))
        r_direct = simulate(relabel_copies(venus.trace, 2), config)
        r_file = simulate(relabel_copies(decoded, 2), config)
        assert r_file.idle_seconds == pytest.approx(
            r_direct.idle_seconds, abs=0.05
        )
        assert r_file.cache.hit_fraction == pytest.approx(
            r_direct.cache.hit_fraction, abs=0.01
        )

    def test_physical_translation_round_trips_through_format(
        self, tmp_path, venus
    ):
        # logical -> physical -> merged stream -> trace file -> decode
        translation = translate_trace(
            venus.trace[:500], max_extent_blocks=256
        )
        merged = translation.merged()
        path = tmp_path / "venus.phys.trace"
        write_trace_array(path, merged)
        back = read_trace_array(path)
        assert len(back) == len(merged)
        np.testing.assert_array_equal(back.offset, merged.offset)
        np.testing.assert_array_equal(back.record_type, merged.record_type)
        # logical and physical records distinguishable after round trip
        assert back.is_logical.sum() == 500
        report = analyze_physical(translation)
        assert report.n_physical == int((~back.is_logical).sum())

    def test_table2_stable_across_seeds(self):
        rows = [
            summarize_table2(generate_workload("ccm", scale=0.1, seed=s))
            for s in (1, 2, 3)
        ]
        ratios = [r.rw_data_ratio for r in rows]
        assert max(ratios) - min(ratios) < 0.05
        rates = [r.read_mb_per_sec + r.write_mb_per_sec for r in rows]
        assert max(rates) / min(rates) < 1.05


class TestSimulationConservation:
    def test_busy_time_equals_cpu_demand(self, venus):
        traces = relabel_copies(venus.trace, 2)
        result = simulate(traces, SimConfig(cache=ssd_cache(256 * MB)))
        demand = 2 * venus.trace.cpu_seconds()
        # busy CPU == the traces' compute demand plus SSD copy penalties
        assert result.busy_seconds >= demand * 0.999
        assert result.busy_seconds < demand * 1.2

    def test_disk_write_traffic_conserved(self, venus):
        # With write-behind, every written byte eventually reaches disk.
        traces = relabel_copies(venus.trace, 2)
        result = simulate(traces, SimConfig(cache=ssd_cache(256 * MB)))
        written_mb = 2 * venus.trace.write_bytes / MB
        assert result.disk_write_rate.total == pytest.approx(
            written_mb, rel=0.02
        )

    def test_disk_read_bounded_by_demand_plus_prefetch(self, venus):
        traces = relabel_copies(venus.trace, 2)
        result = simulate(traces, SimConfig())
        demand_mb = 2 * venus.trace.read_bytes / MB
        assert result.disk_read_rate.total <= demand_mb * 1.5
