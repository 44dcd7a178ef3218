"""Table summaries and rate series."""

import pytest

from repro.analysis.rates import data_rate_series, rate_series_csv
from repro.analysis.summary import (
    extrapolate_table1,
    scale_factor_to_full,
    summarize_table1,
    summarize_table2,
    trace_table1,
)
from repro.trace.array import TraceArray
from repro.workloads import generate_workload


@pytest.fixture(scope="module")
def venus():
    return generate_workload("venus", scale=0.2)


class TestSummaries:
    def test_table1_row(self, venus):
        row = summarize_table1(venus)
        assert row.name == "venus"
        assert row.n_ios == len(venus.trace)
        assert row.total_io_mb == pytest.approx(
            venus.trace.total_bytes / 2**20
        )
        assert row.mb_per_sec == pytest.approx(
            row.total_io_mb / row.running_seconds
        )
        assert row.avg_io_mb == pytest.approx(row.total_io_mb / row.n_ios)

    def test_table2_row(self, venus):
        row = summarize_table2(venus)
        assert row.read_mb_per_sec + row.write_mb_per_sec == pytest.approx(
            summarize_table1(venus).mb_per_sec
        )
        assert row.rw_data_ratio == pytest.approx(1.8, rel=0.1)

    def test_extrapolation_preserves_rates(self, venus):
        row = summarize_table1(venus)
        factor = scale_factor_to_full(venus)
        assert factor > 1.0  # generated at scale 0.2
        full = extrapolate_table1(row, factor)
        assert full.mb_per_sec == row.mb_per_sec
        assert full.total_io_mb == pytest.approx(row.total_io_mb * factor)
        assert full.running_seconds == pytest.approx(379.0, rel=0.15)

    def test_trace_table1_from_raw_trace(self, venus):
        row = trace_table1("venus", venus.trace, venus.data_size_bytes)
        assert row.n_ios == len(venus.trace)
        assert row.mb_per_sec == pytest.approx(
            summarize_table1(venus).mb_per_sec
        )

    def test_empty_trace_rows(self):
        empty = TraceArray.empty()
        row = trace_table1("x", empty)
        assert row.n_ios == 0
        assert row.mb_per_sec == 0.0
        assert row.avg_io_mb == 0.0


class TestRateSeries:
    def test_cpu_clock_series_matches_totals(self, venus):
        rs = data_rate_series(venus.trace, clock="cpu")
        assert rs.total == pytest.approx(venus.trace.total_bytes / 2**20)

    def test_directions_sum(self, venus):
        both = data_rate_series(venus.trace)
        reads = data_rate_series(venus.trace, direction="read")
        writes = data_rate_series(venus.trace, direction="write")
        assert reads.total + writes.total == pytest.approx(both.total)

    def test_venus_is_bursty(self, venus):
        rs = data_rate_series(venus.trace, clock="cpu")
        assert rs.burstiness() > 1.5
        assert rs.peak > 80  # Figure 3 peaks near 95 MB/s

    def test_wall_clock_series(self, venus):
        rs = data_rate_series(venus.trace, clock="wall")
        # wall time is longer than CPU time (disk stalls), so mean lower
        cpu = data_rate_series(venus.trace, clock="cpu")
        assert rs.duration > cpu.duration
        assert rs.total == pytest.approx(cpu.total)

    def test_cpu_series_rejects_multi_process(self, venus):
        two = TraceArray.concatenate(
            [venus.trace, venus.trace.with_process_id(2)]
        ).sorted_by_start()
        with pytest.raises(ValueError):
            data_rate_series(two, clock="cpu")
        # wall clock is fine, and so is the filter the error names
        data_rate_series(two, clock="wall")
        alone = two.for_process(2)
        assert len(alone) == len(venus.trace)
        data_rate_series(alone, clock="cpu")

    def test_csv_rendering(self, venus):
        rs = data_rate_series(venus.trace, clock="cpu")
        csv = rate_series_csv(rs)
        lines = csv.splitlines()
        assert lines[0] == "seconds,mb_per_sec"
        assert len(lines) == rs.rates.size + 1
        t, r = lines[1].split(",")
        assert float(t) == pytest.approx(rs.times[0])
