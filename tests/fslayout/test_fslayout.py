"""Block allocation and logical-to-physical trace translation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fslayout.allocator import BlockAllocator, Extent, FileLayout
from repro.fslayout.analysis import (
    amplification_factor,
    analyze_physical,
    seek_distances,
)
from repro.fslayout.translate import (
    DISK_FILE_ID,
    layout_for_trace,
    translate_trace,
)
from repro.trace import TraceEncoder, decode_lines
from repro.trace import flags as F
from repro.trace.array import TraceArray
from repro.trace.record import TraceRecord
from repro.util.errors import SimulationError
from repro.util.units import TRACE_BLOCK_SIZE
from repro.workloads import generate_workload

BS = TRACE_BLOCK_SIZE


class TestExtentAndLayout:
    def test_extent_validation(self):
        with pytest.raises(ValueError):
            Extent(-1, 4)
        with pytest.raises(ValueError):
            Extent(0, 0)
        assert Extent(10, 5).end_block == 15

    def test_contiguous_runs(self):
        layout = FileLayout(1, [Extent(100, 10)])
        assert layout.physical_runs(0, 10 * BS) == [(100, 10)]
        assert layout.physical_runs(BS, BS) == [(101, 1)]

    def test_sub_block_access_rounds_out(self):
        layout = FileLayout(1, [Extent(100, 10)])
        # 100 bytes at offset 700 touches blocks 1 and 2
        assert layout.physical_runs(700, 100) == [(101, 1)]
        assert layout.physical_runs(500, 100) == [(100, 2)]

    def test_fragmented_runs_split(self):
        layout = FileLayout(1, [Extent(100, 4), Extent(500, 4)])
        runs = layout.physical_runs(0, 8 * BS)
        assert runs == [(100, 4), (500, 4)]
        # a range inside the second extent
        assert layout.physical_runs(5 * BS, 2 * BS) == [(501, 2)]

    def test_adjacent_extents_merge_in_runs(self):
        layout = FileLayout(1, [Extent(100, 4), Extent(104, 4)])
        assert layout.physical_runs(0, 8 * BS) == [(100, 8)]

    def test_access_beyond_layout_rejected(self):
        layout = FileLayout(1, [Extent(0, 2)])
        with pytest.raises(SimulationError):
            layout.physical_runs(0, 3 * BS)

    def test_run_args_validated(self):
        layout = FileLayout(1, [Extent(0, 4)])
        with pytest.raises(ValueError):
            layout.physical_runs(-1, 10)
        with pytest.raises(ValueError):
            layout.physical_runs(0, 0)


class TestAllocator:
    def test_contiguous_allocation(self):
        a = BlockAllocator(1000)
        layout = a.allocate(1, 10 * BS)
        assert layout.n_extents == 1
        assert layout.n_blocks == 10

    def test_growth_merges_adjacent(self):
        a = BlockAllocator(1000)
        a.allocate(1, 4 * BS)
        layout = a.allocate(1, 4 * BS)
        assert layout.n_extents == 1  # grew in place
        assert layout.n_blocks == 8

    def test_interleaving_fragments(self):
        a = BlockAllocator(10_000)
        for _ in range(5):
            a.allocate(1, 4 * BS)
            a.allocate(2, 4 * BS)
        assert a.layout(1).n_extents == 5
        assert a.layout(2).n_extents == 5

    def test_extent_cap(self):
        a = BlockAllocator(10_000, max_extent_blocks=4)
        layout = a.allocate(1, 16 * BS)
        assert layout.n_blocks == 16
        assert all(e.n_blocks <= 4 for e in layout.extents)

    def test_cap_with_rng_varies(self):
        rng = np.random.default_rng(0)
        a = BlockAllocator(10_000, max_extent_blocks=8, rng=rng)
        layout = a.allocate(1, 64 * BS)
        lengths = {e.n_blocks for e in layout.extents}
        assert len(lengths) > 1

    def test_disk_full(self):
        a = BlockAllocator(8)
        with pytest.raises(SimulationError):
            a.allocate(1, 9 * BS)

    def test_rounding_up(self):
        a = BlockAllocator(100)
        layout = a.allocate(1, 100)  # less than one block
        assert layout.n_blocks == 1

    def test_unknown_file(self):
        with pytest.raises(SimulationError):
            BlockAllocator(10).layout(42)

    @given(st.lists(st.integers(1, 10_000), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_allocation_covers_bytes(self, sizes):
        a = BlockAllocator(10_000_000)
        total = 0
        for n in sizes:
            a.allocate(7, n)
            total += n
        assert a.layout(7).size_bytes >= total
        # never over-allocates by more than a block per request
        assert a.layout(7).size_bytes < total + len(sizes) * BS


def logical_trace(entries):
    """entries: (fid, offset, length, t) tuples."""
    n = len(entries)
    return TraceArray.from_columns(
        record_type=np.full(n, F.TRACE_LOGICAL_RECORD),
        file_id=[e[0] for e in entries],
        process_id=np.ones(n),
        operation_id=np.arange(1, n + 1),
        offset=[e[1] for e in entries],
        length=[e[2] for e in entries],
        start_time=[e[3] for e in entries],
        duration=np.full(n, 5),
        process_clock=np.arange(1, n + 1),
    )


class TestTranslation:
    def test_contiguous_file_one_physical_per_logical(self):
        trace = logical_trace([(1, 0, 4 * BS, 10), (1, 4 * BS, 4 * BS, 20)])
        tr = translate_trace(trace)
        assert len(tr.physical) == 2
        assert list(tr.physical.operation_id) == [1, 2]
        assert set(tr.physical.file_id.tolist()) == {DISK_FILE_ID}
        assert not tr.physical.is_logical.any()

    def test_interleaved_files_fan_out(self):
        # Two files grown alternately: each 8-block read spans 2 extents.
        entries = []
        t = 0
        for i in range(4):
            for fid in (1, 2):
                entries.append((fid, i * 4 * BS, 4 * BS, t))
                t += 10
        trace = logical_trace(entries)
        tr = translate_trace(trace)
        report = analyze_physical(tr)
        assert report.max_extents >= 4
        # read both files fully in one request each
        big = logical_trace([(1, 0, 16 * BS, 1000), (2, 0, 16 * BS, 1010)])
        tr2 = translate_trace(big, layout_for_trace(trace))
        assert len(tr2.physical) > 2  # fragmentation fan-out

    def test_amplification_from_sub_block_requests(self):
        trace = logical_trace([(1, 0, 100, 10)])  # 100 B -> one 512 B block
        tr = translate_trace(trace)
        assert amplification_factor(tr) == pytest.approx(BS / 100)

    def test_operation_id_links_logical_and_physical(self):
        trace = logical_trace([(1, 0, 8 * BS, 10)])
        tr = translate_trace(trace, max_extent_blocks=2)
        assert len(tr.physical) >= 2
        assert set(tr.physical.operation_id.tolist()) == {1}

    def test_merged_stream_time_ordered_and_encodable(self):
        trace = logical_trace(
            [(1, 0, 4 * BS, 10), (2, 0, 4 * BS, 200), (1, 4 * BS, 4 * BS, 400)]
        )
        tr = translate_trace(trace)
        merged = tr.merged()
        assert len(merged) == 6
        assert np.all(np.diff(merged.start_time) >= 0)
        # the full logical+physical stream survives the ASCII format
        records = list(merged.to_records())
        lines = list(TraceEncoder().encode_all(records))
        decoded = [r for r in decode_lines(lines) if isinstance(r, TraceRecord)]
        assert decoded == records

    def test_write_flag_preserved(self):
        n = 2
        trace = TraceArray.from_columns(
            record_type=[F.TRACE_LOGICAL_RECORD, F.TRACE_LOGICAL_RECORD | F.TRACE_WRITE],
            file_id=[1, 1],
            process_id=np.ones(n),
            operation_id=[1, 2],
            offset=[0, 4 * BS],
            length=[4 * BS, 4 * BS],
            start_time=[10, 20],
            duration=[5, 5],
            process_clock=[1, 2],
        )
        tr = translate_trace(trace)
        assert not tr.physical.is_write[0]
        assert tr.physical.is_write[1]


class TestPhysicalAnalysis:
    def test_seek_distances_sequential(self):
        trace = logical_trace([(1, 0, 4 * BS, 10), (1, 4 * BS, 4 * BS, 20)])
        tr = translate_trace(trace)
        seeks = seek_distances(tr.physical)
        assert seeks.tolist() == [0]

    def test_empty_and_single(self):
        trace = logical_trace([(1, 0, BS, 10)])
        tr = translate_trace(trace)
        assert seek_distances(tr.physical).size == 0
        report = analyze_physical(tr)
        assert report.n_physical == 1
        assert report.fan_out == 1.0

    def test_fragmentation_increases_seeks(self):
        venus = generate_workload("venus", scale=0.1)
        contiguous = analyze_physical(translate_trace(venus.trace))
        fragmented = analyze_physical(
            translate_trace(venus.trace, max_extent_blocks=64)
        )
        assert fragmented.max_extents > contiguous.max_extents
        assert fragmented.fan_out > contiguous.fan_out
        assert (
            fragmented.sequential_fraction < contiguous.sequential_fraction + 1e-9
        )
        # block-aligned venus requests: no rounding amplification
        assert contiguous.amplification == pytest.approx(1.0)
