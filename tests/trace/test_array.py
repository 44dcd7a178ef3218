"""Columnar TraceArray: construction, filters, conversions."""

import numpy as np
import pytest

from repro.trace.array import TraceArray
from repro.trace.record import TraceRecord


def simple_records():
    out = []
    t = 0
    for i in range(6):
        out.append(
            TraceRecord.make(
                write=i % 2 == 1,
                offset=i * 1024,
                length=1024,
                start_time=t,
                duration=2,
                operation_id=i,
                file_id=1 + i % 2,
                process_id=7,
                process_time=10,
            )
        )
        t += 100
    return out


class TestConstruction:
    def test_empty(self):
        t = TraceArray.empty()
        assert len(t) == 0
        assert t.total_bytes == 0
        assert t.wall_seconds() == 0.0

    def test_from_records_integrates_process_clock(self):
        arr = TraceArray.from_records(simple_records())
        assert len(arr) == 6
        np.testing.assert_array_equal(
            arr.process_clock, [10, 20, 30, 40, 50, 60]
        )

    def test_from_columns_defaults(self):
        arr = TraceArray.from_columns(length=[100, 200], start_time=[0, 5])
        assert len(arr) == 2
        assert arr.total_bytes == 300
        np.testing.assert_array_equal(arr.file_id, [0, 0])

    def test_from_columns_rejects_mismatched(self):
        with pytest.raises(ValueError):
            TraceArray.from_columns(length=[1, 2], offset=[1])
        with pytest.raises(TypeError):
            TraceArray.from_columns(bogus=[1])

    def test_round_trip_records(self):
        records = simple_records()
        arr = TraceArray.from_records(records)
        assert list(arr.to_records()) == records


class TestViews:
    def test_read_write_split(self):
        arr = TraceArray.from_records(simple_records())
        assert len(arr.reads()) == 3
        assert len(arr.writes()) == 3
        assert arr.read_bytes + arr.write_bytes == arr.total_bytes

    def test_for_file(self):
        arr = TraceArray.from_records(simple_records())
        f1 = arr.for_file(1)
        assert len(f1) == 3
        assert set(f1.file_id.tolist()) == {1}

    def test_getitem_mask_and_slice(self):
        arr = TraceArray.from_records(simple_records())
        assert len(arr[arr.length > 0]) == 6
        assert len(arr[2:4]) == 2
        single = arr[3]
        assert len(single) == 1

    def test_sorted_by_start(self):
        arr = TraceArray.from_columns(
            start_time=[50, 10, 30], length=[1, 2, 3], process_clock=[3, 1, 2]
        )
        s = arr.sorted_by_start()
        np.testing.assert_array_equal(s.start_time, [10, 30, 50])
        np.testing.assert_array_equal(s.length, [2, 3, 1])

    def test_concatenate(self):
        a = TraceArray.from_records(simple_records())
        b = TraceArray.from_records(simple_records())
        c = TraceArray.concatenate([a, b])
        assert len(c) == 12
        assert TraceArray.concatenate([]).total_bytes == 0


class TestAggregates:
    def test_clocks(self):
        arr = TraceArray.from_records(simple_records())
        assert arr.cpu_seconds() == pytest.approx(60 * 1e-5)
        assert arr.wall_seconds() == pytest.approx((500 + 2) * 1e-5)

    def test_ids(self):
        arr = TraceArray.from_records(simple_records())
        np.testing.assert_array_equal(arr.file_ids(), [1, 2])
        np.testing.assert_array_equal(arr.process_ids(), [7])

    def test_process_time_deltas_multi_process(self):
        arr = TraceArray.from_columns(
            process_id=[1, 2, 1, 2],
            process_clock=[10, 5, 25, 11],
            length=[1, 1, 1, 1],
            start_time=[0, 1, 2, 3],
        )
        np.testing.assert_array_equal(
            arr.process_time_deltas(), [10, 5, 15, 6]
        )

    def test_process_time_deltas_rejects_backwards_clock(self):
        arr = TraceArray.from_columns(
            process_id=[1, 1],
            process_clock=[10, 5],
            length=[1, 1],
            start_time=[0, 1],
        )
        with pytest.raises(ValueError):
            arr.process_time_deltas()

    def test_with_process_id_and_shifted(self):
        arr = TraceArray.from_records(simple_records())
        relabeled = arr.with_process_id(99)
        assert set(relabeled.process_ids().tolist()) == {99}
        shifted = arr.shifted(1000)
        np.testing.assert_array_equal(
            shifted.start_time, arr.start_time + 1000
        )
        # original untouched
        assert arr.start_time[0] == 0
