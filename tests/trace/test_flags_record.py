"""Record-type flags and the TraceRecord model."""

import pickle

import pytest

from repro.trace import flags as F
from repro.trace.record import CommentRecord, TraceRecord, file_name_comment


class TestFlags:
    def test_values_match_iotrace_h(self):
        assert F.TRACE_FILE_DATA == 0x0
        assert F.TRACE_META_DATA == 0x1
        assert F.TRACE_READAHEAD == 0x2
        assert F.TRACE_VIRTUAL_MEM == 0x3
        assert F.TRACE_LOGICAL_RECORD == 0x80
        assert F.TRACE_WRITE == 0x40
        assert F.TRACE_ASYNC == 0x08
        assert F.TRACE_CACHE_MISS == 0x20
        assert F.TRACE_RA_HIT == 0x10
        assert F.TRACE_COMMENT == 0xFF
        assert F.TRACE_OFFSET_IN_BLOCKS == 0x01
        assert F.TRACE_LENGTH_IN_BLOCKS == 0x02
        assert F.TRACE_BLOCK_SIZE == 512
        assert F.TRACE_NO_LENGTH == 0x04
        assert F.TRACE_NO_PROCESSID == 0x08
        assert F.TRACE_NO_OPERATIONID == 0x20
        assert F.TRACE_NO_BLOCK == 0x40
        assert F.TRACE_NO_FILEID == 0x80

    def test_make_record_type_composition(self):
        rt = F.make_record_type(write=True, logical=True, asynchronous=True)
        assert F.is_write(rt)
        assert F.is_logical(rt)
        assert F.is_async(rt)
        assert F.data_kind(rt) == F.DataKind.FILE_DATA
        assert not rt & F.TRACE_CACHE_MISS

    def test_make_record_type_kinds(self):
        rt = F.make_record_type(kind=F.DataKind.READAHEAD, logical=False)
        assert F.data_kind(rt) == F.DataKind.READAHEAD
        assert not F.is_logical(rt)

    def test_cache_annotations(self):
        rt = F.make_record_type(cache_miss=True, readahead_hit=True)
        assert rt & F.TRACE_CACHE_MISS
        assert rt & F.TRACE_RA_HIT


class TestTraceRecord:
    def make(self, **kw):
        defaults = dict(
            write=False,
            offset=0,
            length=1024,
            start_time=100,
            duration=5,
            operation_id=1,
            file_id=1,
            process_id=1,
            process_time=50,
        )
        defaults.update(kw)
        return TraceRecord.make(**defaults)

    def test_properties(self):
        r = self.make(write=True, asynchronous=True, offset=512, length=1024)
        assert r.is_write and not r.is_read
        assert r.is_async
        assert r.is_logical
        assert r.end_offset == 1536
        assert r.completion_time == 105

    def test_rejects_negative_fields(self):
        with pytest.raises(ValueError):
            self.make(offset=-1)
        with pytest.raises(ValueError):
            self.make(length=-1)
        with pytest.raises(ValueError):
            self.make(duration=-1)
        with pytest.raises(ValueError):
            self.make(process_time=-1)

    def test_comment_type_rejected_in_trace_record(self):
        with pytest.raises(ValueError):
            TraceRecord(
                record_type=F.TRACE_COMMENT,
                offset=0,
                length=1,
                start_time=0,
                duration=0,
                operation_id=0,
                file_id=0,
                process_id=0,
                process_time=0,
            )

    def test_replaced(self):
        r = self.make()
        r2 = r.replaced(offset=4096)
        assert r2.offset == 4096
        assert r.offset == 0  # original untouched (frozen)

    def test_value_contract(self):
        """Repr, hash, equality, immutability, pickling and errors."""
        r = self.make(write=True, offset=512)
        assert repr(r) == (
            "TraceRecord(record_type=192, offset=512, length=1024, "
            "start_time=100, duration=5, operation_id=1, file_id=1, "
            "process_id=1, process_time=50)"
        )
        assert hash(r) == hash((192, 512, 1024, 100, 5, 1, 1, 1, 50))
        assert r == self.make(write=True, offset=512)
        assert r != self.make(write=True, offset=512, duration=6)
        with pytest.raises(AttributeError):
            r.offset = 0
        assert pickle.loads(pickle.dumps(r)) == r
        with pytest.raises(ValueError) as info:
            r.replaced(offset=-1)
        assert str(info.value) == "negative offset -1"

    def test_named_tuple_builders_check_fields(self):
        r = self.make()
        with pytest.raises(ValueError) as info:
            r._replace(length=-1)
        assert str(info.value) == "negative length -1"
        with pytest.raises(ValueError) as info:
            TraceRecord._make([*r[:2], -1, *r[3:]])
        assert str(info.value) == "negative length -1"

    def test_file_name_comments(self):
        c = file_name_comment(3, "/scratch/venus/data1")
        assert c.text == "file 3 = /scratch/venus/data1"
        assert CommentRecord("x").record_type == F.TRACE_COMMENT
