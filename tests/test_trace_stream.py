"""RefBatch and RefBuilder semantics."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.classify import DataClass
from repro.trace.stream import RefBatch, RefBuilder, single


class TestRefBatch:
    def test_iteration_order(self):
        b = RefBatch([10, 20], [True, False], [5, 7], [0, 4])
        items = list(b)
        assert items == [(10, True, 5, 0), (20, False, 7, 4)]

    def test_total_instrs(self):
        b = RefBatch([1, 2, 3], [False] * 3, [10, 20, 30], [0, 0, 0])
        assert b.total_instrs == 60

    def test_length_mismatch_rejected(self):
        with pytest.raises(TraceError):
            RefBatch([1, 2], [True], [1, 1], [0, 0])

    def test_empty_batch_ok(self):
        b = RefBatch([], [], [], [])
        assert len(b) == 0
        assert b.total_instrs == 0

    def test_numpy_roundtrip(self):
        b = RefBatch([100, 200], [True, False], [3, 4], [1, 2])
        cols = b.to_numpy()
        assert cols["addrs"].dtype == np.int64
        b2 = RefBatch.from_numpy(cols)
        assert list(b2) == list(b)

    def test_single(self):
        b = single(0x100, write=True, instrs=12, cls=DataClass.LOCK)
        assert list(b) == [(0x100, True, 12, int(DataClass.LOCK))]


class TestRefBuilder:
    def test_add_and_build(self):
        rb = RefBuilder()
        rb.add(1, False, 2, DataClass.RECORD)
        rb.add(2, True, 3, DataClass.META)
        assert len(rb) == 2
        batch = rb.build()
        assert len(batch) == 2
        assert len(rb) == 0  # builder reset after build

    def test_touch_range_strides_lines(self):
        rb = RefBuilder()
        rb.touch_range(0, 128, DataClass.RECORD, stride=32, instrs_per_touch=4)
        batch = rb.build()
        assert batch.addrs == [0, 32, 64, 96]
        assert all(not w for w in batch.writes)

    def test_touch_range_partial_line(self):
        rb = RefBuilder()
        rb.touch_range(0, 33, DataClass.RECORD, stride=32)
        assert rb.build().addrs == [0, 32]

    def test_touch_range_empty(self):
        rb = RefBuilder()
        rb.touch_range(0, 0, DataClass.RECORD)
        assert len(rb) == 0

    def test_total_instrs(self):
        rb = RefBuilder()
        rb.add(1, False, 10, DataClass.RECORD)
        rb.add(2, False, 5, DataClass.RECORD)
        assert rb.total_instrs == 15


class TestTakeAndCoalesce:
    """The no-copy constructor and the builder's ownership hand-off."""

    def test_take_matches_init(self):
        a = RefBatch([1, 2], [True, False], [3, 4], [0, 1])
        b = RefBatch.take([1, 2], [True, False], [3, 4], [0, 1])
        assert list(a) == list(b)
        assert a.total_instrs == b.total_instrs == 7

    def test_build_transfers_ownership(self):
        rb = RefBuilder()
        rb.add(1, False, 2, DataClass.RECORD)
        batch = rb.build()
        rb.add(9, True, 9, DataClass.META)  # must not alias the batch
        assert batch.addrs == [1]
        assert rb.build().addrs == [9]

    def test_add_many_matches_repeated_add(self):
        a, b = RefBuilder(), RefBuilder()
        for addr in (10, 20, 30):
            a.add(addr, True, 7, DataClass.INDEX)
        b.add_many([10, 20, 30], True, 7, DataClass.INDEX)
        assert list(a.build()) == list(b.build())
