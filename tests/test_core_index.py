"""Unit + property tests for the BP-style index layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import (
    Characteristics,
    GlobalIndex,
    IndexEntry,
    LocalIndex,
)


class TestCharacteristics:
    def test_of_array(self):
        c = Characteristics.of(np.array([3.0, -1.0, 2.0]))
        assert c.minimum == -1.0 and c.maximum == 3.0 and c.count == 3

    def test_of_empty(self):
        c = Characteristics.of(np.array([]))
        assert c.count == 0

    def test_merge(self):
        a = Characteristics(0.0, 5.0, 10)
        b = Characteristics(-2.0, 3.0, 5)
        m = a.merge(b)
        assert (m.minimum, m.maximum, m.count) == (-2.0, 5.0, 15)

    def test_merge_with_empty(self):
        a = Characteristics(1.0, 2.0, 4)
        empty = Characteristics(0.0, 0.0, 0)
        assert a.merge(empty) is a
        assert empty.merge(a) is a

    def test_overlaps(self):
        c = Characteristics(1.0, 5.0, 10)
        assert c.overlaps(0.0, 1.0)
        assert c.overlaps(4.0, 10.0)
        assert not c.overlaps(6.0, 8.0)
        assert not c.overlaps(-3.0, 0.5)

    def test_empty_never_overlaps(self):
        assert not Characteristics(0, 0, 0).overlaps(-1e9, 1e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            Characteristics(5.0, 1.0, 3)
        with pytest.raises(ValueError):
            Characteristics(0.0, 1.0, -1)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    @settings(max_examples=100)
    def test_of_matches_numpy(self, values):
        arr = np.array(values)
        c = Characteristics.of(arr)
        assert c.minimum == arr.min()
        assert c.maximum == arr.max()

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=20),
        st.lists(st.floats(-100, 100), min_size=1, max_size=20),
    )
    @settings(max_examples=100)
    def test_merge_equals_concat(self, a, b):
        ca = Characteristics.of(np.array(a))
        cb = Characteristics.of(np.array(b))
        cm = ca.merge(cb)
        whole = Characteristics.of(np.array(a + b))
        assert cm.minimum == whole.minimum
        assert cm.maximum == whole.maximum
        assert cm.count == whole.count


class TestLocalIndex:
    def entry(self, var="x", writer=0, offset=0.0, nbytes=10.0):
        return IndexEntry(var=var, writer=writer, offset=offset,
                          nbytes=nbytes)

    def test_add_and_finalize_sorts(self):
        idx = LocalIndex("/f.bp")
        idx.add([self.entry(offset=20.0), self.entry(offset=0.0)])
        entries = idx.finalize()
        assert [e.offset for e in entries] == [0.0, 20.0]

    def test_add_after_finalize_rejected(self):
        idx = LocalIndex("/f.bp")
        idx.finalize()
        with pytest.raises(RuntimeError):
            idx.add([self.entry()])

    def test_overlap_detection(self):
        idx = LocalIndex("/f.bp")
        idx.add([self.entry(offset=0.0, nbytes=10.0),
                 self.entry(offset=5.0, nbytes=10.0)])
        with pytest.raises(ValueError):
            idx.check_no_overlap()

    def test_adjacent_extents_ok(self):
        idx = LocalIndex("/f.bp")
        idx.add([self.entry(offset=0.0, nbytes=10.0),
                 self.entry(offset=10.0, nbytes=10.0)])
        idx.check_no_overlap()

    def test_serialized_bytes_grow_with_entries(self):
        a = LocalIndex("/a")
        b = LocalIndex("/b")
        a.add([self.entry()])
        b.add([self.entry(), self.entry(var="y", offset=10.0)])
        assert b.serialized_bytes > a.serialized_bytes

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            IndexEntry(var="x", writer=0, offset=-1.0, nbytes=1.0)


class TestGlobalIndex:
    def make(self):
        gi = GlobalIndex()
        gi.add_file(
            "/d/0.bp",
            [
                IndexEntry("rho", 0, 0.0, 100.0,
                           Characteristics(0.0, 1.0, 10)),
                IndexEntry("temp", 0, 100.0, 100.0,
                           Characteristics(300.0, 400.0, 10)),
            ],
        )
        gi.add_file(
            "/d/1.bp",
            [
                IndexEntry("rho", 1, 0.0, 100.0,
                           Characteristics(2.0, 3.0, 10)),
            ],
        )
        return gi

    def test_lookup_by_var(self):
        gi = self.make()
        assert len(gi.lookup("rho")) == 2
        assert len(gi.lookup("temp")) == 1
        assert gi.lookup("nope") == []

    def test_lookup_by_writer(self):
        gi = self.make()
        hits = [h for h in gi.lookup("rho") if h[1].writer == 1]
        assert len(hits) == 1
        assert hits[0][0] == "/d/1.bp"

    def test_duplicate_file_rejected(self):
        gi = self.make()
        with pytest.raises(ValueError):
            gi.add_file("/d/0.bp", [])

    def test_value_range_query_prunes(self):
        gi = self.make()
        hits = gi.query_value_range("rho", 2.5, 2.9)
        assert [f for f, _ in hits] == ["/d/1.bp"]

    def test_value_range_conservative_without_chars(self):
        gi = GlobalIndex()
        gi.add_file("/d/x.bp", [IndexEntry("v", 0, 0.0, 10.0)])
        assert len(gi.query_value_range("v", 1e9, 2e9)) == 1

    def test_totals(self):
        gi = self.make()
        assert gi.total_bytes("rho") == 200.0
        assert gi.total_bytes() == 300.0
        assert gi.n_blocks == 3
        assert gi.variables == ["rho", "temp"]
        assert gi.files == ["/d/0.bp", "/d/1.bp"]
