"""Tests for tuple identity and stream tuples."""

import pytest

from repro.streams.tuples import StreamTuple, TupleID


class TestTupleID:
    def test_equality(self):
        assert TupleID(1, 2.0, 0) == TupleID(1, 2.0, 0)
        assert TupleID(1, 2.0, 0) != TupleID(1, 2.0, 1)
        assert TupleID(1, 2.0, 0) != TupleID(2, 2.0, 0)

    def test_ordering_by_timestamp_first(self):
        assert TupleID(9, 1.0, 0) < TupleID(0, 2.0, 0)
        assert TupleID(1, 2.0, 0) < TupleID(2, 2.0, 0)

    def test_hashable(self):
        assert len({TupleID(1, 2.0, 0), TupleID(1, 2.0, 0)}) == 1

    def test_immutable(self):
        with pytest.raises(AttributeError):
            TupleID(1, 2.0, 0).source = 5


class TestStreamTuple:
    def tup(self, ts=5.0, deletion=None):
        return StreamTuple("veh", ("enemy", (1, 2), 3), TupleID(7, ts), deletion)

    def test_args_coerced_to_terms(self):
        t = self.tup()
        assert all(a.is_ground() for a in t.args)

    def test_generation_ts(self):
        assert self.tup(ts=5.0).generation_ts == 5.0

    def test_live_basic(self):
        t = self.tup(ts=5.0)
        assert t.is_live_at(5.0)
        assert t.is_live_at(6.0)
        assert not t.is_live_at(4.0)  # not generated yet

    def test_live_window(self):
        t = self.tup(ts=5.0)
        assert t.is_live_at(6.0, window=2.0)
        assert not t.is_live_at(7.5, window=2.0)  # expired from the window

    def test_window_boundary_exclusive(self):
        # Theorem 3: generation in (tau - tau_w, tau] — the lower edge
        # is exclusive.
        t = self.tup(ts=5.0)
        assert not t.is_live_at(7.0, window=2.0)

    def test_deleted_visibility(self):
        t = self.tup(ts=5.0, deletion=6.0)
        assert t.is_live_at(5.5)   # before the deletion
        assert t.is_live_at(6.0)   # deletion at exactly tau is not "< tau"
        assert not t.is_live_at(6.5)

    def test_size_counts_symbols(self):
        assert self.tup().size() == 5  # 2 header + 3 atomic args

    def test_key(self):
        t = self.tup()
        pred, args = t.key()
        assert pred == "veh" and len(args) == 3

    def test_equality_includes_id(self):
        a = StreamTuple("p", (1,), TupleID(1, 1.0, 0))
        b = StreamTuple("p", (1,), TupleID(1, 1.0, 1))
        assert a != b


class TestReplica:
    def test_replica_shares_the_normalized_terms(self):
        original = StreamTuple("r", (1, 1.0, "a"), TupleID(3, 2.0, 1), 5.0)
        copy = original.replica()
        assert copy is not original
        assert copy == original and copy.deletion_ts == 5.0
        assert copy.tuple_id is original.tuple_id
        assert all(a is b for a, b in zip(copy.args, original.args))
        # The copy is independent: a deletion mark on one is not on the other.
        copy.deletion_ts = 1.0
        assert original.deletion_ts == 5.0
