"""Tests for sliding windows and the Theorem 3 timing rules."""

import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.streams.tuples import StreamTuple, TupleID
from repro.streams.windows import SlidingWindow, WindowParams


def params(window=10.0, tau_s=1.0, tau_c=0.1, tau_j=1.0):
    return WindowParams(window, tau_s, tau_c, tau_j)


def tup(ts, seq=0, src=1, value="a"):
    return StreamTuple("s", (value, ts), TupleID(src, ts, seq))


class TestWindowParams:
    def test_join_delay(self):
        p = params(tau_s=2.0, tau_c=0.5)
        assert p.join_delay == 2.5

    def test_storage_time_formula(self):
        # (tau_s + tau_c) + tau_j + (tau_w + tau_c)  — Section IV-B
        p = params(window=10.0, tau_s=2.0, tau_c=0.5, tau_j=1.0)
        assert p.storage_time == (2.0 + 0.5) + 1.0 + (10.0 + 0.5)


class TestSlidingWindow:
    def test_store_and_len(self):
        win = SlidingWindow("s", params())
        assert win.store(tup(1.0))
        assert len(win) == 1

    def test_duplicate_replica_ignored(self):
        win = SlidingWindow("s", params())
        win.store(tup(1.0))
        assert not win.store(tup(1.0))
        assert len(win) == 1

    def test_live_at_respects_window(self):
        win = SlidingWindow("s", params(window=5.0))
        win.store(tup(1.0, seq=1))
        win.store(tup(4.0, seq=2))
        live = win.live_at(7.0)
        assert {t.generation_ts for t in live} == {4.0}

    def test_live_at_excludes_future(self):
        win = SlidingWindow("s", params())
        win.store(tup(5.0))
        assert win.live_at(3.0) == []

    def test_mark_deleted(self):
        win = SlidingWindow("s", params())
        t = tup(1.0)
        win.store(t)
        assert win.mark_deleted(t.tuple_id, 2.0)
        assert win.live_at(1.5)      # before deletion: visible
        assert not win.live_at(3.0)  # after: not

    def test_mark_deleted_missing(self):
        win = SlidingWindow("s", params())
        assert not win.mark_deleted(TupleID(9, 9.0, 9), 1.0)

    def test_earliest_deletion_wins(self):
        win = SlidingWindow("s", params())
        t = tup(1.0)
        win.store(t)
        win.mark_deleted(t.tuple_id, 5.0)
        win.mark_deleted(t.tuple_id, 3.0)
        assert win.get(t.tuple_id).deletion_ts == 3.0

    def test_expire(self):
        p = params(window=2.0, tau_s=0.5, tau_c=0.0, tau_j=0.5)
        win = SlidingWindow("s", p)
        win.store(tup(0.0, seq=1))
        win.store(tup(50.0, seq=2))
        # storage_time = 0.5 + 0 + 0.5 + 2.0 = 3.0; at t=52 only the
        # t=0 tuple has aged out.
        dropped = win.expire(now=52.0)
        assert [t.generation_ts for t in dropped] == [0.0]
        assert len(win) == 1

    def test_expire_keeps_within_storage_time(self):
        p = params(window=10.0, tau_s=1.0, tau_c=0.1, tau_j=1.0)
        win = SlidingWindow("s", p)
        win.store(tup(0.0))
        assert win.expire(now=p.storage_time - 0.01) == []


@given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30), st.floats(1.0, 20.0))
def test_live_tuples_always_inside_window(timestamps, window):
    """Property: live_at(T) returns exactly tuples with ts in (T-w, T]."""
    p = WindowParams(window, 1.0, 0.1, 1.0)
    win = SlidingWindow("s", p)
    for i, ts in enumerate(timestamps):
        win.store(StreamTuple("s", (i,), TupleID(0, ts, i)))
    probe = 50.0
    live = {t.generation_ts for t in win.live_at(probe)}
    expected = {ts for ts in timestamps if probe - window < ts <= probe}
    assert live == expected


class _FullScan:
    """The reference expiry: every call scans every held tuple."""

    def __init__(self, storage_time):
        self.storage_time = storage_time
        self.tuples = {}

    def store(self, t):
        self.tuples.setdefault(t.tuple_id, t)

    def expire(self, now):
        horizon = now - self.storage_time
        dropped = [t for t in self.tuples.values() if t.generation_ts <= horizon]
        for t in dropped:
            del self.tuples[t.tuple_id]
        return dropped


_ops = st.lists(
    st.one_of(
        # A replica generated at ts by one of three sources, stored in
        # whatever order the network delivers it.
        st.tuples(st.just("store"), st.floats(0.0, 60.0), st.integers(0, 2)),
        st.tuples(st.just("expire"), st.floats(0.0, 90.0), st.just(0)),
        st.tuples(st.just("pickle"), st.just(0.0), st.just(0)),
    ),
    max_size=60,
)


@settings(max_examples=300)
@given(_ops, st.floats(0.5, 20.0))
@example(  # the second expiry must still see the tuple the first kept
    [("store", 10.0, 0), ("store", 30.0, 1), ("expire", 14.0, 0),
     ("expire", 34.0, 0)], 1.0,
)
def test_expire_drops_what_a_full_scan_drops(ops, window):
    """Property: out-of-order replica stores and ``expire(now)`` at any
    time drop exactly the tuples (in the same order) a full scan of the
    window drops, also across a pickle round trip (the checkpoint
    path)."""
    p = WindowParams(window, 1.0, 0.1, 1.0)
    win = SlidingWindow("s", p)
    ref = _FullScan(p.storage_time)
    for i, (op, ts, src) in enumerate(ops):
        if op == "store":
            t = StreamTuple("s", (i,), TupleID(src, ts, 0))
            win.store(t)
            ref.store(t)
        elif op == "expire":
            got = [t.tuple_id for t in win.expire(ts)]
            assert got == [t.tuple_id for t in ref.expire(ts)]
        else:
            win = pickle.loads(pickle.dumps(win))
        assert [t.tuple_id for t in win] == list(ref.tuples)
