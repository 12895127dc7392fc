"""Tests for the discrete-event engine and local clocks."""

import pytest
from hypothesis import given, strategies as st

from repro.net.sim import LocalClock, Simulator


class TestSimulator:
    def test_events_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(3.0, lambda: log.append("c"))
        sim.run_all()
        assert log == ["a", "b", "c"]

    def test_fifo_tie_break(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(1.0, lambda: log.append(2))
        sim.run_all()
        assert log == [1, 2]

    def test_now_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run_all()
        assert seen == [5.0]

    def test_run_until(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("early"))
        sim.schedule(10.0, lambda: log.append("late"))
        sim.run(until=5.0)
        assert log == ["early"]
        assert sim.now == 5.0
        sim.run_all()
        assert log == ["early", "late"]

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def first():
            log.append(sim.now)
            sim.schedule(1.0, lambda: log.append(sim.now))

        sim.schedule(1.0, first)
        sim.run_all()
        assert log == [1.0, 2.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run_all()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_max_events_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(1.0, loop)

        sim.schedule(1.0, loop)
        processed = sim.run(max_events=50)
        assert processed == 50

    def test_deterministic_rng(self):
        a = Simulator(seed=42).rng.random()
        b = Simulator(seed=42).rng.random()
        assert a == b


@given(st.lists(st.one_of(
    st.tuples(st.just("push"), st.floats(0.0, 5.0), st.integers(0, 3)),
    st.tuples(st.just("until"), st.floats(0.0, 5.0), st.just(0)),
    st.tuples(st.just("some"), st.just(0.0), st.integers(1, 4)),
), max_size=40))
def test_queue_hwm_is_the_deepest_push(ops):
    """Property: ``queue_hwm`` (kept by ``run``, which is where events
    leave the queue) equals the deepest the queue was right after any
    push, wherever it is read: between pushes, after a window that
    stopped at ``until`` or after a ``max_events`` slice.  A callback's
    ``children`` pushes land while the run is on."""
    sim = Simulator()
    deepest = 0

    def push(delay, children):
        nonlocal deepest
        sim.schedule(delay, lambda: [push(delay / 2, 0) for _ in range(children)])
        deepest = max(deepest, sim.pending)

    for op, value, n in ops:
        if op == "push":
            push(value, n)
        elif op == "until":
            sim.run(until=sim.now + value)
        else:
            sim.run(max_events=n)
        assert sim.queue_hwm == deepest
    sim.run_all()
    assert sim.queue_hwm == deepest


class TestLocalClock:
    def test_skew_applied(self):
        sim = Simulator()
        clock = LocalClock(sim, skew=0.25)
        sim.schedule(1.0, lambda: None)
        sim.run_all()
        assert clock.now() == 1.25
