"""Frame-level identity across radio regimes.

Each scenario runs one small GPA join round on a 5x5 grid under one
radio regime and digests every :class:`~repro.net.events.RadioEvent`
``(time, event, src, dst, size, kind, detail)`` in order, plus the
collector's per-node tx/rx counts, bytes and energy and the simulator's
event count and queue high-water mark.  The digests were recorded
before the per-frame path through ``net.radio``, ``net.node`` and
``net.sim`` was flattened, so a change to that path that moves one
frame, one draw or one joule fails here.

The same round is then run again with no observer subscribed (the
path every benchmark takes): its counts must equal the observed run's.
"""

import functools
import hashlib
import random

import pytest

from repro.core.parser import parse_program
from repro.dist.gpa import GPAEngine
from repro.net.network import GridNetwork

JOIN = "j(K, A, B) :- r(K, A), s(K, B)."


def _publishes(seed=7, nodes=25, tuples=10, keys=5):
    rng = random.Random(seed)
    out = []
    for stream in ("r", "s"):
        for i in range(tuples):
            out.append((rng.randrange(nodes), stream, (i % keys, f"{stream}{i}")))
    rng.shuffle(out)
    return out


def _kill(net, node, when):
    net.sim.schedule_at(when, functools.partial(net.radio.kill, node))


def _sever(net, a, b):
    net.radio.link_down(a, b)


#: name -> (SensorNetwork keywords, fault set-up, (events, digest)).
SCENARIOS = {
    "unreliable": ({}, None, (626, "24b21dd44e79be9f")),
    "reliable_lossy": (
        {"reliable": True, "loss_rate": 0.1}, None, (1817, "ff5a435e46881e00")),
    "collisions": ({"collisions": True}, None, (515, "78bca23540897f8f")),
    "keyed_rng": (
        {"frame_rng": "keyed", "loss_rate": 0.1}, None, (492, "6f8b606e4491625c")),
    "severed_link": (
        {}, functools.partial(_sever, a=11, b=12), (586, "da57258aa637765d")),
    "killed_node": (
        {}, functools.partial(_kill, node=12, when=0.03), (520, "63f1c8055e696fbe")),
    "self_repair": (
        {"reliable": True, "self_repair": True},
        functools.partial(_kill, node=12, when=0.03), (1595, "50f965781848371e")),
}


def _run(net_kwargs, fault, observe):
    net = GridNetwork(5, seed=3, **net_kwargs)
    engine = GPAEngine(parse_program(JOIN), net, strategy="pa").install()
    events = []
    if observe:
        net.radio.subscribe(lambda ev: events.append((
            repr(ev.time), ev.event, ev.src, ev.dst, ev.size_bytes,
            ev.message.kind, ev.detail,
        )))
    if fault is not None:
        fault(net)
    for node, pred, args in _publishes():
        engine.publish(node, pred, args)
    net.run_all()
    m = net.metrics
    counts = tuple(
        (n, m.tx_count.get(n, 0), m.rx_count.get(n, 0), m.tx_bytes.get(n, 0),
         m.rx_bytes.get(n, 0), repr(m.energy.get(n, 0.0)))
        for n in sorted(net.nodes)
    )
    return events, (counts, m.dropped, m.acks, m.retries, m.dup_suppressed,
                    net.sim.events_processed, net.sim.queue_hwm)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_frame_digest(name):
    net_kwargs, fault, expected = SCENARIOS[name]
    events, counts = _run(net_kwargs, fault, observe=True)
    h = hashlib.sha1()
    for record in events:
        h.update(repr(record).encode())
    h.update(repr(counts).encode())
    assert (len(events), h.hexdigest()[:16]) == expected
    # The observer-free path counts the same frames, bytes and joules.
    assert _run(net_kwargs, fault, observe=False)[1] == counts
