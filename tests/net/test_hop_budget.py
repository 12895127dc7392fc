"""A host-independent budget for the per-frame path.

Counts the Python function calls one extra forwarded hop of an
unreliable routed frame costs (``sys.setprofile`` ``call`` events, so
C functions such as ``heapq.heappush`` are free): a route 0 -> 3 along
the top row of a 4x4 grid against a route 0 -> 1, with the routing
searches and the per-size energy tables warmed first.  A hop is the
receiver half of the frame, the node's deliver and forward, the routing
lookup, the sender half and the delay draw; nothing else may join it
unnoticed.
"""

import sys

import pytest

from repro import obs
from repro.net.messages import Message
from repro.net.network import GridNetwork

#: Calls one forwarded hop may cost.
HOP_BUDGET = 10


@pytest.fixture
def telemetry_off():
    was = obs.enabled()
    obs.disable()
    yield
    if was:
        obs.enable()


def _calls(net, dst):
    """Python calls made sending one routed ping 0 -> ``dst`` and
    running the network until it lands."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    message = Message("ping", payload_symbols=2)
    sys.setprofile(profile)
    try:
        net.node(0).send_routed(dst, message)
        net.run_all()
    finally:
        sys.setprofile(None)
    return count


def test_forwarded_hop_call_budget(telemetry_off):
    net = GridNetwork(4)
    landed = []
    for node in net.nodes.values():
        node.register_handler("ping", lambda node, msg: landed.append(node.id))
    for dst in (3, 1):
        _calls(net, dst)  # warm: routing searches, energy per size
    far, near = _calls(net, 3), _calls(net, 1)
    assert landed == [3, 1, 3, 1]
    per_hop = (far - near) / 2
    assert per_hop <= HOP_BUDGET, (far, near)
