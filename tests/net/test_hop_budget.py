"""A host-independent budget for the per-frame path.

Counts the Python function calls one extra forwarded hop of a routed
frame costs (``sys.setprofile`` ``call`` events, so C functions such as
``heapq.heappush`` are free): a route 0 -> 3 along the top row of a 4x4
grid against a route 0 -> 1, with the routing searches and the per-size
energy tables warmed first.  An unreliable hop is the receiver half of
the frame, the node's deliver and forward, the routing lookup, the
sender half and the delay draw.  A reliable hop adds the transfer, the
ack frame both ways, the timeout jitter draw, the hop's status callback
and the retransmission timer firing into a concluded transfer.  Nothing
else may join either unnoticed.
"""

import sys

import pytest

from repro import obs
from repro.net.messages import Message
from repro.net.network import GridNetwork

#: Calls one forwarded hop may cost.
HOP_BUDGET = 8
#: Calls one forwarded hop may cost with the reliable transport on.
RELIABLE_HOP_BUDGET = 20


@pytest.fixture
def telemetry_off():
    was = obs.enabled()
    obs.disable()
    yield
    if was:
        obs.enable()


def _calls(net, dst, on_status=None):
    """Python calls made sending one routed ping 0 -> ``dst`` and
    running the network until it lands (and, reliably, until every
    retransmission timer has fired)."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    message = Message("ping", payload_symbols=2)
    sys.setprofile(profile)
    try:
        net.node(0).send_routed(dst, message, on_status=on_status)
        net.run_all()
    finally:
        sys.setprofile(None)
    return count


def _per_hop(net, on_status=None):
    landed = []
    for node in net.nodes.values():
        node.register_handler("ping", lambda node, msg: landed.append(node.id))
    for dst in (3, 1):
        _calls(net, dst, on_status)  # warm: routing searches, energy per size
    far, near = _calls(net, 3, on_status), _calls(net, 1, on_status)
    assert landed == [3, 1, 3, 1]
    return (far - near) / 2, (far, near)


def test_forwarded_hop_call_budget(telemetry_off):
    per_hop, counts = _per_hop(GridNetwork(4))
    assert per_hop <= HOP_BUDGET, counts


def test_reliable_forwarded_hop_call_budget(telemetry_off):
    # Lossless, so every hop is one attempt, acked, whose timer later
    # finds the transfer concluded.  An end-to-end status callback, as
    # the GPA engine passes one (called once, at the destination, on
    # both routes).
    statuses = []
    net = GridNetwork(4, reliable=True)
    per_hop, counts = _per_hop(net, statuses.append)
    assert statuses == ["delivered"] * 4
    assert net.metrics.retries == 0
    assert per_hop <= RELIABLE_HOP_BUDGET, counts
