"""Radio energy model.

Communication dominates sensor-node energy budgets, which is why the
paper optimizes message cost above all.  The model below uses
first-order per-message + per-byte costs in microjoules, calibrated to
mica2/TelosB-class motes (CC1000/CC2420 radios): transmitting is
roughly twice as expensive per byte as receiving, and each packet pays
a fixed preamble/turnaround overhead.
"""

from __future__ import annotations

#: Microjoules per frame (preamble/turnaround) and per byte, sending and
#: receiving.
TX_BASE = 10.0
TX_PER_BYTE = 0.6
RX_BASE = 5.0
RX_PER_BYTE = 0.3


def tx_cost(size_bytes: int) -> float:
    return TX_BASE + TX_PER_BYTE * size_bytes


def rx_cost(size_bytes: int) -> float:
    return RX_BASE + RX_PER_BYTE * size_bytes


class CostBySize(dict):
    """``cost(size)`` keyed by frame size, each value computed once by
    the formula it wraps: a radio charges every frame it counts with one
    dict read instead of a call."""

    def __init__(self, cost):
        super().__init__()
        self.cost = cost

    def __missing__(self, size: int) -> float:
        value = self[size] = self.cost(size)
        return value
