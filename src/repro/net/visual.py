"""ASCII visualization of network state.

Renders per-node scalars (e.g. transmission load) as a character
heatmap over grid topologies — the quickest way to *see* the
hotspot structure the load-balance experiments quantify: a centralized
scheme lights up around its server, PA shades evenly.
"""

from __future__ import annotations

from typing import Dict

from ..core.errors import NetworkError
from .network import SensorNetwork
from .topology import GridTopology

#: Shade ramp from idle to hottest.
RAMP = " .:-=+*#%@"


def heatmap(
    network: SensorNetwork,
    values: Dict[int, float],
    title: str = "",
) -> str:
    """Render ``values`` (node id -> scalar) over a grid topology, with
    a scale line under it when any value is positive."""
    topo = network.topology
    if not isinstance(topo, GridTopology):
        raise NetworkError("heatmap rendering requires a grid topology")
    peak = max(values.values(), default=0.0)
    lines = []
    if title:
        lines.append(title)
    for y in range(topo.n - 1, -1, -1):  # north at the top
        row = []
        for x in range(topo.m):
            value = values.get(topo.node_at(x, y), 0.0)
            if peak <= 0:
                row.append(RAMP[0])
            else:
                idx = min(len(RAMP) - 1, int(value / peak * (len(RAMP) - 1) + 0.5))
                row.append(RAMP[idx])
        lines.append("".join(row))
    if peak > 0:
        lines.append(f"scale: '{RAMP[0]}'=0 .. '{RAMP[-1]}'={peak:.0f}")
    return "\n".join(lines)


def load_heatmap(network: SensorNetwork, title: str = "tx load") -> str:
    """Transmission-count heatmap (the hotspot picture)."""
    return heatmap(network, dict(network.metrics.tx_count), title)
