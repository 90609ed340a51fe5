"""ASCII layout rendering.

One character per grid cell, ``y`` increasing upward (row 0 printed last),
matching the figure orientation of the routing papers:

====== =========================================
char   meaning
====== =========================================
``.``  free on both layers
``-``  horizontal-layer wire only
``|``  vertical-layer wire only
``x``  wires on both layers, no via (a crossing)
``+``  via (layers joined)
``#``  obstacle on both layers
``=``  obstacle on one layer, wire on the other
letter pin (per-net label, a-z then A-Z then ?)
====== =========================================
"""

from __future__ import annotations

import string
from typing import Optional

from repro.grid.routing_grid import OBSTACLE, RoutingGrid
from repro.netlist.problem import RoutingProblem

_LABELS = string.ascii_lowercase + string.ascii_uppercase + string.digits


def net_label(net_id: int) -> str:
    """Single-character label for a net id (cycles after 62 nets)."""
    if net_id <= 0:
        return "?"
    return _LABELS[(net_id - 1) % len(_LABELS)]


def render_grid(
    problem: Optional[RoutingProblem], grid: RoutingGrid
) -> str:
    """Render the combined two-layer view (see module docstring)."""
    occ = grid.occupancy()
    pin = grid.pin_map()
    via = grid.via_map()
    lines = []
    for y in range(grid.height - 1, -1, -1):
        chars = []
        for x in range(grid.width):
            h, v = int(occ[0, y, x]), int(occ[1, y, x])
            if int(pin[0, y, x]) or int(pin[1, y, x]):
                chars.append(net_label(max(int(pin[0, y, x]), int(pin[1, y, x]))))
            elif int(via[y, x]):
                chars.append("+")
            elif h == OBSTACLE and v == OBSTACLE:
                chars.append("#")
            elif OBSTACLE in (h, v) and max(h, v) > 0:
                chars.append("=")
            elif h == OBSTACLE or v == OBSTACLE:
                chars.append("#")
            elif h > 0 and v > 0:
                chars.append("x")
            elif h > 0:
                chars.append("-")
            elif v > 0:
                chars.append("|")
            else:
                chars.append(".")
        lines.append("".join(chars))
    return "\n".join(lines)
