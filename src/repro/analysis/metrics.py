"""Layout quality metrics.

All quantities are derived from the final grid, never from router-internal
counters, so different routers are measured identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.grid.routing_grid import FREE, OBSTACLE, RoutingGrid
from repro.netlist.problem import RoutingProblem


@dataclass(frozen=True)
class LayoutMetrics:
    """Measured properties of one routed layout."""

    wire_cells: int  # net-owned nodes that are not pins
    via_count: int
    horizontal_cells: int
    vertical_cells: int
    pin_cells: int
    per_net_cells: Dict[str, int]

    @property
    def total_cells(self) -> int:
        """All net-owned nodes, pins included."""
        return self.wire_cells + self.pin_cells


def layout_metrics(
    problem: RoutingProblem, grid: RoutingGrid
) -> LayoutMetrics:
    """Measure the routed layout on ``grid``."""
    occ = grid.occupancy()
    pin = grid.pin_map()
    owned = (occ != FREE) & (occ != OBSTACLE)
    pins = pin != 0
    wire_mask = owned & ~pins
    per_net: Dict[str, int] = {}
    for index, net in enumerate(problem.nets):
        per_net[net.name] = int((occ == index + 1).sum())
    return LayoutMetrics(
        wire_cells=int(wire_mask.sum()),
        via_count=int((grid.via_map() != 0).sum()),
        horizontal_cells=int((owned[0]).sum()),
        vertical_cells=int((owned[1]).sum()),
        pin_cells=int(pins.sum()),
        per_net_cells=per_net,
    )


def channel_tracks_used(problem: RoutingProblem, grid: RoutingGrid) -> int:
    """Number of track rows carrying *horizontal-layer* wiring.

    The channel literature counts tracks as rows occupied by trunks; a row
    that branches merely cross vertically is not a used track.  The pin
    rows (``y == 0`` and ``y == height - 1``) never count.
    """
    occ = grid.occupancy()
    used = 0
    for y in range(1, grid.height - 1):
        row = occ[0, y, :]
        if bool(((row != FREE) & (row != OBSTACLE)).any()):
            used += 1
    return used
