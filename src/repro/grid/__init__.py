"""Two-layer gridded routing fabric.

The paper's router works on a uniform grid with two wiring layers.  Layer 0
prefers horizontal wires and layer 1 prefers vertical wires, but — like
Mighty and unlike strictly reserved-layer channel routers — wrong-way
segments are legal (the cost model in :mod:`repro.maze` merely penalises
them).  Vias connect the two layers at a shared ``(x, y)`` cell.

* :class:`~repro.grid.layers.Layer` — the two wiring layers.
* :class:`~repro.grid.path.GridNode` / :class:`~repro.grid.path.GridPath` —
  a routed connection as a walk over ``(x, y, layer)`` nodes.
* :class:`~repro.grid.routing_grid.RoutingGrid` — occupancy, vias, commit
  and rip-up of paths with per-cell reference counts (so ripping one
  connection of a net never deletes copper shared with its siblings).
"""

from repro.grid.layers import Layer
from repro.grid.path import GridNode, GridPath
from repro.grid.routing_grid import FREE, OBSTACLE, GridError, RoutingGrid

__all__ = [
    "FREE",
    "GridError",
    "GridNode",
    "GridPath",
    "Layer",
    "OBSTACLE",
    "RoutingGrid",
]
