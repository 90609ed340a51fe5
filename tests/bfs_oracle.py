"""The from-scratch connectivity oracle the tests check the grid against.

:func:`connected_component` floods a net's copper node by node through
the grid's public node queries, O(component) per call and with no cache.
The grid's cached component flood
(:meth:`~repro.grid.routing_grid.RoutingGrid.component_ids`) and the
verifier's copper labels must agree with it.
"""

from __future__ import annotations

from typing import Set, Tuple

from repro.grid.layers import Layer
from repro.grid.path import GridNode
from repro.grid.routing_grid import RoutingGrid


def connected_component(
    grid: RoutingGrid, net_id: int, seed: Tuple[int, int, int]
) -> Set[GridNode]:
    """Nodes of ``net_id`` reachable from ``seed`` through its copper
    (empty when the net does not own ``seed``).

    Adjacency is a unit wire step on the same layer, or a layer change at
    a cell where the net owns a via.
    """
    seed_node = GridNode(seed[0], seed[1], Layer(seed[2]))
    if grid.owner(seed_node) != net_id:
        return set()
    seen = {seed_node}
    stack = [seed_node]
    while stack:
        node = stack.pop()
        candidates = [
            GridNode(node.x + 1, node.y, node.layer),
            GridNode(node.x - 1, node.y, node.layer),
            GridNode(node.x, node.y + 1, node.layer),
            GridNode(node.x, node.y - 1, node.layer),
        ]
        if grid.via_owner(node.x, node.y) == net_id:
            candidates.append(GridNode(node.x, node.y, node.layer.other))
        for cand in candidates:
            if cand not in seen and grid.owner(cand) == net_id:
                seen.add(cand)
                stack.append(cand)
    return seen
