"""The final improvement phase: one-at-a-time reroute for cost reduction.

After a complete routing, Mighty runs a cleanup pass: each connection is
ripped out and rerouted at minimum cost against the now-final landscape; the
cheaper of old and new path is kept.  The pass is monotone — total cost
never increases — and typically removes the detours and extra vias that the
incremental order forced early connections to take.

The pass also discovers *redundant* connections: when ripping a connection
leaves its endpoints still connected through sibling copper, the connection
is kept empty (pure wirelength savings).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, List, Optional

from repro.core.decompose import Connection
from repro.core.result import RouteResult
from repro.grid.path import GridPath
from repro.maze.astar import find_path
from repro.maze.cost import CostModel


@dataclass
class ImprovementStats:
    """Outcome of :func:`improve_routing`."""

    passes: int = 0
    rerouted: int = 0
    removed_redundant: int = 0
    cost_before: int = 0
    cost_after: int = 0

    @property
    def cost_saved(self) -> int:
        """Total path cost removed by the pass (never negative)."""
        return self.cost_before - self.cost_after

    def summary(self) -> str:
        """One-line outcome."""
        return (
            f"improvement: {self.rerouted} rerouted, "
            f"{self.removed_redundant} made redundant, cost "
            f"{self.cost_before} -> {self.cost_after} "
            f"({self.passes} passes)"
        )


def path_cost(path: Optional[GridPath], model: CostModel) -> int:
    """Cost of a committed path under ``model`` (0 for a trivial path)."""
    if path is None:
        return 0
    nodes = path.nodes
    total = 0
    for a, b in zip(nodes, nodes[1:]):
        if a.layer != b.layer:
            total += model.via_cost
        else:
            horizontal_step = a.y == b.y
            with_grain = horizontal_step == (int(a.layer) == 0)
            total += model.wire_step(with_grain)
    return total


def improve_routing(
    result: RouteResult,
    cost: Optional[CostModel] = None,
    passes: int = 2,
    only: Optional[Collection[Connection]] = None,
) -> ImprovementStats:
    """Run the improvement phase on a finished :class:`RouteResult`.

    Mutates ``result`` in place (grid and connection paths) and returns the
    statistics.  Connections that failed to route are left untouched.
    Total cost is guaranteed non-increasing.

    ``only`` restricts the pass to a subset of the result's connections
    (identity membership) — the shard-and-stitch pipeline uses this to
    polish just the boundary band instead of re-touching shard interiors.
    Cost accounting still covers every connection, so the monotonicity
    guarantee is unchanged.
    """
    if passes < 0:
        raise ValueError("passes must be non-negative")
    model = cost or CostModel()
    scope = None if only is None else set(id(c) for c in only)
    grid = result.grid
    stats = ImprovementStats(
        cost_before=sum(
            path_cost(c.path, model) for c in result.connections
        )
    )

    def net_still_connected(net_id: int) -> bool:
        # Sibling connections may terminate on the copper being moved, so
        # a locally-sound reroute can still strand another connection's
        # endpoint; accept a change only if every pin of the whole net
        # stays in one component (answered by the incremental index, not
        # a from-scratch flood).
        pins = result.problem.net_by_id(net_id).pins
        if len(pins) < 2:
            return True
        anchor = tuple(pins[0].node)
        return all(
            grid.same_component(net_id, anchor, tuple(pin.node))
            for pin in pins[1:]
        )

    for _ in range(passes):
        improved_this_pass = 0
        for connection in _by_descending_cost(result.connections, model):
            if scope is not None and id(connection) not in scope:
                continue
            if not connection.routed or connection.path is None:
                continue
            old_path = connection.path
            old_cost = path_cost(old_path, model)
            grid.remove_path(connection.net_id, old_path)
            connection.path = None

            source_node = tuple(connection.source_node)
            target_node = tuple(connection.target_node)
            if grid.same_component(
                connection.net_id, source_node, target_node
            ):
                if not net_still_connected(connection.net_id):
                    # The removed copper carried a sibling's endpoint.
                    grid.commit_path(connection.net_id, old_path)
                    connection.path = old_path
                    continue
                # Redundant: sibling copper already connects the endpoints.
                stats.removed_redundant += 1
                improved_this_pass += 1
                continue
            sources = [
                tuple(n)
                for n in grid.component_nodes(connection.net_id, source_node)
            ]
            targets = [
                tuple(n)
                for n in grid.component_nodes(connection.net_id, target_node)
            ]
            if not sources or not targets:
                # A pre-routed (fixed) connection's endpoints are path
                # ends, not reserved pins; lifting its copper can leave an
                # endpoint with no component at all.  Nothing to reroute
                # from/to — keep the original path.
                grid.commit_path(connection.net_id, old_path)
                connection.path = old_path
                continue
            candidate = find_path(
                grid, connection.net_id, sources, targets, cost=model
            )
            if candidate.found and candidate.cost < old_cost:
                grid.commit_path(connection.net_id, candidate.path)
                connection.path = candidate.path
                if not net_still_connected(connection.net_id):
                    # Cheaper for this connection, but a sibling routed
                    # through the old copper came apart: undo.
                    grid.remove_path(connection.net_id, candidate.path)
                    grid.commit_path(connection.net_id, old_path)
                    connection.path = old_path
                    continue
                stats.rerouted += 1
                improved_this_pass += 1
            else:
                # Keep the original (the reroute was not strictly better).
                grid.commit_path(connection.net_id, old_path)
                connection.path = old_path
        stats.passes += 1
        if improved_this_pass == 0:
            break

    stats.cost_after = sum(
        path_cost(c.path, model) for c in result.connections
    )
    assert stats.cost_after <= stats.cost_before, "improvement must be monotone"
    return stats


def _by_descending_cost(
    connections: List[Connection], model: CostModel
) -> List[Connection]:
    """Most expensive first: early victims of congestion improve first."""
    return sorted(
        connections,
        key=lambda c: path_cost(c.path, model),
        reverse=True,
    )
