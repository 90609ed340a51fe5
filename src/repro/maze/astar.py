"""A* path search on the two-layer routing grid.

The searcher is the hot loop of the whole library, so it runs as a flat
integer kernel: node ids ``idx = (layer * H + y) * W + x`` flow through the
heap, successor moves come from the precomputed
:func:`~repro.maze.arena.neighbor_table`, occupancy is read from the grid's
flat stores, and cost/parent/visited planes are recycled from a
:class:`~repro.maze.arena.SearchArena` with a generation stamp instead of a
per-search clear.  A search therefore allocates almost nothing beyond its
heap entries.

This module is the *validating wrapper*: it checks endpoints (bounds,
layer, source availability), prepares the query, and shapes the result.
The inner loop itself lives in a pluggable kernel backend
(:mod:`repro.maze.kernels`) — pure python or compiled — both
bit-identical in paths, costs, and expansion counts, so the backend choice
changes wall time only, never routing decisions.

Soft-conflict mode is the crucial feature for the paper's algorithm: with
``allow_conflicts=True`` the searcher may walk *through* cells owned by other
nets, paying :attr:`~repro.maze.cost.CostModel.conflict_penalty` per foreign
cell.  The cheapest walk then doubles as the cheapest *modification plan*:
the foreign cells it touches identify exactly the victim connections that
weak/strong modification must displace.  Pins are never crossable, and nets
in ``frozen_nets`` (those whose rip budget is exhausted) are hard obstacles,
which is what makes the overall control loop provably finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.grid.path import GridPath
from repro.grid.routing_grid import FREE, OBSTACLE, RoutingGrid
from repro.maze.arena import SearchArena, default_arena
from repro.maze.cost import CostModel
from repro.maze.kernels import resolve_kernel
from repro.maze.kernels.pure import (
    FIELD_MASK as _FIELD_MASK,
    F_SHIFT as _F_SHIFT,
    G_LIMIT as _G_LIMIT,
    G_SHIFT as _G_SHIFT,
    INDEX_MASK as _INDEX_MASK,
)

Node = Tuple[int, int, int]  # (x, y, layer)

__all__ = ["SearchResult", "find_path", "Node"]


@dataclass
class SearchResult:
    """Outcome of one A* query."""

    path: Optional[GridPath]
    cost: int = 0
    expansions: int = 0
    conflict_nodes: List[Node] = field(default_factory=list)
    #: True when the search stopped because the ``max_expansions`` budget
    #: tripped.  ``path is None and not exhausted`` is a *proven* no-path;
    #: ``path is None and exhausted`` merely means the budget ran out — the
    #: two must not be conflated when deciding a net is unroutable.
    exhausted: bool = False

    @property
    def found(self) -> bool:
        """True when a path was found."""
        return self.path is not None


def _check_node(node, width: int, height: int, role: str) -> Node:
    """Validated ``(x, y, layer)`` ints, or :class:`ValueError`.

    Layer is validated alongside x/y: a layer outside ``{0, 1}`` would
    otherwise silently wrap through Python negative indexing (layer −1)
    or read past the plane (layer ≥ 2) once folded into a flat index.
    """
    x, y, layer = int(node[0]), int(node[1]), int(node[2])
    if not (0 <= x < width and 0 <= y < height and 0 <= layer <= 1):
        raise ValueError(f"{role} {(x, y, layer)} out of bounds")
    return x, y, layer


def find_path(
    grid: RoutingGrid,
    net_id: int,
    sources: Sequence[Node],
    targets: Iterable[Node],
    cost: Optional[CostModel] = None,
    allow_conflicts: bool = False,
    frozen_nets: FrozenSet[int] = frozenset(),
    net_penalties: Optional[dict] = None,
    max_expansions: Optional[int] = None,
    arena: Optional[SearchArena] = None,
    kernel: Optional[str] = None,
) -> SearchResult:
    """Cheapest legal walk from any source node to any target node.

    Parameters
    ----------
    grid:
        The routing fabric (read-only during the search).
    net_id:
        The net being routed; its own copper is free to traverse.
    sources:
        Start nodes (cost 0).  Each must be in bounds (including layer in
        ``{0, 1}``) and free or owned by ``net_id``.
    targets:
        Goal nodes; reaching any one of them ends the search.  Each must
        be in bounds (including layer) — an out-of-bounds target could
        never be reached yet would silently skew the heuristic bounding
        box, degrading the search to a near-Dijkstra sweep.
    cost:
        Edge costs; defaults to :class:`CostModel()`.
    allow_conflicts:
        When true, cells owned by other *non-frozen*, *non-pin* nets are
        passable at ``cost.conflict_penalty`` extra per cell.
    frozen_nets:
        Net ids that may never be crossed even in conflict mode.
    net_penalties:
        Extra per-cell penalty charged for crossing a specific net (the
        router escalates this with each rip-up of the net, so oft-ripped
        nets become progressively less attractive victims).
    max_expansions:
        Safety valve; defaults to ``8 * cells``.  When it trips the
        result has ``path is None`` and ``exhausted=True``.
    arena:
        Scratch arena whose planes the search reuses.  Routers pass their
        own; casual callers fall back to a thread-local shared arena.
    kernel:
        Kernel backend name (``pure`` / ``compiled`` / ``auto``);
        ``None`` uses the process default (see
        :mod:`repro.maze.kernels`).

    Returns
    -------
    SearchResult
        ``result.path is None`` when no walk exists — check
        ``result.exhausted`` to tell a proven no-path from an expansion
        budget trip.  In conflict mode, ``result.conflict_nodes`` lists
        the foreign nodes the chosen walk occupies (the modification
        plan's victims).
    """
    model = cost or CostModel()
    width, height = grid.width, grid.height
    plane = width * height

    target_list = [_check_node(t, width, height, "target") for t in targets]
    if not target_list:
        raise ValueError("no targets given")
    if not sources:
        raise ValueError("no sources given")
    if max_expansions is None:
        max_expansions = 8 * plane
    if 2 * plane > _INDEX_MASK:
        raise ValueError(
            f"grid has {2 * plane} nodes; packed search keys support at "
            f"most {_INDEX_MASK}"
        )
    backend = resolve_kernel(kernel)

    target_idx = {
        (layer * height + y) * width + x for x, y, layer in target_list
    }
    tx0 = min(t[0] for t in target_list)
    tx1 = max(t[0] for t in target_list)
    ty0 = min(t[1] for t in target_list)
    ty1 = max(t[1] for t in target_list)

    occ = grid.occ_flat()
    step = model.step_cost
    source_entries: List[Tuple[int, int]] = []
    for node in sources:
        x, y, layer = _check_node(node, width, height, "source")
        index = (layer * height + y) * width + x
        owner = occ[index]
        if owner != FREE and owner != net_id:
            raise ValueError(
                f"source {tuple(node)} is not available to net {net_id} "
                f"(owner {owner})"
            )
        dx = (tx0 - x) if x < tx0 else (x - tx1) if x > tx1 else 0
        dy = (ty0 - y) if y < ty0 else (y - ty1) if y > ty1 else 0
        source_entries.append((index, (dx + dy) * step))

    planes = (arena or default_arena()).planes(width, height)
    gen = planes.next_generation()
    goal_cost, expansions, exhausted, indices = backend.astar_search(
        grid,
        net_id,
        source_entries,
        target_idx,
        (tx0, tx1, ty0, ty1),
        model,
        allow_conflicts,
        frozen_nets,
        net_penalties or {},
        max_expansions,
        planes,
        gen,
    )

    if indices is None:
        return SearchResult(path=None, expansions=expansions, exhausted=exhausted)

    nodes: List[Node] = []
    conflicts: List[Node] = []
    for index in indices:
        layer, rest = divmod(index, plane)
        y, x = divmod(rest, width)
        nodes.append((x, y, layer))
        owner = occ[index]
        if owner != FREE and owner != OBSTACLE and owner != net_id:
            conflicts.append((x, y, layer))
    return SearchResult(
        path=GridPath(nodes),
        cost=goal_cost,
        expansions=expansions,
        conflict_nodes=conflicts,
    )
