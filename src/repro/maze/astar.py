"""A* path search on the two-layer routing grid.

The searcher is the hot loop of the whole library, so it runs as a flat
integer kernel: node ids ``idx = (layer * H + y) * W + x`` flow through the
heap, successor moves come from the precomputed
:func:`~repro.maze.arena.neighbor_table`, occupancy is read from the grid's
flat stores, and cost/parent/visited planes are the calling thread's
(:func:`~repro.maze.arena.thread_planes`), recycled with a generation
stamp instead of a per-search clear.  A search therefore allocates almost
nothing beyond its heap entries.

This module is the *validating wrapper*: it checks endpoints (bounds,
layer, source availability) and costs, and shapes the result; the
kernel sets the query up (target box, heuristics, the backward search).
:func:`find_path_flat` is the one search entry and speaks flat ids end to
end — the router hands it cached component id lists and commits the path
it returns by those ids.  :func:`find_path` is the node-level public API:
it converts the nodes and calls the flat entry.
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

from array import array
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.grid.path import GridPath, flat_id
from repro.grid.routing_grid import FREE, RoutingGrid
from repro.maze.arena import thread_planes
from repro.maze.cost import CostModel
from repro.maze.kernels import resolve_kernel
from repro.maze.kernels.pure import G_LIMIT
from repro.maze.kernels.pure import INDEX_MASK as _INDEX_MASK

Node = Tuple[int, int, int]  # (x, y, layer)

__all__ = ["SearchResult", "find_path", "find_path_flat", "Node"]

_DEFAULT_COST = CostModel()


@dataclass
class SearchResult:
    """Outcome of one A* query."""

    path: Optional[GridPath]
    cost: int = 0
    #: Nodes A* popped and relaxed; 0 when the backward search from the
    #: targets proved that no path exists.
    expansions: int = 0
    #: Flat ids of the foreign nodes the walk occupies, in path order.
    conflict_ids: List[int] = field(default_factory=list)
    #: Nodes the backward search from the targets settled before A* (see
    #: :func:`find_path_flat`), in a hard or a conflict search; 0 when
    #: none ran.
    flood_visits: int = 0

    @property
    def found(self) -> bool:
        """True when a path was found."""
        return self.path is not None


def node_id(node, width: int, height: int, role: str) -> int:
    """Flat id of a search endpoint, or :class:`ValueError` when x, y or
    the layer lies outside the grid."""
    x, y, layer = int(node[0]), int(node[1]), int(node[2])
    index = flat_id((x, y, layer), width, height)
    if index is None:
        raise ValueError(f"{role} {(x, y, layer)} out of bounds")
    return index


def find_path(
    grid: RoutingGrid,
    net_id: int,
    sources: Sequence[Node],
    targets: Iterable[Node],
    cost: Optional[CostModel] = None,
    allow_conflicts: bool = False,
    frozen_nets: FrozenSet[int] = frozenset(),
    net_penalties: Optional[dict] = None,
    kernel: Optional[str] = None,
) -> SearchResult:
    """Cheapest legal walk from any source node to any target node.

    Converts the nodes to flat ids and runs :func:`find_path_flat`.

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
        nets become progressively less attractive victims).  A negative
        penalty, or one of :data:`~repro.maze.kernels.pure.G_LIMIT` or
        more, is a :class:`ValueError`.
    kernel:
        Kernel backend name (``pure`` / ``compiled`` / ``auto``);
        ``None`` uses the process default (see
        :mod:`repro.maze.kernels`).

    Returns
    -------
    SearchResult
        ``result.path is None`` when no walk exists: the search has no
        expansion cap, so a missing path is a proof.  In conflict mode,
        ``result.conflict_ids`` lists the flat ids of the foreign nodes
        the chosen walk occupies (the modification plan's victims).
    """
    width, height = grid.width, grid.height
    target_ids = [node_id(t, width, height, "target") for t in targets]
    source_ids = [node_id(s, width, height, "source") for s in sources]
    return find_path_flat(
        grid,
        net_id,
        source_ids,
        target_ids,
        cost=cost,
        allow_conflicts=allow_conflicts,
        frozen_nets=frozen_nets,
        net_penalties=net_penalties,
        kernel=kernel,
    )


def find_path_flat(
    grid: RoutingGrid,
    net_id: int,
    sources: Sequence[int],
    targets: Sequence[int],
    cost: Optional[CostModel] = None,
    allow_conflicts: bool = False,
    frozen_nets: FrozenSet[int] = frozenset(),
    net_penalties: Optional[dict] = None,
    kernel: Optional[str] = None,
) -> SearchResult:
    """:func:`find_path` over flat node ids: the one search entry.

    ``sources`` and ``targets`` are flat ids ``(layer * H + y) * W + x``;
    every id must lie in ``[0, 2 * W * H)`` and every source must be free
    or owned by ``net_id``, else :class:`ValueError` is raised before the
    kernel runs.  The other parameters are :func:`find_path`'s.  The
    found path is built from flat ids, and ``conflict_ids`` lists the
    foreign nodes it occupies.  The ids go to the kernel as given,
    repeats and all: the kernel finds the target box and each source's
    heuristic.

    The kernel also decides whether to search backwards from the targets
    first: it does when the sources and targets are all copper of
    ``net_id``, no source is a target, and there are at most
    :data:`~repro.maze.kernels.pure.FLOOD_CAP` distinct targets.  That
    Dijkstra runs on reduced costs, a move's cost minus the fall in the
    heuristic, so it settles nodes in order of their exact excess over
    the heuristic, and it stops at the first settled source or after
    :data:`~repro.maze.kernels.pure.SETTLE_CAP` settled nodes.  When it
    drains first, no source reaches a target, and the search returns no
    path after zero expansions.  Otherwise A* adds to the heuristic each
    settled node's excess and the smallest open key everywhere else.
    That heuristic is still consistent, so the search returns the same
    path, cost and conflicts as without it, in fewer or as many
    expansions (ALGORITHM.md §2).  ``flood_visits`` counts the nodes the
    backward search settled.

    A* needs no expansion cap.  Its heuristic, the Manhattan distance to
    the target box, is consistent: a step changes that distance by at
    most one and costs at least 1, and a via changes neither.  So no
    node is expanded twice, and a search that finds no path has expanded
    every node its sources reach: a missing path is a proof.  That needs
    non-negative move costs; :class:`CostModel` checks its own, and a
    negative ``net_penalties`` value is a :class:`ValueError`.  So is a
    move cost or penalty of :data:`~repro.maze.kernels.pure.G_LIMIT` or
    more: a walk that makes such a move has a g the packed heap key
    cannot hold, so the move can never be paid.
    """
    model = cost or _DEFAULT_COST
    width, height = grid.width, grid.height
    plane = width * height
    n_nodes = 2 * plane
    if not targets:
        raise ValueError("no targets given")
    if not sources:
        raise ValueError("no sources given")
    if n_nodes > _INDEX_MASK:
        raise ValueError(
            f"grid has {n_nodes} nodes; packed search keys support at "
            f"most {_INDEX_MASK}"
        )
    if (
        model.wrong_way_penalty + 1 >= G_LIMIT
        or model.via_cost >= G_LIMIT
        or model.conflict_penalty >= G_LIMIT
    ):
        raise ValueError(
            f"{model} has a move cost at or above the packed-key g "
            f"limit ({G_LIMIT})"
        )
    penalties = net_penalties or {}
    if penalties and not (
        min(penalties.values()) >= 0 and max(penalties.values()) < G_LIMIT
    ):
        for owner, penalty in penalties.items():
            if penalty < 0:
                raise ValueError(
                    f"net {owner} has a negative penalty ({penalty})"
                )
            if penalty >= G_LIMIT:
                raise ValueError(
                    f"net {owner} has a penalty ({penalty}) at or above "
                    f"the packed-key g limit ({G_LIMIT})"
                )
    backend = resolve_kernel(kernel)

    for index in targets:
        if not 0 <= index < n_nodes:
            raise ValueError(f"target id {index} out of bounds")
    occ = grid.occ_flat()
    for index in sources:
        if not 0 <= index < n_nodes:
            raise ValueError(f"source id {index} out of bounds")
        owner = occ[index]
        if owner != net_id and owner != FREE:
            x = index % width
            y = index // width % height
            raise ValueError(
                f"source {(x, y, index // plane)} is not available to "
                f"net {net_id} (owner {owner})"
            )

    planes = thread_planes(width, height)
    gen = planes.next_generation()
    goal_cost, expansions, flood_visits, indices = backend.astar_search(
        grid,
        net_id,
        sources,
        targets,
        model,
        allow_conflicts,
        frozen_nets,
        penalties,
        planes,
        gen,
    )

    if indices is None:
        return SearchResult(
            path=None, expansions=expansions, flood_visits=flood_visits
        )
    # Only a conflict search can cross foreign copper: a hard search
    # enters free or own cells, and its sources are checked above.
    conflicts = (
        [i for i in indices if occ[i] != FREE and occ[i] != net_id]
        if allow_conflicts
        else []
    )
    if not isinstance(indices, array):
        indices = array("i", indices)
    return SearchResult(
        path=GridPath._of_legal_ids(indices, width, height),
        cost=goal_cost,
        expansions=expansions,
        conflict_ids=conflicts,
        flood_visits=flood_visits,
    )
