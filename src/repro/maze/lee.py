"""The classic Lee (1961) breadth-first wavefront router.

Kept as the historically faithful baseline the paper builds on, and as a
test oracle: under the uniform cost model the A* searcher must find paths of
exactly the length Lee's wavefront reports.  The algorithm is the textbook
one — expand a wavefront of monotonically increasing labels from the
sources, then retrace from the first labelled target — but it runs on the
same flat-index substrate as the production searcher: integer node ids, the
shared :func:`~repro.maze.arena.neighbor_table`, the grid's flat occupancy
store, and label/parent planes recycled from a
:class:`~repro.maze.arena.SearchArena`.

Like :func:`repro.maze.astar.find_path`, this module validates endpoints
(bounds *and* layer, for sources and targets alike) and delegates the
wavefront itself to a pluggable kernel backend
(:mod:`repro.maze.kernels`), each bit-identical to the per-node deque
reference.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from repro.grid.path import GridPath
from repro.grid.routing_grid import FREE, RoutingGrid
from repro.maze.arena import SearchArena, default_arena
from repro.maze.kernels import resolve_kernel

Node = Tuple[int, int, int]


def lee_route(
    grid: RoutingGrid,
    net_id: int,
    sources: Sequence[Node],
    targets: Iterable[Node],
    arena: Optional[SearchArena] = None,
    kernel: Optional[str] = None,
) -> Optional[GridPath]:
    """Shortest walk (uniform cost, vias count one step) or ``None``.

    Cells must be free or owned by ``net_id``; there is no conflict mode —
    Lee's router predates rip-up, which is precisely the gap the paper
    fills.  Sources *and* targets must be in bounds with layer in
    ``{0, 1}``: an out-of-bounds target used to be folded silently into a
    wrapped or out-of-plane flat index and the search would just report
    ``None``.
    """
    from repro.maze.astar import node_id

    width, height = grid.width, grid.height
    target_idx = {node_id(t, width, height, "target") for t in targets}
    if not target_idx or not sources:
        raise ValueError("need at least one source and one target")

    occ = grid.occ_flat()
    source_indices = []
    for node in sources:
        index = node_id(node, width, height, "source")
        owner = occ[index]
        if owner != FREE and owner != net_id:
            raise ValueError(
                f"source {tuple(map(int, node))} not available to net "
                f"{net_id}"
            )
        source_indices.append(index)

    backend = resolve_kernel(kernel)
    planes = (arena or default_arena()).planes(width, height)
    gen = planes.next_generation()
    indices = backend.lee_search(
        grid, net_id, source_indices, target_idx, planes, gen
    )

    if indices is None:
        return None
    return GridPath.from_ids(indices, width, height)
