"""The reference pure-python search kernels.

These are the original inner loops of :mod:`repro.maze.astar` and
:mod:`repro.maze.lee`, plus the A* search's target-side flood and
pocket bound — every other backend is defined as "bit-identical to this
one".  The wrappers own validation and result shaping; the kernels see
only well-formed queries and speak flat node indices.

Kernel contract (shared by every backend module):

``astar_search(grid, net_id, sources, target_idx, seeds, bbox, model,
allow_conflicts, frozen_nets, net_penalties, planes, gen)``
    ``sources`` is an ordered list of ``(index, h)`` pairs — flat node id
    plus its precomputed heuristic — already validated and cost-0.
    ``target_idx`` is the set of goal indices, ``bbox`` the inclusive
    target bounding box ``(tx0, tx1, ty0, ty1)``.  ``planes`` are the
    thread's scratch planes for this grid shape
    (:func:`~repro.maze.arena.thread_planes`) with ``gen`` the fresh
    generation stamp.  ``seeds`` is empty, or the distinct targets in
    ascending order when the caller has checked that a target-side
    flood may be used: every source and target is copper of ``net_id``,
    no source is a target, there are at most :data:`FLOOD_CAP` targets,
    and a conflict search has ``via_cost > 0``, so every move costs at
    least 1.  The kernel then first floods from the seeds
    (:func:`flood_pocket`).  When the flood closes, a hard search
    returns no path with zero expansions.  A conflict search prices the
    pocket's neighbour ring (:func:`pocket_bound`): with no crossable
    ring cell it returns no path with zero expansions, and otherwise it
    adds the cheapest ring entry to the heuristic of every node outside
    the pocket and ring and reads its path with
    :func:`min_key_backtrack`.  That returns the path, cost and goal of
    the search without the bound, in fewer or as many expansions.
    Otherwise, and whenever ``seeds`` is empty, A* runs as if no flood
    had happened: the flood writes none of the planes.  Returns
    ``(goal_cost, expansions, flood_visits, indices)`` where ``indices``
    is the source→goal flat-index path or ``None``, ``expansions``
    counts A* pops and ``flood_visits`` the nodes the flood popped.  A*
    runs until it reaches a target or its frontier drains, so ``None``
    is always a proof that no path exists.  Raises :class:`ValueError`
    when a relaxed cost overflows the packed heap-key g field.

``lee_search(grid, net_id, source_indices, target_idx, planes, gen)``
    Uniform-cost wavefront.  ``source_indices`` is the ordered, validated
    source list.  Returns the source→goal flat-index path or ``None``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import List, Optional, Tuple

from repro.grid.routing_grid import FREE, OBSTACLE

# Packed heap-key layout: ``(f << F_SHIFT) | (g << G_SHIFT) | index``.
# Integer comparison of packed keys orders exactly like the (f, g, index)
# tuples they replace: index gets 24 bits, g gets 28, f is open-ended at
# the top (Python ints never overflow — f just grows past 64 bits).
G_SHIFT = 24
F_SHIFT = 52
INDEX_MASK = (1 << G_SHIFT) - 1
FIELD_MASK = (1 << (F_SHIFT - G_SHIFT)) - 1
G_LIMIT = 1 << (F_SHIFT - G_SHIFT)

#: The most targets a search floods from, and the most free cells that
#: flood may enter before it gives up and leaves the answer to A*.
#: Both backends read this one value.
FLOOD_CAP = 16


def g_overflow_error(new_g: int) -> ValueError:
    """The error every backend raises when a cost overflows the g field."""
    return ValueError(
        f"path cost exceeds the packed-key g field ({new_g} >= {G_LIMIT})"
    )


def backtrack(parent, goal: int) -> List[int]:
    """Source→goal flat-index chain read from a parent plane."""
    indices = [goal]
    while parent[indices[-1]] >= 0:
        indices.append(parent[indices[-1]])
    indices.reverse()
    return indices


def flood_pocket(
    occ, nbrs, net_id: int, seeds, cap: int
) -> Tuple[Optional[List[int]], int]:
    """Flood from ``seeds`` over free cells; ``(pocket, visits)``.

    The flood enters free cells in breadth-first order, the seeds first
    and each node's moves in neighbour-table order.  It gives up when it
    would enter a free cell past the ``cap``-th, or when it touches
    copper of ``net_id`` that is not a seed; other cells are walls.
    ``pocket`` is the seeds and the free cells entered when the queue
    drains first, else None.  ``visits`` counts the nodes popped, the
    one that gave up included.

    A hard search moves between free and own cells only, and a move is
    legal both ways, so a path from a source would be a path from a
    seed.  Every source is own copper and no seed, so a closed flood
    proves that no source reaches a target.
    """
    seen = set(seeds)
    queue = list(seeds)
    head = 0
    while head < len(queue):
        index = queue[head]
        head += 1
        for succ, _axis, _sx, _sy in nbrs[index]:
            if succ in seen:
                continue
            owner = occ[succ]
            if owner == FREE:
                if len(queue) - len(seeds) == cap:
                    return None, head
                seen.add(succ)
                queue.append(succ)
            elif owner == net_id:
                return None, head
    return queue, head


def pocket_bound(
    occ, pin, nbrs, pocket, frozen, base_penalty: int, penalties_get
) -> Tuple[set, Optional[int]]:
    """The pocket with its ring, and the cheapest crossing of the ring.

    Returns ``(near, bound)``: ``near`` holds the pocket of a closed
    flood and every cell next to it (the ring), and ``bound`` is the
    least extra cost a conflict search pays to enter a ring cell it may
    cross, or None when it may cross none.  The ring holds only
    obstacles and other nets' cells: the flood entered every free cell
    next to the pocket and gave up at own copper outside the seeds.
    Every source lies outside the pocket and ring, so a walk from a
    source to a target enters a ring cell on its way in.
    """
    near = set(pocket)
    bound = None
    for index in pocket:
        for succ, _axis, _sx, _sy in nbrs[index]:
            if succ in near:
                continue
            near.add(succ)
            owner = occ[succ]
            if owner == OBSTACLE or owner in frozen or pin[succ] != 0:
                continue
            extra = base_penalty + penalties_get(owner, 0)
            if bound is None or extra < bound:
                bound = extra
    return near, bound


def min_key_backtrack(
    best, stamp, gen: int, goal: int, occ, nbrs, plane: int, rows,
    net_id: int, base_penalty: int, penalties_get,
    bbox: Tuple[int, int, int, int], step: int,
) -> List[int]:
    """Source→goal chain of a bounded search, as plain A* records it.

    From each node ``m`` the chain steps to the optimal predecessor
    ``p``, ``best[p] + cost(p→m) == best[m]``, with the smallest plain
    ``(f, g, index)`` key, until it reaches a source (``best`` 0).  A
    move costs the same from either end: a wire step stays on its
    layer, and a via costs ``via_cost`` on both, so ``cost(p→m)`` is
    ``m``'s row entry plus the extra cost of entering ``m``.  With every
    move cost positive, plain A* pops keys in strictly increasing order
    and expands every optimal predecessor of ``m`` before ``m``, so the
    one it expands first, whose push set ``parent[m]`` for good, is the
    one with the smallest key.  The bounded search has expanded every
    optimal predecessor too, with its final cost (ALGORITHM.md §2).
    """
    tx0, tx1, ty0, ty1 = bbox
    indices = [goal]
    index = goal
    while best[index]:
        owner = occ[index]
        reach = best[index]
        if owner != FREE and owner != net_id:
            reach -= base_penalty + penalties_get(owner, 0)
        row = rows[0] if index < plane else rows[1]
        pick = pick_key = -1
        for pred, axis, px, py in nbrs[index]:
            g = best[pred]
            if stamp[pred] != gen or g + row[axis] != reach:
                continue
            dx = (tx0 - px) if px < tx0 else (px - tx1) if px > tx1 else 0
            dy = (ty0 - py) if py < ty0 else (py - ty1) if py > ty1 else 0
            key = ((g + (dx + dy) * step) << F_SHIFT) | (g << G_SHIFT) | pred
            if pick < 0 or key < pick_key:
                pick, pick_key = pred, key
        index = pick
        indices.append(index)
    indices.reverse()
    return indices


def astar_search(
    grid,
    net_id: int,
    sources,  # ordered [(index, h)] — validated, deduplication is ours
    target_idx,  # set of goal indices
    seeds,  # ascending distinct targets to flood from, or empty
    bbox: Tuple[int, int, int, int],
    model,
    allow_conflicts: bool,
    frozen_nets,
    net_penalties: dict,
    planes,
    gen: int,
) -> Tuple[int, int, int, Optional[List[int]]]:
    """Reference A* inner loop (see the module docstring for the contract)."""
    from repro.maze.arena import neighbor_table

    width, height = grid.width, grid.height
    plane = width * height
    tx0, tx1, ty0, ty1 = bbox

    occ = grid.occ_flat()
    pin = grid.pin_flat()
    nbrs = neighbor_table(width, height)
    base_penalty = model.conflict_penalty
    penalties_get = net_penalties.get
    frozen = frozen_nets
    flood_visits = 0
    # A closed flood's pocket and ring, and the least a walk from
    # outside them pays to enter the ring: 0 leaves A* plain.
    near = ()
    bound = 0
    if seeds:
        pocket, flood_visits = flood_pocket(
            occ, nbrs, net_id, seeds, FLOOD_CAP
        )
        if pocket is not None:
            if not allow_conflicts:
                return 0, 0, flood_visits, None
            near, bound = pocket_bound(
                occ, pin, nbrs, pocket, frozen, base_penalty, penalties_get
            )
            if bound is None:
                return 0, 0, flood_visits, None
    best, parent, stamp = planes.lists()

    step = model.step_cost
    cost_rows = model.axis_cost_table
    row0, row1 = cost_rows[0], cost_rows[1]
    push, pop = heappush, heappop
    frontier: List[int] = []

    for index, h in sources:
        if stamp[index] != gen or best[index] > 0:
            stamp[index] = gen
            best[index] = 0
            parent[index] = -1
            if bound and index not in near:
                h += bound
            push(frontier, (h << F_SHIFT) | index)

    expansions = 0
    goal = -1
    goal_cost = 0

    while frontier:
        entry = pop(frontier)
        index = entry & INDEX_MASK
        g = (entry >> G_SHIFT) & FIELD_MASK
        if stamp[index] != gen or best[index] != g:
            continue  # stale entry
        if index in target_idx:
            goal, goal_cost = index, g
            break
        expansions += 1
        row = row0 if index < plane else row1
        for succ, axis, sx, sy in nbrs[index]:
            owner = occ[succ]
            if owner == FREE or owner == net_id:
                extra = 0
            elif owner == OBSTACLE or not allow_conflicts:
                continue
            elif owner in frozen or pin[succ] != 0:
                continue
            else:
                extra = base_penalty + penalties_get(owner, 0)
            new_g = g + row[axis] + extra
            if stamp[succ] != gen:
                stamp[succ] = gen
            elif best[succ] <= new_g:
                continue
            best[succ] = new_g
            parent[succ] = index
            dx = (tx0 - sx) if sx < tx0 else (sx - tx1) if sx > tx1 else 0
            dy = (ty0 - sy) if sy < ty0 else (sy - ty1) if sy > ty1 else 0
            if new_g >= G_LIMIT:
                raise g_overflow_error(new_g)
            f = new_g + (dx + dy) * step
            if bound and succ not in near:
                f += bound
            push(frontier, (f << F_SHIFT) | (new_g << G_SHIFT) | succ)

    if goal < 0:
        return 0, expansions, flood_visits, None
    if not bound:
        return goal_cost, expansions, flood_visits, backtrack(parent, goal)
    indices = min_key_backtrack(
        best, stamp, gen, goal, occ, nbrs, plane, cost_rows, net_id,
        base_penalty, penalties_get, bbox, step,
    )
    return goal_cost, expansions, flood_visits, indices


def lee_search(
    grid,
    net_id: int,
    source_indices,  # ordered, validated flat node ids
    target_idx,  # set of goal indices
    planes,
    gen: int,
) -> Optional[List[int]]:
    """Reference Lee wavefront (see the module docstring for the contract)."""
    from repro.maze.arena import neighbor_table

    width, height = grid.width, grid.height
    occ = grid.occ_flat()
    nbrs = neighbor_table(width, height)
    _best, parent, stamp = planes.lists()

    frontier: deque = deque()
    goal = -1
    for index in source_indices:
        if stamp[index] != gen:
            stamp[index] = gen
            parent[index] = -1
            if index in target_idx:
                goal = index
                break
            frontier.append(index)

    while frontier and goal < 0:
        index = frontier.popleft()
        for succ, _axis, _sx, _sy in nbrs[index]:
            if stamp[succ] == gen:
                continue
            owner = occ[succ]
            if owner != FREE and owner != net_id:
                continue
            stamp[succ] = gen
            parent[succ] = index
            if succ in target_idx:
                goal = succ
                frontier.clear()
                break
            frontier.append(succ)

    if goal < 0:
        return None
    return backtrack(parent, goal)
