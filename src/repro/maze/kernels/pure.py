"""The reference pure-python search kernels.

These are the original inner loops of :mod:`repro.maze.astar` and
:mod:`repro.maze.lee`, plus the A* search's target-side flood — every
other backend is defined as "bit-identical to this one".  The wrappers own validation and result
shaping; the kernels see only well-formed queries and speak flat node
indices.

Kernel contract (shared by every backend module):

``astar_search(grid, net_id, sources, target_idx, seeds, bbox, model,
allow_conflicts, frozen_nets, net_penalties, planes, gen)``
    ``sources`` is an ordered list of ``(index, h)`` pairs — flat node id
    plus its precomputed heuristic — already validated and cost-0.
    ``target_idx`` is the set of goal indices, ``bbox`` the inclusive
    target bounding box ``(tx0, tx1, ty0, ty1)``.  ``planes`` are the
    arena scratch planes for this grid shape with ``gen`` the fresh
    generation stamp.  ``seeds`` is empty, or the distinct targets in
    ascending order when the caller has checked that a target-side
    flood may prove "no path": the search is hard, every source and
    target is copper of ``net_id``, no source is a target, and there are
    at most :data:`FLOOD_CAP` targets.  The kernel then first floods
    from the seeds (:func:`flood_closes`); when the flood closes, it
    returns no path with zero expansions.  Otherwise, and whenever
    ``seeds`` is empty, A* runs as if no flood had happened: the flood
    writes none of the planes.  Returns ``(goal_cost, expansions,
    flood_visits, indices)`` where ``indices`` is the source→goal
    flat-index path or ``None``, ``expansions`` counts A* pops and
    ``flood_visits`` the nodes the flood popped.  A* runs until it
    reaches a target or its frontier drains, so ``None`` is always a
    proof that no path exists.  Raises :class:`ValueError` when a
    relaxed cost overflows the packed heap-key g field.

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

#: The most targets a hard search floods from, and the most free cells
#: that flood may enter before it gives up and leaves the answer to A*.
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


def flood_closes(occ, nbrs, net_id: int, seeds, cap: int) -> Tuple[bool, int]:
    """Flood from ``seeds`` over free cells; ``(closed, visits)``.

    The flood enters free cells in breadth-first order, the seeds first
    and each node's moves in neighbour-table order.  It gives up when it
    would enter a free cell past the ``cap``-th, or when it touches
    copper of ``net_id`` that is not a seed; other cells are walls.
    ``closed`` is True when the queue drains first.  ``visits`` counts
    the nodes popped, the one that gave up included.

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
                    return False, head
                seen.add(succ)
                queue.append(succ)
            elif owner == net_id:
                return False, head
    return True, head


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
    flood_visits = 0
    if seeds:
        closed, flood_visits = flood_closes(
            occ, nbrs, net_id, seeds, FLOOD_CAP
        )
        if closed:
            return 0, 0, flood_visits, None
    best, parent, stamp = planes.best, planes.parent, planes.stamp

    step = model.step_cost
    cost_rows = model.axis_cost_table
    row0, row1 = cost_rows[0], cost_rows[1]
    base_penalty = model.conflict_penalty
    penalties_get = net_penalties.get
    frozen = frozen_nets
    push, pop = heappush, heappop
    frontier: List[int] = []

    for index, h in sources:
        if stamp[index] != gen or best[index] > 0:
            stamp[index] = gen
            best[index] = 0
            parent[index] = -1
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
            push(
                frontier,
                ((new_g + (dx + dy) * step) << F_SHIFT)
                | (new_g << G_SHIFT)
                | succ,
            )

    if goal < 0:
        return 0, expansions, flood_visits, None
    return goal_cost, expansions, flood_visits, backtrack(parent, goal)


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
    parent, stamp = planes.parent, planes.stamp

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
