"""The reference pure-python search kernels.

These are the original inner loops of :mod:`repro.maze.astar` and
:mod:`repro.maze.lee`, plus the A* search's query setup (target box,
heuristics, whether to search back from the targets) and that backward
search — every other backend is defined as "bit-identical to this
one".  The wrappers own validation and result shaping; the kernels see
only well-formed queries and speak flat node indices.

Kernel contract (shared by every backend module):

``astar_search(grid, net_id, sources, targets, model, allow_conflicts,
frozen_nets, net_penalties, planes, gen)``
    ``sources`` and ``targets`` are the flat node ids exactly as the
    caller gave them, already validated (in range, every source free or
    owned by ``net_id``); repeats are allowed, and every source costs 0.
    ``model``'s move costs and ``net_penalties``' values are
    non-negative and below :data:`G_LIMIT`.  ``planes`` are the thread's
    scratch planes for this grid shape
    (:func:`~repro.maze.arena.thread_planes`) with ``gen`` the fresh
    generation stamp.  The kernel sets the query up itself: the goals
    are the distinct targets, the heuristic is the Manhattan distance to
    their inclusive bounding box, and a source's heuristic is computed
    where the source is pushed.  It runs :func:`backward_search` first,
    seeded with the distinct targets, when every source and target is
    copper of ``net_id``, no source is a target, and there are at most
    :data:`FLOOD_CAP` distinct targets.  When that search drains without
    settling a source, the search returns no path with zero expansions.
    Otherwise, when the smallest open key ``rest`` is positive, A* adds
    to the heuristic of every node its exact excess ``E`` where the
    backward search settled it, and ``rest`` elsewhere, and reads its
    path with :func:`min_key_backtrack`.  That returns the path, cost and
    goal of the search without the bound, in fewer or as many expansions
    (ALGORITHM.md §2).  Otherwise, and whenever no backward search runs,
    A* runs as if none had: that search writes none of the planes A*
    reads.  Returns ``(goal_cost, expansions, flood_visits, indices)``
    where ``indices`` is the source→goal flat-index path or ``None``,
    ``expansions`` counts A* pops and ``flood_visits`` the nodes the
    backward search settled.  A* runs until it reaches a target or its
    frontier drains, so ``None`` is always a proof that no path exists.
    Raises :class:`ValueError` when a relaxed cost overflows the packed
    heap-key g field; a kernel that marks scratch planes clears its
    marks on that exit too.

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

#: The most targets a search runs its backward search from.
FLOOD_CAP = 16

#: The most nodes the backward search settles before it stops and
#: leaves every node it has not settled its smallest open key.  Both
#: backends read this one value.
SETTLE_CAP = 32


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


def backward_search(
    occ, pin, nbrs, width: int, plane: int, rows, net_id: int, seeds,
    sources, allow_conflicts: bool, frozen, base_penalty: int,
    penalties_get, bbox: Tuple[int, int, int, int], cap: int,
) -> Tuple[dict, Optional[int], int]:
    """Dijkstra from ``seeds`` towards the sources on reduced costs.

    A move ``u → v`` costs what A* pays for it, and its reduced cost is
    that minus ``h(u) - h(v)``, never negative because the heuristic
    ``h`` is consistent.  So the search settles nodes in order of their
    exact excess ``E(u) = d(u) - h(u)``, where ``d(u)`` is the cheapest
    walk from ``u`` to a seed, by the ``(E, index)`` key.  It enters the
    cells A* may enter and relaxes every move into a node it settles.
    It stops after the node that makes ``cap`` settled nodes or the
    first settled source.  Returns ``(excess, rest, visits)``:
    ``excess`` maps every settled node to ``E``, ``visits`` counts them,
    and ``rest`` is the smallest key left open.  It is the last ``E``
    when no open key is left and a source was settled, and None when
    none is left and no source was: a proof that no source reaches a
    seed.  When a walk would cost ``G_LIMIT`` or more the search stops
    with ``({}, 0, visits)``, which leaves A* plain.
    """
    tx0, tx1, ty0, ty1 = bbox
    excess: dict = {}
    open_keys = dict.fromkeys(seeds, 0)
    heap = list(seeds)  # ascending ids with key 0: already a heap
    visits = 0
    reached = False
    e = 0
    while heap:
        entry = heappop(heap)
        index = entry & INDEX_MASK
        e = entry >> G_SHIFT
        if index in excess or open_keys[index] != e:
            continue  # stale entry
        excess[index] = e
        visits += 1
        owner = occ[index]
        if owner == FREE or owner == net_id:
            extra = 0
        else:
            extra = base_penalty + penalties_get(owner, 0)
        x = index % width
        y = index % plane // width
        dx = (tx0 - x) if x < tx0 else (x - tx1) if x > tx1 else 0
        dy = (ty0 - y) if y < ty0 else (y - ty1) if y > ty1 else 0
        reach = e + dx + dy + extra
        row = rows[0] if index < plane else rows[1]
        for pred, axis, px, py in nbrs[index]:
            if pred in excess:
                continue
            owner = occ[pred]
            if owner != FREE and owner != net_id and (
                owner == OBSTACLE or not allow_conflicts
                or owner in frozen or pin[pred] != 0
            ):
                continue
            d = reach + row[axis]
            if d >= G_LIMIT:
                return {}, 0, visits
            dx = (tx0 - px) if px < tx0 else (px - tx1) if px > tx1 else 0
            dy = (ty0 - py) if py < ty0 else (py - ty1) if py > ty1 else 0
            key = d - dx - dy
            if open_keys.get(pred, key + 1) <= key:
                continue
            open_keys[pred] = key
            heappush(heap, (key << G_SHIFT) | pred)
        if index in sources:
            reached = True
            break
        if visits == cap:
            break
    while heap:
        entry = heap[0]
        index = entry & INDEX_MASK
        if index not in excess and open_keys[index] == entry >> G_SHIFT:
            return excess, entry >> G_SHIFT, visits
        heappop(heap)
    return excess, (e if reached else None), visits


def min_key_backtrack(
    best, stamp, gen: int, goal: int, occ, nbrs, plane: int, rows,
    net_id: int, base_penalty: int, penalties_get,
    bbox: Tuple[int, int, int, int],
) -> List[int]:
    """Source→goal chain of a bounded search, as plain A* records it.

    From each node ``m`` the chain steps to the optimal predecessor
    ``p``, ``best[p] + cost(p→m) == best[m]``, with the smallest plain
    ``(f, g, index)`` key, until it reaches a source (``best`` 0).  A
    move costs the same from either end: a wire step stays on its
    layer, and a via costs ``via_cost`` on both, so ``cost(p→m)`` is
    ``m``'s row entry plus the extra cost of entering ``m``.  Every move
    costs at least 1, so plain A* pops keys in strictly increasing order
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
            key = ((g + dx + dy) << F_SHIFT) | (g << G_SHIFT) | pred
            if pick < 0 or key < pick_key:
                pick, pick_key = pred, key
        index = pick
        indices.append(index)
    indices.reverse()
    return indices


def astar_search(
    grid,
    net_id: int,
    sources,  # validated flat ids, repeats allowed
    targets,  # validated flat ids, repeats allowed
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

    occ = grid.occ_flat()
    pin = grid.pin_flat()
    nbrs = neighbor_table(width, height)
    base_penalty = model.conflict_penalty
    penalties_get = net_penalties.get
    frozen = frozen_nets
    cost_rows = model.axis_cost_table
    row0, row1 = cost_rows[0], cost_rows[1]

    target_idx = set(targets)
    tx0, ty0, tx1, ty1 = width, height, -1, -1
    for index in target_idx:
        x = index % width
        y = index % plane // width
        if x < tx0:
            tx0 = x
        if x > tx1:
            tx1 = x
        if y < ty0:
            ty0 = y
        if y > ty1:
            ty1 = y
    bbox = (tx0, tx1, ty0, ty1)

    flood_visits = 0
    # The backward search's exact excess of every node it settled, and
    # what every other node gets: a rest of 0 leaves A* plain.
    excess: dict = {}
    rest = 0
    if (
        len(target_idx) <= FLOOD_CAP
        and target_idx.isdisjoint(sources)
        and all(occ[index] == net_id for index in target_idx)
        and all(occ[index] == net_id for index in sources)
    ):
        excess, rest, flood_visits = backward_search(
            occ, pin, nbrs, width, plane, cost_rows, net_id,
            sorted(target_idx), set(sources), allow_conflicts, frozen,
            base_penalty, penalties_get, bbox, SETTLE_CAP,
        )
        if rest is None:
            return 0, 0, flood_visits, None
    bounded = rest > 0
    best, parent, stamp = planes.lists()

    push, pop = heappush, heappop
    frontier: List[int] = []

    for index in sources:
        if stamp[index] != gen or best[index] > 0:
            stamp[index] = gen
            best[index] = 0
            parent[index] = -1
            x = index % width
            y = index % plane // width
            dx = (tx0 - x) if x < tx0 else (x - tx1) if x > tx1 else 0
            dy = (ty0 - y) if y < ty0 else (y - ty1) if y > ty1 else 0
            h = dx + dy
            if bounded:
                h += excess.get(index, rest)
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
            f = new_g + dx + dy
            if bounded:
                f += excess.get(succ, rest)
            push(frontier, (f << F_SHIFT) | (new_g << G_SHIFT) | succ)

    if goal < 0:
        return 0, expansions, flood_visits, None
    if not bounded:
        return goal_cost, expansions, flood_visits, backtrack(parent, goal)
    indices = min_key_backtrack(
        best, stamp, gen, goal, occ, nbrs, plane, cost_rows, net_id,
        base_penalty, penalties_get, bbox,
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
