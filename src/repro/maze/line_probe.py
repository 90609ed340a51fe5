"""Hightower's line-probe ("escape line") search (DAW 1969).

The historical alternative to Lee's wavefront: instead of flooding the grid,
probe with maximal horizontal/vertical *escape lines* from both terminals
and connect when a source line crosses a target line.  Memory is O(lines)
rather than O(cells) — the property that made it attractive on 1969
hardware — but, famously, the algorithm is **incomplete**: it can miss
existing paths (escape-point selection is heuristic).  Both properties are
reproduced and tested here.

The implementation is single-layer, like the original printed-wiring-board
setting: it searches a boolean passability mask.  The two-layer routers in
this library use the A* searcher; line probe is provided as the historical
baseline and for single-layer experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.geometry.point import Point

Cell = Tuple[int, int]


@dataclass(frozen=True)
class _Line:
    """A maximal passable straight run through an origin cell."""

    origin: Cell
    horizontal: bool
    lo: int  # inclusive start of the run (x for horizontal, y for vertical)
    hi: int  # inclusive end

    def cells(self) -> List[Cell]:
        x, y = self.origin
        if self.horizontal:
            return [(c, y) for c in range(self.lo, self.hi + 1)]
        return [(x, c) for c in range(self.lo, self.hi + 1)]

    def contains(self, cell: Cell) -> bool:
        x, y = self.origin
        cx, cy = cell
        if self.horizontal:
            return cy == y and self.lo <= cx <= self.hi
        return cx == x and self.lo <= cy <= self.hi


def _maximal_line(
    passable: np.ndarray, origin: Cell, horizontal: bool
) -> _Line:
    height, width = passable.shape
    x, y = origin
    if horizontal:
        lo = x
        while lo - 1 >= 0 and passable[y, lo - 1]:
            lo -= 1
        hi = x
        while hi + 1 < width and passable[y, hi + 1]:
            hi += 1
    else:
        lo = y
        while lo - 1 >= 0 and passable[lo - 1, x]:
            lo -= 1
        hi = y
        while hi + 1 < height and passable[hi + 1, x]:
            hi += 1
    return _Line(origin=origin, horizontal=horizontal, lo=lo, hi=hi)


def _escape_points(line: _Line) -> List[Cell]:
    """Heuristic escape points: the run's endpoints and its midpoint.

    This is the standard textbook simplification of Hightower's
    escape-point rules; it preserves the algorithm's character (fast, low
    memory, *incomplete*).
    """
    cells = line.cells()
    picks = {cells[0], cells[-1], cells[len(cells) // 2]}
    return sorted(picks)


def line_probe(
    passable: np.ndarray,
    start: Point,
    goal: Point,
    max_lines: int = 2000,
) -> Optional[List[Point]]:
    """Search ``passable`` (shape ``(height, width)``, True = routable).

    Returns the corner points of a rectilinear path from ``start`` to
    ``goal`` (both included), or ``None`` — which, for line probe, does
    *not* prove no path exists.
    """
    height, width = passable.shape
    for point in (start, goal):
        if not (0 <= point.x < width and 0 <= point.y < height):
            raise ValueError(f"{point!r} outside the {width}x{height} mask")
        if not passable[point.y, point.x]:
            raise ValueError(f"{point!r} is not passable")

    start_cell, goal_cell = (start.x, start.y), (goal.x, goal.y)
    if start_cell == goal_cell:
        return [Point(*start_cell)]
    parents: Dict[int, Dict[Cell, Optional[Cell]]] = {0: {}, 1: {}}
    probed: Dict[int, Set[Tuple[Cell, bool]]] = {0: set(), 1: set()}
    lines: Dict[int, List[_Line]] = {0: [], 1: []}
    frontier: Dict[int, List[Cell]] = {0: [start_cell], 1: [goal_cell]}
    parents[0][start_cell] = None
    parents[1][goal_cell] = None
    drawn = 0

    while (frontier[0] or frontier[1]) and drawn < max_lines:
        for side in (0, 1):
            if not frontier[side]:
                continue
            origin = frontier[side].pop(0)
            for horizontal in (True, False):
                key = (origin, horizontal)
                if key in probed[side]:
                    continue
                probed[side].add(key)
                line = _maximal_line(passable, origin, horizontal)
                drawn += 1
                # Crossing test against the other side's lines.
                for other in lines[1 - side]:
                    crossing = _crossing(line, other)
                    if crossing is not None:
                        return _stitch(
                            side, origin, crossing, other.origin,
                            parents, start_cell, goal_cell,
                        )
                lines[side].append(line)
                for escape in _escape_points(line):
                    if escape not in parents[side]:
                        parents[side][escape] = origin
                        frontier[side].append(escape)
    return None


def _crossing(a: _Line, b: _Line) -> Optional[Cell]:
    """Cell where two lines meet, or None."""
    if a.horizontal == b.horizontal:
        # Collinear overlap: share any cell?
        if a.horizontal and a.origin[1] == b.origin[1]:
            lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
            if lo <= hi:
                return (lo, a.origin[1])
        if not a.horizontal and a.origin[0] == b.origin[0]:
            lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
            if lo <= hi:
                return (a.origin[0], lo)
        return None
    h, v = (a, b) if a.horizontal else (b, a)
    cell = (v.origin[0], h.origin[1])
    if h.contains(cell) and v.contains(cell):
        return cell
    return None


def _stitch(
    side: int,
    origin: Cell,
    crossing: Cell,
    other_origin: Cell,
    parents: Dict[int, Dict[Cell, Optional[Cell]]],
    start_cell: Cell,
    goal_cell: Cell,
) -> List[Point]:
    """Assemble corner lists from both parent chains through the crossing."""

    def chain(side_id: int, from_cell: Cell) -> List[Cell]:
        result = [from_cell]
        while parents[side_id][result[-1]] is not None:
            result.append(parents[side_id][result[-1]])
        return result

    this_side = chain(side, origin)  # origin .. start/goal of `side`
    other_side = chain(1 - side, other_origin)
    forward = list(reversed(this_side)) + [crossing] + other_side
    if side == 1:
        forward.reverse()
    # De-duplicate consecutive repeats.
    corners: List[Point] = []
    for cell in forward:
        point = Point(*cell)
        if not corners or corners[-1] != point:
            corners.append(point)
    assert corners[0] == Point(*start_cell)
    assert corners[-1] == Point(*goal_cell)
    return corners

