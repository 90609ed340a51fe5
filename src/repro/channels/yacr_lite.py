"""YACR-lite: track assignment + maze-routed branches (after YACR-II).

YACR-II's key idea (Reed, Sangiovanni-Vincentelli & Santomauro, 1985) is to
assign trunks to tracks *tolerating* vertical-constraint violations, then
repair the violating columns with maze routing.  YACR-lite reproduces that
structure directly on the shared grid:

1. assign each net's trunk to a track, greedily minimising the number of
   vertical constraints the placement violates;
2. commit the trunks to the grid;
3. route every pin-to-trunk branch with the A* maze searcher — a violated
   column simply comes out as a small dogleg instead of a straight drop.

When a branch cannot be routed the attempt fails and the caller retries
with one more track, so the router's figure of merit is directly comparable
with the published YACR-II track counts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.metrics import channel_tracks_used
from repro.analysis.verify import verify_routing
from repro.channels.base import ChannelResult, ChannelRouter, track_row
from repro.geometry.point import Point
from repro.grid.layers import Layer
from repro.grid.path import flat_id, straight_path
from repro.grid.routing_grid import GridError
from repro.maze.astar import find_path_flat
from repro.netlist.channel import ChannelSpec

#: Branch-order restarts after the first attempt.
MAX_RESTARTS = 6


def assign_tracks_tolerant(
    spec: ChannelSpec, tracks: int
) -> Optional[Dict[int, int]]:
    """Interval packing that tolerates (but counts) VCG violations.

    Nets are processed in left-edge order; each picks, among the tracks
    whose current intervals it does not overlap, the one violating the
    fewest vertical constraints against already-placed nets (ties go to the
    track suggested by the net's VCG depth).  Returns ``None`` when some net
    fits no track at all.
    """
    spans = spec.spans()
    trunk_nets = sorted(
        (net for net, (lo, hi) in spans.items() if lo < hi),
        key=lambda net: (spans[net][0], spans[net][1], net),
    )
    edges = spec.vcg_edges()
    above: Dict[int, List[int]] = {}
    below: Dict[int, List[int]] = {}
    for upper, lower in edges:
        above.setdefault(lower, []).append(upper)
        below.setdefault(upper, []).append(lower)

    occupancy: List[List[Tuple[int, int, int]]] = [
        [] for _ in range(tracks + 1)
    ]  # per track: (lo, hi, net)
    assignment: Dict[int, int] = {}
    for net in trunk_nets:
        lo, hi = spans[net]
        best: Optional[Tuple[int, int, int]] = None  # (violations, bias, track)
        for track in range(1, tracks + 1):
            if any(
                not (hi < other_lo or lo > other_hi)
                for other_lo, other_hi, _ in occupancy[track]
            ):
                continue
            violations = 0
            for upper in above.get(net, []):
                if upper in assignment and assignment[upper] >= track:
                    violations += 1
            for lower in below.get(net, []):
                if lower in assignment and assignment[lower] <= track:
                    violations += 1
            bias = abs(track - _ideal_track(net, above, below, tracks))
            key = (violations, bias, track)
            if best is None or key < best:
                best = key
        if best is None:
            return None
        track = best[2]
        occupancy[track].append((lo, hi, net))
        assignment[net] = track
    return assignment


def _ideal_track(
    net: int,
    above: Dict[int, List[int]],
    below: Dict[int, List[int]],
    tracks: int,
) -> int:
    """Crude VCG-depth placement hint: more ancestors -> lower track."""
    pressure_up = len(above.get(net, []))
    pressure_down = len(below.get(net, []))
    total = pressure_up + pressure_down
    if total == 0:
        return (tracks + 1) // 2
    fraction = (pressure_up + 0.5) / (total + 1)
    return max(1, min(tracks, round(fraction * tracks)))


class YacrLiteRouter(ChannelRouter):
    """Track assignment + maze-routed branches."""

    name = "yacr-lite"

    def route(self, spec: ChannelSpec, tracks: int) -> ChannelResult:
        """Route with up to ``MAX_RESTARTS`` branch-order retries.

        A maze-routed branch can be walled in by branches routed before it;
        when that happens the whole attempt is restarted with the blocked
        branch promoted to the front of the order — the standard cheap
        alternative to rip-up for a baseline without modification.
        """
        assignment = assign_tracks_tolerant(spec, tracks)
        if assignment is None:
            return ChannelResult(
                spec=spec,
                tracks=tracks,
                success=False,
                router=self.name,
                reason="no track packing",
            )
        priority: List[Tuple[int, int, str]] = []
        result = None
        for _ in range(1 + MAX_RESTARTS):
            result = self._route_once(spec, tracks, assignment, priority)
            if result.success or "blocked" not in result.reason:
                return result
            blocked = result.detail.get("blocked_branch")
            if blocked is None or blocked in priority:
                return result
            priority.insert(0, blocked)
        return result

    def _route_once(
        self,
        spec: ChannelSpec,
        tracks: int,
        assignment: Dict[int, int],
        priority: List[Tuple[int, int, str]],
    ) -> ChannelResult:
        problem = spec.to_problem(tracks)
        grid = problem.build_grid()
        ids = problem.net_ids()
        spans = spec.spans()

        # Commit the trunks.
        for net, track in sorted(assignment.items()):
            lo, hi = spans[net]
            row = track_row(tracks, track)
            grid.commit_path(
                ids[spec.net_name(net)],
                straight_path(Point(lo, row), Point(hi, row), Layer.HORIZONTAL),
            )

        # Maze-route every branch, column by column.
        branches: List[Tuple[int, int, str]] = []  # (column, net, shore)
        for net in spec.net_numbers():
            pins = spec.pins_of(net)
            if len(pins) < 2:
                continue
            for column, shore in pins:
                branches.append((column, net, shore))
        branches.sort()
        for promoted in reversed(priority):
            if promoted in branches:
                branches.remove(promoted)
                branches.insert(0, promoted)

        # Reserve every pin's exit cell first: maze-routed branches are free
        # to wander through any column, so without the stubs an early branch
        # can park on top of a later pin's only way out of the shore row.
        from repro.grid.path import GridPath

        for column, net, shore in branches:
            net_id = ids[spec.net_name(net)]
            pin_row = tracks + 1 if shore == "T" else 0
            exit_row = pin_row - 1 if shore == "T" else 1
            stub = GridPath(
                [(column, pin_row, 1), (column, exit_row, 1)]
            )
            try:
                grid.commit_path(net_id, stub)
            except GridError:
                return ChannelResult(
                    spec=spec,
                    tracks=tracks,
                    success=False,
                    router=self.name,
                    reason=f"pin exit contention at column {column}",
                    problem=problem,
                    grid=grid,
                )
        occ = np.frombuffer(grid.occ_flat(), dtype=np.intc)
        for column, net, shore in branches:
            net_id = ids[spec.net_name(net)]
            pin_row = tracks + 1 if shore == "T" else 0
            pin = flat_id(
                (column, pin_row, int(Layer.VERTICAL)), grid.width, grid.height
            )
            sources = grid.component_ids(net_id, pin)
            other = occ == net_id
            other[sources] = False
            targets = np.flatnonzero(other).tolist()
            if not targets:
                continue  # single-component already (e.g. both pins joined)
            result = find_path_flat(grid, net_id, sources, targets)
            if not result.found:
                return ChannelResult(
                    spec=spec,
                    tracks=tracks,
                    success=False,
                    router=self.name,
                    reason=f"branch blocked at column {column} (net {net})",
                    problem=problem,
                    grid=grid,
                    detail={"blocked_branch": (column, net, shore)},
                )
            grid.commit_path(net_id, result.path)

        report = verify_routing(problem, grid)
        return ChannelResult(
            spec=spec,
            tracks=tracks,
            success=report.ok,
            router=self.name,
            reason="" if report.ok else report.summary(),
            problem=problem,
            grid=grid,
            verification=report,
            tracks_used=channel_tracks_used(problem, grid),
            detail={"assignment": assignment},
        )
