"""Shared infrastructure for channel routers.

Channel algorithms think in *tracks* and *columns*; the grid thinks in rows
and layers.  This module is the bridge: algorithms emit abstract
:class:`HWire`/:class:`VWire` lists, and :func:`realize_wires` lowers them
onto the common grid with :func:`lay_wires` (which the greedy switchbox
router shares; it adds a via wherever one net holds both layers of a cell)
and verifies the result, so every baseline is judged by the same rules as
the main router.

Track convention: tracks are numbered ``1..T`` top-down; track ``t`` lives
on grid row ``T + 1 - t`` (row 0 is the bottom pin row, row ``T+1`` the top
pin row).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import channel_tracks_used
from repro.analysis.verify import VerificationReport, verify_routing
from repro.geometry.point import Point
from repro.grid.layers import Layer
from repro.grid.path import GridPath, straight_path
from repro.grid.routing_grid import GridError, RoutingGrid
from repro.netlist.channel import ChannelSpec
from repro.netlist.problem import RoutingProblem


@dataclass(frozen=True)
class HWire:
    """A trunk: net ``net`` on track ``track``, columns ``x0..x1`` inclusive."""

    net: int
    track: int
    x0: int
    x1: int

    def __post_init__(self) -> None:
        if self.x0 > self.x1:
            raise ValueError(f"bad trunk extent {self.x0}..{self.x1}")
        if self.track < 1:
            raise ValueError(f"bad track {self.track}")


@dataclass(frozen=True)
class VWire:
    """A branch: net ``net`` in column ``x``, grid rows ``y0..y1`` inclusive."""

    net: int
    x: int
    y0: int
    y1: int

    def __post_init__(self) -> None:
        if self.y0 > self.y1:
            raise ValueError(f"bad branch extent {self.y0}..{self.y1}")


def track_row(tracks: int, track: int) -> int:
    """Grid row of track ``track`` (1 = topmost) in a ``tracks``-track channel."""
    if not 1 <= track <= tracks:
        raise ValueError(f"track {track} outside 1..{tracks}")
    return tracks + 1 - track


@dataclass
class ChannelResult:
    """Outcome of one channel-routing attempt at a fixed track count."""

    spec: ChannelSpec
    tracks: int
    success: bool
    router: str = ""
    reason: str = ""
    problem: Optional[RoutingProblem] = None
    grid: Optional[RoutingGrid] = None
    verification: Optional[VerificationReport] = None
    tracks_used: int = 0
    extension_columns: int = 0
    detail: Dict[str, object] = field(default_factory=dict)

    def summary(self) -> str:
        """One-line outcome for reports."""
        verdict = "OK" if self.success else f"FAIL ({self.reason})"
        extension = (
            f", +{self.extension_columns} cols" if self.extension_columns else ""
        )
        return (
            f"{self.router} on {self.spec.name}: {verdict} at "
            f"{self.tracks} tracks (used {self.tracks_used}{extension})"
        )


def lay_wires(
    problem: RoutingProblem,
    trunks: Sequence[Tuple[int, int, int, int]],
    branches: Sequence[Tuple[int, int, int, int]],
) -> Tuple[RoutingGrid, str]:
    """Build ``problem``'s grid and lay the wires of a baseline on it.

    Trunks ``(net_id, row, x0, x1)`` go on the horizontal layer and
    branches ``(net_id, x, y0, y1)`` on the vertical one, in list order.
    Then a via goes wherever one net holds both layers of a cell, pins
    included.  Returns ``(grid, "")``, or at the first collision the grid
    as laid so far, without vias, and its ``illegal geometry: ...``
    reason: an algorithm that emits illegal geometry never gets credit.
    """
    grid = problem.build_grid()
    try:
        for net_id, row, x0, x1 in trunks:
            grid.commit_path(
                net_id,
                straight_path(
                    Point(x0, row), Point(x1, row), Layer.HORIZONTAL
                ),
            )
        for net_id, x, y0, y1 in branches:
            grid.commit_path(
                net_id,
                straight_path(Point(x, y0), Point(x, y1), Layer.VERTICAL),
            )
    except GridError as exc:
        return grid, f"illegal geometry: {exc}"
    horizontal, vertical = grid.occupancy()
    both = (horizontal > 0) & (horizontal == vertical)
    for y, x in np.argwhere(both).tolist():
        # Both nodes already belong to the net, so no via commit can fail.
        grid.commit_path(
            int(horizontal[y, x]), GridPath([(x, y, 0), (x, y, 1)])
        )
    return grid, ""


def realize_wires(
    spec: ChannelSpec,
    tracks: int,
    hwires: List[HWire],
    vwires: List[VWire],
    router: str,
) -> ChannelResult:
    """Lay abstract wires on the channel's grid (:func:`lay_wires`) and
    verify them; illegal geometry is a failed result."""
    problem = spec.to_problem(tracks)
    ids = problem.net_ids()

    def net_id(net_number: int) -> int:
        return ids[spec.net_name(net_number)]

    grid, reason = lay_wires(
        problem,
        [
            (net_id(w.net), track_row(tracks, w.track), w.x0, w.x1)
            for w in hwires
        ],
        [(net_id(w.net), w.x, w.y0, w.y1) for w in vwires],
    )
    if reason:
        return ChannelResult(
            spec=spec,
            tracks=tracks,
            success=False,
            router=router,
            reason=reason,
            problem=problem,
            grid=grid,
        )
    report = verify_routing(problem, grid)
    return ChannelResult(
        spec=spec,
        tracks=tracks,
        success=report.ok,
        router=router,
        reason="" if report.ok else report.summary(),
        problem=problem,
        grid=grid,
        verification=report,
        tracks_used=channel_tracks_used(problem, grid),
    )


class ChannelRouter(abc.ABC):
    """Common interface of all channel routers."""

    name: str = "channel-router"

    @abc.abstractmethod
    def route(self, spec: ChannelSpec, tracks: int) -> ChannelResult:
        """Attempt to route ``spec`` using at most ``tracks`` tracks."""

    def route_min_tracks(
        self, spec: ChannelSpec, max_extra: int = 12
    ) -> ChannelResult:
        """Smallest track count (starting at density) this router completes.

        Returns the first successful result, or the last failure when even
        ``density + max_extra`` tracks do not suffice.
        """
        start = max(1, spec.density)
        result: Optional[ChannelResult] = None
        for tracks in range(start, start + max_extra + 1):
            result = self.route(spec, tracks)
            if result.success:
                return result
        assert result is not None
        return result


def trunk_span_wires(
    spec: ChannelSpec, tracks: int, assignment: Dict[int, int]
) -> Tuple[List[HWire], List[VWire]]:
    """Wires for the single-trunk-per-net style (left-edge family).

    ``assignment`` maps net number -> track for every net that needs a
    trunk.  Branches drop straight from each pin to the trunk;
    straight-through nets become full-height verticals.
    """
    spans = spec.spans()
    hwires: List[HWire] = []
    vwires: List[VWire] = []
    top_row = tracks + 1
    for net, (lo, hi) in sorted(spans.items()):
        pins = spec.pins_of(net)
        if len(pins) < 2:
            continue
        if lo == hi:
            # Straight-through net: top and bottom pin in one column.
            vwires.append(VWire(net, lo, 0, top_row))
            continue
        row = track_row(tracks, assignment[net])
        hwires.append(HWire(net, assignment[net], lo, hi))
        for column, shore in pins:
            if shore == "T":
                vwires.append(VWire(net, column, row, top_row))
            else:
                vwires.append(VWire(net, column, 0, row))
    return hwires, vwires
