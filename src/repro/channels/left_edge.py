"""The constrained left-edge channel router (Hashimoto & Stevens, 1971).

Tracks are filled top-down; within a track, unplaced nets are scanned in
left-edge order and placed when (a) their interval does not overlap anything
already in the track and (b) every net that must lie *above* them (vertical
constraint predecessors) is already placed in a strictly higher track.

Properties reproduced from the literature:

* with no vertical constraints the router achieves exactly channel density;
* a vertical-constraint *cycle* makes it fail outright — the classic
  motivation for doglegs and, ultimately, for rip-up routers.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Set, Tuple

from repro.channels.base import (
    ChannelResult,
    ChannelRouter,
    realize_wires,
    trunk_span_wires,
)
from repro.netlist.channel import ChannelSpec


def pack_left_edge(
    items: List[Hashable],
    span: Callable[[Hashable], Tuple[int, int]],
    above: Dict[Hashable, Set[Hashable]],
) -> Tuple[Optional[Dict[Hashable, int]], int]:
    """Constrained left-edge packing of intervals onto tracks.

    ``items`` come in left-edge order and ``span(item)`` is an item's
    ``(lo, hi)`` column interval.  Tracks are filled top-down: a track
    takes, in order, every waiting item that overlaps nothing already on
    it and whose ``above[item]`` all lie on strictly higher tracks.
    Returns ``(assignment, tracks)``, item -> track with track 1 on top,
    or ``(None, tracks filled)`` when a track takes nothing: the waiting
    items close a vertical-constraint cycle.  No items pack to
    ``({}, 0)``.
    """
    assignment: Dict[Hashable, int] = {}
    waiting = items
    track = 0
    while waiting:
        track += 1
        last_hi = -1
        left = []
        for item in waiting:
            lo, hi = span(item)
            if lo > last_hi and all(
                assignment.get(pred, track) < track for pred in above[item]
            ):
                assignment[item] = track
                last_hi = hi
            else:
                left.append(item)
        if len(left) == len(waiting):
            return None, track - 1
        waiting = left
    return assignment, track


def assign_tracks_left_edge(
    spec: ChannelSpec,
) -> Tuple[Optional[Dict[int, int]], int, str]:
    """Constrained left-edge track assignment.

    Returns ``(assignment, tracks_needed, reason)``; ``assignment`` is
    ``None`` on failure (vertical-constraint cycle).
    """
    spans = spec.spans()
    trunk_nets = sorted(
        (net for net, (lo, hi) in spans.items() if lo < hi),
        key=lambda net: (spans[net][0], spans[net][1], net),
    )
    above: Dict[int, Set[int]] = {net: set() for net in trunk_nets}
    for upper, lower in spec.vcg_edges():
        if upper in above and lower in above:
            above[lower].add(upper)
    assignment, tracks = pack_left_edge(trunk_nets, spans.__getitem__, above)
    if assignment is None:
        return None, tracks, "vertical constraint cycle"
    return assignment, tracks, ""


class LeftEdgeRouter(ChannelRouter):
    """Constrained left-edge algorithm with straight (dogleg-free) trunks.

    The dogleg router runs the same steps over subnets: it swaps in its
    own ``_assign``, ``_wires`` and ``_detail``.
    """

    name = "left-edge"
    _assign = staticmethod(assign_tracks_left_edge)
    _wires = staticmethod(trunk_span_wires)

    @staticmethod
    def _detail(assignment: Dict[int, int], needed: int) -> Dict[str, object]:
        return {"assignment": assignment, "tracks_needed": needed}

    def route(self, spec: ChannelSpec, tracks: int) -> ChannelResult:
        """Assign tracks, then lay and verify the wires at ``tracks``."""
        assignment, needed, reason = self._assign(spec)
        if assignment is not None and needed > tracks:
            reason = f"needs {needed} tracks"
        if reason:
            return ChannelResult(
                spec=spec,
                tracks=tracks,
                success=False,
                router=self.name,
                reason=reason,
            )
        hwires, vwires = self._wires(spec, tracks, assignment)
        result = realize_wires(spec, tracks, hwires, vwires, self.name)
        result.detail.update(self._detail(assignment, needed))
        return result
