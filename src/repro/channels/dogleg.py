"""Deutsch's dogleg channel router (DAC 1976).

Each multi-terminal net is split at its interior terminals into two-terminal
*subnets*; subnets get independent tracks, joined by vertical doglegs at the
shared terminal columns.  This breaks vertical-constraint cycles (a cycle
between whole nets need not be a cycle between their subnets) and typically
routes below the track count plain left-edge needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.channels.base import HWire, VWire, track_row
from repro.channels.left_edge import LeftEdgeRouter, pack_left_edge
from repro.netlist.channel import ChannelSpec


@dataclass(frozen=True)
class Subnet:
    """A two-terminal piece of a net between consecutive pin columns."""

    net: int
    index: int
    lo: int
    hi: int


def split_into_subnets(spec: ChannelSpec) -> List[Subnet]:
    """Split every net at its interior terminals (classic dogleg split).

    Consecutive distinct pin columns pair up, so ``lo < hi`` always.
    """
    subnets: List[Subnet] = []
    for net in spec.net_numbers():
        columns = sorted({column for column, _ in spec.pins_of(net)})
        for index in range(len(columns) - 1):
            subnets.append(
                Subnet(net, index, columns[index], columns[index + 1])
            )
    return subnets


def _subnet_vcg(
    spec: ChannelSpec, subnets: List[Subnet]
) -> Dict[Subnet, Set[Subnet]]:
    """``above[s]`` = subnets that must be strictly above ``s``.

    At a column whose top pin is net *a* and bottom pin net *b*, every
    subnet of *a* incident to the column must run above every incident
    subnet of *b* — this keeps all the dogleg verticals in the column
    disjoint.
    """
    incident: Dict[Tuple[int, int], List[Subnet]] = {}
    for subnet in subnets:
        incident.setdefault((subnet.net, subnet.lo), []).append(subnet)
        incident.setdefault((subnet.net, subnet.hi), []).append(subnet)
    above: Dict[Subnet, Set[Subnet]] = {subnet: set() for subnet in subnets}
    for column, (top, bottom) in enumerate(zip(spec.top, spec.bottom)):
        if top <= 0 or bottom <= 0 or top == bottom:
            continue
        for upper in incident.get((top, column), []):
            for lower in incident.get((bottom, column), []):
                above[lower].add(upper)
    return above


def assign_tracks_dogleg(
    spec: ChannelSpec,
) -> Tuple[Optional[Dict[Subnet, int]], int, str]:
    """Left-edge track assignment over subnets."""
    subnets = split_into_subnets(spec)
    assignment, tracks = pack_left_edge(
        sorted(subnets, key=lambda s: (s.lo, s.hi, s.net, s.index)),
        lambda s: (s.lo, s.hi),
        _subnet_vcg(spec, subnets),
    )
    if assignment is None:
        return None, tracks, "subnet vertical constraint cycle"
    return assignment, tracks, ""


def dogleg_wires(
    spec: ChannelSpec, tracks: int, assignment: Dict[Subnet, int]
) -> Tuple[List[HWire], List[VWire]]:
    """Trunks per subnet plus one joining vertical per (net, pin column)."""
    top_row = tracks + 1
    hwires = [
        HWire(subnet.net, track, subnet.lo, subnet.hi)
        for subnet, track in sorted(
            assignment.items(), key=lambda kv: (kv[0].net, kv[0].index)
        )
    ]
    # Rows each net must join in each of its pin columns.
    join_rows: Dict[Tuple[int, int], List[int]] = {}
    for subnet, track in assignment.items():
        row = track_row(tracks, track)
        join_rows.setdefault((subnet.net, subnet.lo), []).append(row)
        join_rows.setdefault((subnet.net, subnet.hi), []).append(row)
    for net in spec.net_numbers():
        for column, shore in spec.pins_of(net):
            join_rows.setdefault((net, column), []).append(
                top_row if shore == "T" else 0
            )
    vwires: List[VWire] = []
    for (net, column), rows in sorted(join_rows.items()):
        lo, hi = min(rows), max(rows)
        if lo == hi:
            continue  # a one-pin net: nothing to join
        vwires.append(VWire(net, column, lo, hi))
    return hwires, vwires


class DoglegRouter(LeftEdgeRouter):
    """Dogleg channel router: subnet splitting + left-edge assignment."""

    name = "dogleg"
    _assign = staticmethod(assign_tracks_dogleg)
    _wires = staticmethod(dogleg_wires)

    @staticmethod
    def _detail(
        assignment: Dict[Subnet, int], needed: int
    ) -> Dict[str, object]:
        return {"tracks_needed": needed, "subnets": len(assignment)}
