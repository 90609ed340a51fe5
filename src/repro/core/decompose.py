"""Net decomposition into two-point connections and spatial shards.

Mighty routes one two-point connection at a time.  A multi-pin net is broken
into ``pin_count - 1`` connections along a minimum spanning tree of the pin
positions (Manhattan metric).  At routing time each connection targets the
net's already-routed *component* rather than the bare pin, so later
connections reuse earlier copper — the standard incremental treatment of
multi-pin nets.

The second half of this module partitions one large :class:`RoutingProblem`
*spatially* into shards separated by cut lines, STAIRoute-style: cuts are
placed where the congestion estimate (net bounding-box crossings) is lowest,
each shard is grown by a halo so boundary-adjacent nets keep detour room, and
nets whose bounding box does not fit inside any single shard become *cross
nets* left for the sequential stitch pass.  Shards keep the parent's absolute
coordinates so their routed paths drop straight onto the parent grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.region import RectilinearRegion
from repro.grid.path import GridNode, GridPath
from repro.netlist.net import Net, Pin
from repro.netlist.problem import Obstacle, RoutingProblem


@dataclass(eq=False)
class Connection:
    """One two-point routing task (identity-hashed, mutable routing state).

    Attributes
    ----------
    net_name, net_id:
        Owning net.
    source_pin, target_pin:
        The MST edge endpoints.  During routing the actual sources/targets
        are the connected components containing these pins.
    path:
        Committed wiring; ``None`` when unrouted or when the endpoints were
        already connected through sibling connections.
    routed:
        Whether the connection is currently electrically satisfied.
    rips:
        How many times strong modification has ripped this connection.
    seq:
        Stable registration index assigned by the router.  Used as the
        final sort tie-break wherever connections are ordered, so routing
        decisions never depend on ``id()``-based set iteration order
        (which varies with the process's prior allocations).
    chain_depth:
        Depth of the rip chain that re-queued this connection (0 for a
        fresh connection); the router cuts chains beyond a configured
        depth to stop cascading destruction.
    """

    net_name: str
    net_id: int
    source_pin: Pin
    target_pin: Pin
    path: Optional[GridPath] = None
    routed: bool = False
    rips: int = 0
    seq: int = 0
    chain_depth: int = 0
    deferrals: int = 0

    @property
    def estimated_length(self) -> int:
        """Manhattan distance between the endpoint pins (ordering key)."""
        return abs(self.source_pin.x - self.target_pin.x) + abs(
            self.source_pin.y - self.target_pin.y
        )

    @property
    def source_node(self) -> GridNode:
        """Grid node of the source pin."""
        return self.source_pin.node

    @property
    def target_node(self) -> GridNode:
        """Grid node of the target pin."""
        return self.target_pin.node

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "routed" if self.routed else "open"
        return (
            f"Connection({self.net_name!r}, "
            f"({self.source_pin.x},{self.source_pin.y})->"
            f"({self.target_pin.x},{self.target_pin.y}), {status})"
        )


def decompose_net(net: Net, net_id: int) -> List[Connection]:
    """Break ``net`` into MST connections (empty for nets with < 2 pins).

    Uses Prim's algorithm on the Manhattan distances between pin cells;
    deterministic for a fixed pin order.
    """
    pins = list(net.pins)
    if len(pins) < 2:
        return []
    in_tree = [pins[0]]
    remaining = pins[1:]
    edges: List[Tuple[Pin, Pin]] = []
    while remaining:
        best: Optional[Tuple[int, Pin, Pin]] = None
        for anchor in in_tree:
            for candidate in remaining:
                dist = abs(anchor.x - candidate.x) + abs(anchor.y - candidate.y)
                if best is None or dist < best[0]:
                    best = (dist, anchor, candidate)
        assert best is not None
        _, anchor, candidate = best
        edges.append((anchor, candidate))
        in_tree.append(candidate)
        remaining.remove(candidate)
    return [
        Connection(
            net_name=net.name,
            net_id=net_id,
            source_pin=source,
            target_pin=target,
        )
        for source, target in edges
    ]


def decompose_problem(problem: RoutingProblem) -> List[Connection]:
    """All connections of a problem, in net order."""
    connections: List[Connection] = []
    for index, net in enumerate(problem.nets):
        connections.extend(decompose_net(net, index + 1))
    return connections


# ---------------------------------------------------------------------------
# Spatial partitioning (shard-and-stitch)
# ---------------------------------------------------------------------------

#: Default halo width, in cells, added on each side of a shard's core slab.
DEFAULT_HALO = 3

#: Minimum core span (along the cut axis) a shard may be squeezed to.
MIN_CORE_SPAN = 4


@dataclass(frozen=True)
class SpatialShard:
    """One slab of a spatial partition, in the parent's absolute coordinates.

    ``core`` is this shard's exclusive half-open interval along the cut
    axis; the cores of a plan tile the axis exactly.  ``halo`` is the core
    grown by the plan's halo width on each side (clipped to the grid), the
    area the shard is actually allowed to route in.  A cell sitting exactly
    on a cut ``c`` belongs to the *right/upper* shard's core (cores are
    half-open, ``[c, next_cut)``), but falls inside both neighbours' halos.
    """

    index: int
    axis: str  # "x" or "y"
    core: Tuple[int, int]
    halo: Tuple[int, int]
    net_names: Tuple[str, ...]

    def halo_rect(self, width: int, height: int) -> Rect:
        """The routable slab (core + halo) as a full-thickness rectangle."""
        if self.axis == "x":
            return Rect(self.halo[0], 0, self.halo[1], height)
        return Rect(0, self.halo[0], width, self.halo[1])


@dataclass(frozen=True)
class ShardPlan:
    """A complete spatial partition of one routing problem.

    ``cross_nets`` are routable nets whose pin bounding box fits in no
    single shard's halo; they carry no shard assignment and are routed by
    the sequential stitch pass on the full fabric.
    """

    axis: str
    cuts: Tuple[int, ...]
    halo_width: int
    shards: Tuple[SpatialShard, ...]
    cross_nets: Tuple[str, ...]

    @property
    def busy_shards(self) -> Tuple[SpatialShard, ...]:
        """Shards with at least one assigned net."""
        return tuple(s for s in self.shards if s.net_names)

    def shard_for_net(self, name: str) -> Optional[int]:
        """Index of the shard owning net ``name`` (None for cross nets)."""
        for shard in self.shards:
            if name in shard.net_names:
                return shard.index
        return None


def partition_axis(problem: RoutingProblem) -> str:
    """Cut across the longer extent, so slabs stay as square as possible."""
    return "x" if problem.width >= problem.height else "y"


def _net_spans(problem: RoutingProblem, axis: str) -> Dict[str, Tuple[int, int]]:
    """Inclusive pin-bbox interval of each net along ``axis``."""
    from repro.analysis.congestion import net_bounding_boxes

    spans: Dict[str, Tuple[int, int]] = {}
    for name, (x0, y0, x1, y1) in net_bounding_boxes(problem).items():
        spans[name] = (x0, x1) if axis == "x" else (y0, y1)
    return spans


def choose_cuts(
    problem: RoutingProblem,
    n_shards: int,
    axis: Optional[str] = None,
    spans: Optional[Dict[str, Tuple[int, int]]] = None,
) -> Optional[List[int]]:
    """Pick ``n_shards - 1`` monotone cut positions along ``axis``.

    STAIRoute-style congestion guidance: a cut at ``c`` separates cells
    ``< c`` from cells ``>= c`` and severs every net whose bounding box
    spans it, so each cut is slid within a window around its equal-area
    position to the coordinate crossed by the fewest net boxes (ties break
    toward the ideal position, then the lower coordinate — deterministic).
    Returns ``None`` when the extent cannot host ``n_shards`` cores of
    :data:`MIN_CORE_SPAN`.
    """
    axis = axis or partition_axis(problem)
    extent = problem.width if axis == "x" else problem.height
    if n_shards < 2 or extent < n_shards * MIN_CORE_SPAN:
        return None
    if spans is None:
        spans = _net_spans(problem, axis)
    crossings = [0] * (extent + 1)
    for lo, hi in spans.values():
        for c in range(lo + 1, hi + 1):
            crossings[c] += 1
    cuts: List[int] = []
    prev = 0
    for i in range(1, n_shards):
        ideal = round(i * extent / n_shards)
        window = max(1, extent // (4 * n_shards))
        lo_bound = prev + MIN_CORE_SPAN
        hi_bound = extent - (n_shards - i) * MIN_CORE_SPAN
        lo_c = max(lo_bound, ideal - window)
        hi_c = min(hi_bound, ideal + window)
        if lo_c > hi_c:
            lo_c, hi_c = lo_bound, hi_bound
            if lo_c > hi_c:
                return None
        best = min(
            range(lo_c, hi_c + 1),
            key=lambda c: (crossings[c], abs(c - ideal), c),
        )
        cuts.append(best)
        prev = best
    return cuts


def partition_problem(
    problem: RoutingProblem,
    n_shards: int,
    halo: int = DEFAULT_HALO,
    axis: Optional[str] = None,
) -> Optional[ShardPlan]:
    """Partition ``problem`` into shards, or ``None`` when sharding loses.

    A routable net is assigned to a shard when its pin bounding box fits
    entirely inside that shard's halo slab; when several qualify, the shard
    whose *core* contains the bbox centre wins (first candidate otherwise).
    Anything else is a cross net for the stitch pass.  The plan is rejected
    (``None``) when fewer than two shards get work or when cross nets are
    at least a third of the routable nets — at that point boundary repair
    dominates and whole-region routing is faster.
    """
    if halo < 1:
        raise ValueError(f"halo must be >= 1, got {halo}")
    axis = axis or partition_axis(problem)
    extent = problem.width if axis == "x" else problem.height
    spans = _net_spans(problem, axis)
    cuts = choose_cuts(problem, n_shards, axis=axis, spans=spans)
    if cuts is None:
        return None
    bounds = [0] + cuts + [extent]
    cores = [(bounds[i], bounds[i + 1]) for i in range(n_shards)]
    halos = [
        (max(0, lo - halo), min(extent, hi + halo)) for lo, hi in cores
    ]
    assigned: List[List[str]] = [[] for _ in range(n_shards)]
    cross: List[str] = []
    routable = 0
    for net in problem.nets:
        if len(net.pins) < 2:
            continue  # no wiring needed; pins become foreign-pin blocks
        routable += 1
        lo, hi = spans[net.name]
        candidates = [
            i for i in range(n_shards)
            if halos[i][0] <= lo and hi < halos[i][1]
        ]
        if not candidates:
            cross.append(net.name)
            continue
        center = (lo + hi) // 2
        pick = next(
            (i for i in candidates if cores[i][0] <= center < cores[i][1]),
            candidates[0],
        )
        assigned[pick].append(net.name)
    shards = tuple(
        SpatialShard(
            index=i,
            axis=axis,
            core=cores[i],
            halo=halos[i],
            net_names=tuple(assigned[i]),
        )
        for i in range(n_shards)
    )
    plan = ShardPlan(
        axis=axis,
        cuts=tuple(cuts),
        halo_width=halo,
        shards=shards,
        cross_nets=tuple(cross),
    )
    busy = len(plan.busy_shards)
    if busy < 2 or 3 * len(cross) >= routable:
        return None
    return plan


def shard_subproblem(
    problem: RoutingProblem,
    plan: ShardPlan,
    shard: SpatialShard,
) -> Optional[RoutingProblem]:
    """Materialise the standalone sub-instance for one shard.

    The sub-problem keeps the parent's full grid extents and absolute
    coordinates (only the routable region shrinks to the halo slab), so
    routed shard paths transplant onto the parent grid without translation.
    Pins of every net *not* assigned to this shard that fall inside the
    slab become single-cell, layer-specific obstacles — in the parent those
    cells are reserved for their owners, so shard copper must avoid them
    exactly as it would have to after the merge.  Returns ``None`` for
    shards with no nets or no routable area.
    """
    if not shard.net_names:
        return None
    halo_rect = shard.halo_rect(problem.width, problem.height)
    if problem.region is None:
        region = RectilinearRegion([halo_rect])
    else:
        keep = []
        for rect in problem.region.to_rects():
            clipped = rect.intersection(halo_rect)
            if clipped is not None:
                keep.append(clipped)
        if not keep:
            return None
        region = RectilinearRegion(keep)
    wanted = set(shard.net_names)
    nets = [net for net in problem.nets if net.name in wanted]
    obstacles = [
        obstacle
        for obstacle in problem.obstacles
        if obstacle.rect.intersects(halo_rect)
    ]
    for net in problem.nets:
        if net.name in wanted:
            continue
        for pin in net.pins:
            if halo_rect.contains(Point(pin.x, pin.y)):
                obstacles.append(
                    Obstacle(
                        Rect(pin.x, pin.y, pin.x + 1, pin.y + 1),
                        pin.layer,
                    )
                )
    return RoutingProblem(
        width=problem.width,
        height=problem.height,
        nets=nets,
        region=region,
        obstacles=obstacles,
        name=f"{problem.name}#s{shard.index}",
    )
