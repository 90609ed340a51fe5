"""Differential parity suite for the pluggable search-kernel backends.

Every backend must be *bit-identical* to the ``pure`` reference: same
paths (not just same lengths), same costs, same expansion and flood-visit
counts, same conflict nodes, same exceptions.  These tests run the same queries
through every available backend and compare results field by field, and
they replay the wrapper-level bugfix regressions (layer validation,
target bounds validation) on each backend so a fast kernel can never
reintroduce a fixed bug.  On every backend, a search that finds no path
must have expanded exactly the nodes its source reaches, each once: the
proof that the search needs no expansion cap.  A conflict search whose
target-side flood closes must return what a test-local plain soft A*
returns, in no more expansions.

The ``compiled`` backend needs a working C toolchain; when it cannot
build, its parametrized cases are skipped (the CI compiled leg forces it
via ``REPRO_KERNEL=compiled``, where an unavailable backend is a hard
error instead).
"""

import heapq
import random
import re

import pytest
from hypothesis import Phase, find, given, reject, settings
from hypothesis import strategies as st

from repro.geometry import Point
from repro.grid import GridPath, Layer, RoutingGrid
from repro.grid.path import flat_id, node_at, straight_path
from repro.maze import CostModel, find_path, lee_route
from repro.maze import astar, kernels
from repro.maze.astar import find_path_flat
from repro.maze.kernels.pure import FLOOD_CAP


def _backend_params():
    available = kernels.available_backends()
    params = []
    for name in kernels.BACKEND_NAMES:
        marks = []
        if name not in available:
            marks.append(
                pytest.mark.skip(reason=f"backend {name!r} unavailable")
            )
        params.append(pytest.param(name, marks=marks))
    return params


BACKENDS = _backend_params()
OTHERS = [p for p in BACKENDS if p.values[0] != "pure"]


@pytest.fixture
def grid():
    return RoutingGrid(10, 8)


def _assert_same_astar(a, b, label):
    assert a.found == b.found, label
    assert a.cost == b.cost, label
    assert a.expansions == b.expansions, label
    assert a.flood_visits == b.flood_visits, label
    assert a.conflict_nodes == b.conflict_nodes, label
    if a.found:
        assert list(a.path) == list(b.path), label


def _assert_legal_path(result, grid):
    """A found path passes the checks of ``GridPath.from_ids``: the
    search wraps a kernel's path without them."""
    if result.found:
        ids = list(result.path.ids_on(grid.width, grid.height))
        assert GridPath.from_ids(ids, grid.width, grid.height) == result.path


def _random_scene(rng, width, height):
    """A grid with random obstacles and foreign wires, plus a query."""
    grid = RoutingGrid(width, height)
    for _ in range(rng.randrange(0, width * height // 4)):
        x, y = rng.randrange(width), rng.randrange(height)
        if (x, y) in ((0, 0), (width - 1, height - 1)):
            continue
        try:
            if rng.random() < 0.5:
                grid.set_obstacle(x, y)
            else:
                grid.commit_path(
                    rng.randrange(2, 6),
                    GridPath([(x, y, rng.randrange(2))]),
                )
        except Exception:
            pass  # cell already taken — fine, scene stays random
    sources = [(0, 0, rng.randrange(2))]
    targets = [(width - 1, height - 1, rng.randrange(2))]
    return grid, sources, targets


def _neighbours(node, width, height):
    """The five moves of a search from ``node`` that stay on the grid."""
    x, y, z = node
    steps = ((x + 1, y, z), (x - 1, y, z), (x, y + 1, z), (x, y - 1, z))
    inside = [
        (a, b, c) for a, b, c in steps if 0 <= a < width and 0 <= b < height
    ]
    return inside + [(x, y, 1 - z)]


def _own_endpoints(rng, grid, sources, targets):
    """Make the endpoints pins of net 1, so a hard query floods the
    target side; now and then wall the target in with net 5's pins."""
    for node in {*sources, *targets}:
        grid.reserve_pin(1, node)
    if rng.random() < 0.5:
        for near in _neighbours(targets[0], grid.width, grid.height):
            if grid.owner(near) == 0 and rng.random() < 0.8:
                grid.reserve_pin(5, near)


#: Other nets' ids in the edge scenes.  The compiled kernel indexes its
#: frozen and penalty tables by net id; 40 and ``2**31 - 1`` lie past the
#: end of every table the scenes build.
FOREIGN_IDS = (2, 3, 4, 40, 2**31 - 1)


@st.composite
def edge_scenes(draw):
    """A degenerate scene and one query, for both searchers.

    The grid is one row, one column or one cell, with a few obstacles and
    other nets' wires and pins; or any small shape that is obstacle
    everywhere but the two endpoints.  Half the rows and columns are 32
    to 40 cells long and half the queries join their two ends, so step
    costs near ``2**28 / 40`` reach the packed-key g limit.  Half the
    time the endpoints are pins of the searching net, so a hard query
    floods the target side first.
    """
    kind = draw(st.sampled_from(("row", "column", "cell", "walled")))
    span = st.integers(1, 8)
    if kind != "walled":
        span = span | st.integers(32, 40)
    width = 1 if kind in ("column", "cell") else draw(span)
    height = 1 if kind in ("row", "cell") else draw(span)
    layer = st.integers(0, 1)
    if draw(st.booleans()):
        source = (0, 0, draw(layer))
        target = (width - 1, height - 1, draw(layer))
    else:
        x, y = st.integers(0, width - 1), st.integers(0, height - 1)
        source = (draw(x), draw(y), draw(layer))
        target = (draw(x), draw(y), draw(layer))
    grid = RoutingGrid(width, height)
    others = [
        (x, y, z)
        for z in (0, 1)
        for y in range(height)
        for x in range(width)
        if (x, y, z) not in (source, target)
    ]
    if kind == "walled":
        fills = dict.fromkeys(others, "obstacle")
    elif others:
        fills = draw(
            st.dictionaries(
                st.sampled_from(others),
                st.sampled_from(("obstacle", "wire", "pin")),
                max_size=min(len(others) // 2, 6),
            )
        )
    else:
        fills = {}
    for (x, y, z), fill in fills.items():
        if fill == "obstacle":
            grid.set_obstacle(x, y, z)
        elif fill == "wire":
            owner = draw(st.sampled_from(FOREIGN_IDS))
            grid.commit_path(owner, GridPath([(x, y, z)]))
        else:
            grid.reserve_pin(draw(st.sampled_from(FOREIGN_IDS)), (x, y, z))
    if draw(st.booleans()):  # pins of the net: a hard query floods first
        for node in {source, target}:
            grid.reserve_pin(1, node)
    query = dict(
        cost=CostModel(
            step_cost=draw(st.sampled_from((1, 3, 6882960, 2**23))),
            wrong_way_penalty=draw(st.sampled_from((0, 2))),
            via_cost=draw(st.sampled_from((1, 4))),
            conflict_penalty=draw(st.sampled_from((0, 50))),
        ),
        allow_conflicts=draw(st.booleans()),
        frozen_nets=frozenset(draw(st.sets(st.sampled_from((2, 3))))),
        net_penalties=draw(st.sampled_from((None, {4: 17}, {2: 1, 3: 9}))),
    )
    return grid, [source], [target], query


def _search_or_error(search, *args, **kwargs):
    """The search's result, or the message of the ``ValueError`` it raised."""
    try:
        return search(*args, **kwargs)
    except ValueError as exc:
        return str(exc)


class TestEdgeScenes:
    @pytest.mark.parametrize("other", OTHERS)
    @settings(max_examples=150, deadline=None)
    @given(scene=edge_scenes())
    def test_astar_parity(self, other, scene):
        grid, sources, targets, query = scene
        ref, got = (
            _search_or_error(
                find_path, grid, 1, sources, targets, kernel=name, **query
            )
            for name in ("pure", other)
        )
        if isinstance(ref, str):
            assert got == ref
        else:
            _assert_same_astar(ref, got, other)

    @pytest.mark.parametrize("name", BACKENDS)
    @settings(max_examples=150, deadline=None)
    @given(scene=edge_scenes())
    def test_flat_entry_matches_find_path(self, name, scene):
        """The flat entry behind ``find_path`` returns the same path,
        cost, expansions, flood visits and conflicts for the same query
        in flat ids."""
        grid, sources, targets, query = scene
        width, height = grid.width, grid.height
        by_nodes = _search_or_error(
            find_path, grid, 1, sources, targets, kernel=name, **query
        )
        flat = _search_or_error(
            find_path_flat,
            grid,
            1,
            [flat_id(node, width, height) for node in sources],
            [flat_id(node, width, height) for node in targets],
            kernel=name,
            **query,
        )
        if isinstance(by_nodes, str):
            assert flat == by_nodes
            return
        assert flat.found == by_nodes.found
        assert flat.cost == by_nodes.cost
        assert flat.expansions == by_nodes.expansions
        assert flat.flood_visits == by_nodes.flood_visits
        assert flat.conflict_ids == by_nodes.conflict_ids
        assert by_nodes.conflict_nodes == [
            node_at(index, width, height) for index in flat.conflict_ids
        ]
        assert all(grid.owner(n) > 1 for n in by_nodes.conflict_nodes)
        if flat.found:
            assert flat.path == by_nodes.path
            assert list(flat.path) == list(by_nodes.path)
        _assert_legal_path(flat, grid)

    @pytest.mark.parametrize("other", OTHERS)
    @settings(max_examples=100, deadline=None)
    @given(scene=edge_scenes())
    def test_lee_parity(self, other, scene):
        grid, sources, targets, _ = scene
        ref = lee_route(grid, 1, sources, targets, kernel="pure")
        got = lee_route(grid, 1, sources, targets, kernel=other)
        assert (ref is None) == (got is None)
        if ref is not None:
            assert list(ref) == list(got)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_packed_key_g_limit(self, name):
        """39 steps of 6882960 cost 16 less than the g field holds; the
        32nd step of ``2**23`` reaches ``2**28`` and is refused."""
        grid = RoutingGrid(40, 3)
        ends = ([(0, 1, 0)], [(39, 1, 0)])
        result = find_path(
            grid, 1, *ends, cost=CostModel(step_cost=6882960), kernel=name
        )
        assert result.found
        assert result.cost == 268435440
        with pytest.raises(
            ValueError,
            match=re.escape(
                "path cost exceeds the packed-key g field "
                "(268435456 >= 268435456)"
            ),
        ):
            find_path(
                grid, 1, *ends, cost=CostModel(step_cost=2**23), kernel=name
            )


class TestAstarParity:
    @pytest.mark.parametrize("other", OTHERS)
    def test_randomized_differential(self, other):
        """Random scenes, cost models, and modes: all fields must match.
        Half the scenes make the endpoints pins of the net, so hard
        queries flood the target side, and some wall the target in."""
        rng = random.Random(20260809)
        for case in range(40):
            width = rng.randrange(4, 14)
            height = rng.randrange(4, 12)
            grid, sources, targets = _random_scene(rng, width, height)
            if rng.random() < 0.5:
                _own_endpoints(rng, grid, sources, targets)
            model = CostModel(
                step_cost=rng.choice([1, 2]),
                wrong_way_penalty=rng.choice([0, 2, 7]),
                via_cost=rng.choice([1, 4, 9]),
                conflict_penalty=rng.choice([5, 50]),
            )
            kwargs = dict(
                cost=model,
                allow_conflicts=rng.random() < 0.5,
                frozen_nets=frozenset({3} if rng.random() < 0.3 else ()),
                net_penalties={4: 17} if rng.random() < 0.3 else None,
            )
            ref = find_path(
                grid, 1, sources, targets, kernel="pure", **kwargs
            )
            got = find_path(
                grid, 1, sources, targets, kernel=other, **kwargs
            )
            _assert_same_astar(ref, got, f"case {case} vs {other}")
            _assert_legal_path(ref, grid)
            _assert_legal_path(got, grid)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_multi_source_multi_target(self, grid, name):
        grid.commit_path(
            1, straight_path(Point(0, 0), Point(0, 3), Layer.VERTICAL)
        )
        sources = [(0, y, 1) for y in range(4)]
        targets = [(9, y, 1) for y in range(4, 8)]
        ref = find_path(grid, 1, sources, targets, kernel="pure")
        got = find_path(grid, 1, sources, targets, kernel=name)
        _assert_same_astar(ref, got, name)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_conflict_nodes_match(self, grid, name):
        grid.commit_path(
            2, straight_path(Point(5, 0), Point(5, 7), Layer.VERTICAL)
        )
        grid.commit_path(
            2, straight_path(Point(5, 0), Point(5, 7), Layer.HORIZONTAL)
        )
        result = find_path(
            grid, 1, [(0, 0, 0)], [(9, 0, 0)],
            allow_conflicts=True, kernel=name,
        )
        assert result.found
        assert result.conflict_nodes
        assert all(grid.owner(n) == 2 for n in result.conflict_nodes)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_mixed_backends_share_an_arena(self, grid, name):
        """Alternating backends on the thread's planes must stay correct:
        the generation counter is shared between the list planes and the
        typed planes, so a stale label from one backend can never leak
        into the next search of another."""
        for _ in range(3):
            a = find_path(grid, 1, [(0, 0, 0)], [(9, 7, 1)], kernel=name)
            b = find_path(grid, 1, [(0, 0, 0)], [(9, 7, 1)], kernel="pure")
            _assert_same_astar(a, b, name)


@st.composite
def walled_pin_scenes(draw):
    """A hard query of net 1 from its source pin's component to target
    pins, most of whose neighbours are other nets' pins.

    The rest of the small grid holds obstacles, other nets' wires, and
    net 1 copper of its own: single cells with no via (a stacked own
    cell is not joined to the pin below it) and via pairs.  Some queries
    add a free source cell, which may share a pocket with a target.
    """
    width, height = draw(st.integers(1, 7)), draw(st.integers(1, 5))
    grid = RoutingGrid(width, height)
    nodes = [
        (x, y, z) for z in (0, 1) for y in range(height) for x in range(width)
    ]
    pins = draw(
        st.lists(
            st.sampled_from(nodes),
            min_size=2,
            max_size=min(4, len(nodes)),
            unique=True,
        )
    )
    source, targets = pins[0], pins[1:]
    for node in pins:
        grid.reserve_pin(1, node)
    for target in targets:
        for near in _neighbours(target, width, height):
            if grid.owner(near) == 0 and draw(st.integers(0, 4)):
                grid.reserve_pin(draw(st.sampled_from((2, 3))), near)
    fills = draw(
        st.dictionaries(
            st.sampled_from(nodes),
            st.sampled_from(("obstacle", "wire", "own", "own-via")),
            max_size=len(nodes) // 3,
        )
    )
    for (x, y, z), fill in fills.items():
        below = (x, y, 1 - z)
        if grid.owner((x, y, z)) != 0:
            continue
        if fill == "obstacle":
            grid.set_obstacle(x, y, z)
        elif fill == "wire":
            grid.commit_path(2, GridPath([(x, y, z)]))
        elif fill == "own":
            grid.commit_path(1, GridPath([(x, y, z)]))
        elif grid.owner(below) in (0, 1):
            grid.commit_path(1, GridPath([(x, y, z), below]))
    sources = sorted(grid.connected_component(1, source))
    free = [node for node in nodes if grid.owner(node) == 0]
    if free and draw(st.booleans()):
        sources.append(draw(st.sampled_from(free)))
    return grid, sources, targets


def _flood_outcome(grid, sources, targets):
    result = find_path(grid, 1, sources, targets, kernel="pure")
    if not result.flood_visits:
        return "no flood"
    if result.expansions == 0 and not result.found:
        return "proof"
    return "a-star found" if result.found else "a-star failed"


class TestTargetFlood:
    """A hard search's target-side flood proves "no path" soundly."""

    @pytest.mark.parametrize("name", BACKENDS)
    @settings(max_examples=300, deadline=None)
    @given(scene=walled_pin_scenes())
    def test_found_iff_lee_finds(self, name, scene):
        """Lee admits exactly the cells a hard search does, so it is an
        independent oracle for whether a path exists."""
        grid, sources, targets = scene
        result = find_path(grid, 1, sources, targets, kernel=name)
        path = lee_route(grid, 1, sources, targets)
        assert result.found == (path is not None)

    @pytest.mark.parametrize("outcome", ["no flood", "proof", "a-star found"])
    def test_scenes_reach_each_outcome(self, outcome):
        """The scenes above hold proofs, floods that give up before A*
        finds a path, and queries that may not flood at all."""
        find(
            walled_pin_scenes(),
            lambda scene: _flood_outcome(*scene) == outcome,
            settings=settings(
                max_examples=2000, database=None, phases=[Phase.generate]
            ),
        )


#: How a node of a no-path scene is filled.  Net 1 searches; net 3 is
#: frozen in soft queries.  Four draws in nine are free, so the source
#: reaches regions where a node's cost often improves after its first
#: push, which is where a kernel could expand it twice.
NO_PATH_FILLS = ("free",) * 4 + ("obstacle", "own", "wire", "frozen", "pin")


@st.composite
def no_path_scenes(draw, soft):
    """A random grid and a query of net 1 whose free target is walled in.

    Every move out of the target enters an obstacle, another net's pin,
    or (hard queries) any other net's copper or (soft queries) copper of
    the frozen net 3, so no path exists.  The target is free, so no
    target-side flood runs, and the search can only answer by A*.  The
    other nodes are free, obstacles, net 1 copper, net 2 and net 4
    wires, net 3 wires and net 2 pins.  Returns the grid, the query and
    the fill of every node.
    """
    width, height = draw(st.integers(1, 9)), draw(st.integers(1, 7))
    nodes = [
        (x, y, z) for z in (0, 1) for y in range(height) for x in range(width)
    ]
    target = draw(st.sampled_from(nodes))
    walls = _neighbours(target, width, height)
    rest = [node for node in nodes if node != target and node not in walls]
    if not rest:
        reject()
    source = draw(st.sampled_from(rest))
    wall_fills = ("obstacle", "pin", "frozen") + (() if soft else ("wire",))
    fills = {node: draw(st.sampled_from(wall_fills)) for node in walls}
    for node in rest:
        if node == source:
            fills[node] = draw(st.sampled_from(("free", "own")))
        else:
            fills[node] = draw(st.sampled_from(NO_PATH_FILLS))
    fills[target] = "free"
    grid = RoutingGrid(width, height)
    for node, fill in fills.items():
        if fill == "obstacle":
            grid.set_obstacle(*node)
        elif fill == "pin":
            grid.reserve_pin(2, node)
        elif fill == "wire":
            grid.commit_path(draw(st.sampled_from((2, 4))), GridPath([node]))
        elif fill != "free":
            grid.commit_path(1 if fill == "own" else 3, GridPath([node]))
    query = dict(
        cost=CostModel(
            wrong_way_penalty=draw(st.sampled_from((0, 2, 7))),
            via_cost=draw(st.sampled_from((0, 1, 4, 9))),
            conflict_penalty=draw(st.sampled_from((0, 5, 50))),
        ),
        allow_conflicts=soft,
    )
    if soft:
        query["frozen_nets"] = frozenset({3})
        query["net_penalties"] = draw(
            st.sampled_from((None, {2: 17}, {2: 1, 4: 9}))
        )
    return grid, [source], [target], query, fills


def _reached(fills, source, width, height, soft):
    """The nodes a breadth-first search from ``source`` enters, moving
    only into the fills a search of net 1 may enter."""
    passable = {"free", "own", "wire"} if soft else {"free", "own"}
    seen = {source}
    queue = [source]
    for node in queue:
        for near in _neighbours(node, width, height):
            if near not in seen and fills[near] in passable:
                seen.add(near)
                queue.append(near)
    return seen


class TestNoPathProof:
    """A search that finds no path has expanded every node its source
    reaches, and each exactly once, so it needs no expansion cap."""

    @pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
    @pytest.mark.parametrize("name", BACKENDS)
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_expansions_equal_the_reach(self, name, soft, data):
        grid, sources, targets, query, fills = data.draw(
            no_path_scenes(soft)
        )
        result = find_path(grid, 1, sources, targets, kernel=name, **query)
        assert not result.found
        assert result.flood_visits == 0
        reached = _reached(fills, sources[0], grid.width, grid.height, soft)
        assert result.expansions == len(reached)


def plain_soft_search(
    grid, sources, targets, cost, frozen_nets, net_penalties
):
    """A plain conflict-tolerant A* of net 1, written apart from the
    kernels: ``(found, cost, path, conflict_ids, expansions)``.

    It keys its heap on ``(f, g, flat id)`` tuples with the original
    heuristic, the Manhattan distance to the targets' box times
    ``step_cost``, pushes a node only on a strict improvement, skips
    stale entries, and reads its path from the parent each node
    recorded.  Costs come from the grid's node queries.
    """
    width, height = grid.width, grid.height
    penalties = net_penalties or {}
    box = (
        min(x for x, _, _ in targets), max(x for x, _, _ in targets),
        min(y for _, y, _ in targets), max(y for _, y, _ in targets),
    )

    def flat(node):
        x, y, z = node
        return (z * height + y) * width + x

    def heuristic(node):
        x, y, _ = node
        dx = max(box[0] - x, 0, x - box[1])
        dy = max(box[2] - y, 0, y - box[3])
        return (dx + dy) * cost.step_cost

    def move_cost(node, succ):
        """Cost of stepping from ``node`` onto ``succ``, or None."""
        owner = grid.owner(succ)
        if owner in (0, 1):
            extra = 0
        elif owner == -1 or owner in frozen_nets or grid.pin_owner(succ):
            return None
        else:
            extra = cost.conflict_penalty + penalties.get(owner, 0)
        if node[2] != succ[2]:
            return cost.via_cost + extra
        along_x = node[0] != succ[0]
        with_grain = along_x == (node[2] == 0)  # layer 0 runs along x
        return cost.wire_step(with_grain) + extra

    best, parent, heap = {}, {}, []
    for source in sources:
        if source not in best:
            best[source] = 0
            parent[source] = None
            heapq.heappush(heap, (heuristic(source), 0, flat(source), source))
    goals = set(targets)
    expansions = 0
    while heap:
        _f, g, _index, node = heapq.heappop(heap)
        if best[node] != g:
            continue
        if node in goals:
            path = [node]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            path.reverse()
            conflicts = [flat(n) for n in path if grid.owner(n) not in (0, 1)]
            return True, g, path, conflicts, expansions
        expansions += 1
        for succ in _neighbours(node, width, height):
            step = move_cost(node, succ)
            if step is None or best.get(succ, g + step + 1) <= g + step:
                continue
            best[succ] = g + step
            parent[succ] = node
            heapq.heappush(
                heap, (g + step + heuristic(succ), g + step, flat(succ), succ)
            )
    return False, 0, None, [], expansions


#: How a cell next to a walled-in pocket is filled: other nets' wires
#: (net 3 is frozen), a pin of net 2, an obstacle, or free (a way out).
SOFT_WALL_FILLS = ("wire",) * 3 + ("frozen", "pin", "obstacle", "free")


def _fill(grid, node, fill, wire_net):
    if fill == "obstacle":
        grid.set_obstacle(*node)
    elif fill == "pin":
        grid.reserve_pin(2, node)
    elif fill == "wire":
        grid.commit_path(wire_net, GridPath([node]))
    elif fill == "frozen":
        grid.commit_path(3, GridPath([node]))
    elif fill == "own":
        grid.commit_path(1, GridPath([node]))


@st.composite
def walled_soft_scenes(draw):
    """A conflict-tolerant query of net 1 from its source pin to one to
    three target pins, each walled into a pocket by other nets' copper.

    A pocket is its target plus up to three free cells a random walk
    from it enters.  The walls round it mix wires of nets 2 and 4,
    wires of the frozen net 3, net 2 pins, obstacles and the odd free
    cell; the rest of the grid adds more of each, and copper of net 1.
    Costs are drawn tie-prone.
    """
    width, height = draw(st.integers(2, 8)), draw(st.integers(2, 6))
    nodes = [
        (x, y, z) for z in (0, 1) for y in range(height) for x in range(width)
    ]
    pins = draw(
        st.lists(st.sampled_from(nodes), min_size=2, max_size=4, unique=True)
    )
    grid = RoutingGrid(width, height)
    for node in pins:
        grid.reserve_pin(1, node)
    wire_nets = st.sampled_from((2, 4))
    pocket = set(pins[1:])
    for target in pins[1:]:
        cell = target
        for _ in range(draw(st.integers(0, 3))):
            cell = draw(st.sampled_from(_neighbours(cell, width, height)))
            if grid.owner(cell) != 0:
                break
            pocket.add(cell)
    for cell in sorted(pocket):
        for near in _neighbours(cell, width, height):
            if near not in pocket and grid.owner(near) == 0:
                fill = draw(st.sampled_from(SOFT_WALL_FILLS))
                _fill(grid, near, fill, draw(wire_nets))
    rest = draw(
        st.dictionaries(
            st.sampled_from(nodes),
            st.sampled_from(("obstacle", "wire", "frozen", "pin", "own")),
            max_size=len(nodes) // 3,
        )
    )
    for node, fill in rest.items():
        if node not in pocket and grid.owner(node) == 0:
            _fill(grid, node, fill, draw(wire_nets))
    query = dict(
        cost=CostModel(
            wrong_way_penalty=draw(st.sampled_from((0, 2))),
            via_cost=draw(st.sampled_from((1, 4))),
            conflict_penalty=draw(st.sampled_from((0, 1, 50))),
        ),
        frozen_nets=frozenset({3}),
        net_penalties=draw(st.sampled_from((None, {2: 17}, {2: 1, 4: 9}))),
    )
    return grid, pins[:1], pins[1:], query


def _ring_entries(grid, targets, query):
    """How a target-side flood ends, by the rule the kernels follow.

    None when the flood gives up: it would enter more than
    ``FLOOD_CAP`` free cells, or it meets net 1 copper that is not a
    target.  Otherwise the extra costs of the cells next to the closed
    pocket that a conflict search may enter.
    """
    width, height = grid.width, grid.height
    pocket = set(targets)
    queue = list(targets)
    for node in queue:
        for near in _neighbours(node, width, height):
            if near in pocket:
                continue
            owner = grid.owner(near)
            if owner == 1:
                return None
            if owner == 0:
                if len(queue) - len(targets) == FLOOD_CAP:
                    return None
                pocket.add(near)
                queue.append(near)
    penalties = query["net_penalties"] or {}
    ring = {
        near
        for node in pocket
        for near in _neighbours(node, width, height)
        if near not in pocket
    }
    return [
        query["cost"].conflict_penalty + penalties.get(grid.owner(near), 0)
        for near in ring
        if grid.owner(near) not in (-1, *query["frozen_nets"])
        and not grid.pin_owner(near)
    ]


def _pocket_outcome(grid, sources, targets, query):
    entries = _ring_entries(grid, targets, query)
    if entries is None:
        return "flood gives up"
    if not entries:
        return "no crossable ring cell"
    found = plain_soft_search(grid, sources, targets, **query)[0]
    return "bounded path" if found and min(entries) > 0 else "other"


class TestPocketBound:
    """A conflict search whose target-side flood closes prices the ring
    around the pocket, and still returns the plain search's answer."""

    @pytest.mark.parametrize("name", BACKENDS)
    @settings(max_examples=300, deadline=None)
    @given(scene=walled_soft_scenes())
    def test_same_answer_as_the_plain_search(self, name, scene):
        grid, sources, targets, query = scene
        result = find_path(
            grid, 1, sources, targets, allow_conflicts=True, kernel=name,
            **query,
        )
        found, cost, path, conflicts, expansions = plain_soft_search(
            grid, sources, targets, **query
        )
        assert result.found == found
        assert result.cost == cost
        assert (list(result.path) if found else None) == path
        assert result.conflict_ids == conflicts
        assert result.expansions <= expansions
        entries = _ring_entries(grid, targets, query)
        assert result.flood_visits > 0
        if entries is None:
            assert result.expansions == expansions
        elif not entries:
            assert not found and result.expansions == 0

    @pytest.mark.parametrize("name", BACKENDS)
    def test_tie_through_the_ring_keeps_the_plain_parent(self, name):
        """Two walks of cost 11 reach (3, 0, 1): across net 2's ring
        cell (3, 0, 0) and up its via, or up the source's via and one
        wrong-way step.  Plain A* expands (2, 0, 1) first and records it
        as the parent; the bound (2, net 2's entry) lifts that node's
        key past the ring cell's, so the bounded search records (3, 0, 0)
        instead.  The min-key backtrack still returns the plain path.

        Layer 0 (S the source pin, o the free pocket cells):
        ``. . S 2 o / . . . 4 o / . . 4 4 o``; layer 1 (T the target
        pin): ``. . . . 2 / . . 4 . 4 / . . . 2 T``.
        """
        grid = RoutingGrid(5, 3)
        grid.reserve_pin(1, (2, 0, 0))
        grid.reserve_pin(1, (4, 2, 1))
        for node in [(3, 0, 0), (4, 0, 1), (3, 2, 1)]:
            grid.commit_path(2, GridPath([node]))
        for node in [(3, 1, 0), (3, 2, 0), (2, 2, 0), (2, 1, 1), (4, 1, 1)]:
            grid.commit_path(4, GridPath([node]))
        query = dict(
            cost=CostModel(
                wrong_way_penalty=2, via_cost=1, conflict_penalty=1
            ),
            frozen_nets=frozenset(),
            net_penalties={2: 1, 4: 9},
        )
        result = find_path(
            grid, 1, [(2, 0, 0)], [(4, 2, 1)], allow_conflicts=True,
            kernel=name, **query,
        )
        found, cost, path, conflicts, expansions = plain_soft_search(
            grid, [(2, 0, 0)], [(4, 2, 1)], **query
        )
        assert path == [
            (2, 0, 0), (2, 0, 1), (3, 0, 1), (3, 1, 1), (3, 2, 1), (4, 2, 1)
        ]
        assert list(result.path) == path
        assert (result.cost, result.conflict_ids) == (cost, conflicts) == (
            11, [28]
        )
        assert result.expansions < expansions

    @pytest.mark.parametrize(
        "outcome",
        ["bounded path", "no crossable ring cell", "flood gives up"],
    )
    def test_scenes_reach_each_outcome(self, outcome):
        find(
            walled_soft_scenes(),
            lambda scene: _pocket_outcome(*scene) == outcome,
            settings=settings(
                max_examples=2000, database=None, phases=[Phase.generate]
            ),
        )


class TestLeeParity:
    @pytest.mark.parametrize("other", OTHERS)
    def test_randomized_differential(self, other):
        """Paths must be *identical node lists*, not merely equal length —
        the wavefront tie-breaking order is part of the contract."""
        rng = random.Random(987654)
        for case in range(40):
            width = rng.randrange(4, 14)
            height = rng.randrange(4, 12)
            grid, sources, targets = _random_scene(rng, width, height)
            if rng.random() < 0.4:  # exercise multi-source dedup order
                sources = sources + [(0, 0, 1), (0, 0, 0)]
            ref = lee_route(grid, 1, sources, targets, kernel="pure")
            got = lee_route(grid, 1, sources, targets, kernel=other)
            label = f"case {case} vs {other}"
            if ref is None:
                assert got is None, label
            else:
                assert got is not None, label
                assert list(ref) == list(got), label

    @pytest.mark.parametrize("name", BACKENDS)
    def test_source_is_target(self, grid, name):
        path = lee_route(grid, 1, [(3, 3, 0)], [(3, 3, 0)], kernel=name)
        assert path is not None and len(path) == 1

    @pytest.mark.parametrize("name", BACKENDS)
    def test_no_path(self, grid, name):
        for y in range(grid.height):
            grid.set_obstacle(5, y)
        assert (
            lee_route(grid, 1, [(0, 0, 0)], [(9, 0, 0)], kernel=name)
            is None
        )


class TestBugfixRegressionsEveryBackend:
    """The wrapper-level fixes, replayed per backend.

    The fixes live in the wrappers, so these guard against a future
    backend bypassing validation.
    """

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("layer", [-1, 2, 7])
    def test_astar_rejects_bad_layer(self, grid, name, layer):
        with pytest.raises(ValueError, match="out of bounds"):
            find_path(grid, 1, [(0, 0, layer)], [(5, 5, 0)], kernel=name)
        with pytest.raises(ValueError, match="out of bounds"):
            find_path(grid, 1, [(0, 0, 0)], [(5, 5, layer)], kernel=name)

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("layer", [-1, 2, 7])
    def test_lee_rejects_bad_layer(self, grid, name, layer):
        with pytest.raises(ValueError, match="out of bounds"):
            lee_route(grid, 1, [(0, 0, layer)], [(5, 5, 0)], kernel=name)
        with pytest.raises(ValueError, match="out of bounds"):
            lee_route(grid, 1, [(0, 0, 0)], [(5, 5, layer)], kernel=name)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_targets_validated_not_silently_unreachable(self, grid, name):
        """An out-of-bounds target used to fold into a wrapped flat index
        and the search just reported no-path; now it is an input error."""
        with pytest.raises(ValueError, match="target"):
            find_path(grid, 1, [(0, 0, 0)], [(99, 0, 0)], kernel=name)
        with pytest.raises(ValueError, match="target"):
            find_path(grid, 1, [(0, 0, 0)], [(0, -3, 0)], kernel=name)
        with pytest.raises(ValueError, match="target"):
            lee_route(grid, 1, [(0, 0, 0)], [(99, 0, 0)], kernel=name)


@pytest.mark.parametrize("name", BACKENDS)
class TestFlatEntryValidation:
    """The flat entry refuses a bad query before the kernel sees it."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """Arguments of every kernel call the searches make."""
        calls = []
        real_resolve = astar.resolve_kernel

        def resolve_kernel(name):
            backend = real_resolve(name)

            def astar_search(*args):
                calls.append(args)
                return backend.astar_search(*args)

            return kernels.KernelBackend(
                name=backend.name,
                astar_search=astar_search,
                lee_search=backend.lee_search,
            )

        monkeypatch.setattr(astar, "resolve_kernel", resolve_kernel)
        return calls

    @pytest.mark.parametrize(
        "sources, targets",
        [([-1], [5]), ([160], [5]), ([0], [160]), ([0], [-1]),
         ([0, 2**40], [5]), ([0], [5, -7])],
    )
    def test_out_of_range_id(self, grid, name, kernel_calls, sources, targets):
        with pytest.raises(ValueError, match="out of bounds"):
            find_path_flat(grid, 1, sources, targets, kernel=name)
        assert kernel_calls == []

    def test_source_owned_by_another_net(self, grid, name, kernel_calls):
        grid.reserve_pin(2, (3, 1, 0))
        foreign = flat_id((3, 1, 0), grid.width, grid.height)
        with pytest.raises(ValueError, match="not available to net 1"):
            find_path_flat(grid, 1, [0, foreign], [5], kernel=name)
        assert kernel_calls == []
        assert find_path_flat(grid, 2, [foreign], [5], kernel=name).found
        assert len(kernel_calls) == 1

    def test_negative_net_penalty(self, grid, name, kernel_calls):
        """A negative penalty would make a move cheaper than the
        heuristic charges for it, so a node could be expanded twice."""
        grid.commit_path(2, GridPath([(3, 0, 0)]))
        with pytest.raises(ValueError, match="net 2 has a negative penalty"):
            find_path(
                grid, 1, [(0, 0, 0)], [(5, 0, 0)],
                allow_conflicts=True, net_penalties={2: -1}, kernel=name,
            )
        with pytest.raises(ValueError, match="net 4 has a negative penalty"):
            find_path_flat(
                grid, 1, [0], [5],
                allow_conflicts=True, net_penalties={2: 3, 4: -9},
                kernel=name,
            )
        assert kernel_calls == []


class TestDispatch:
    def test_unknown_backend_rejected(self, grid):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            find_path(grid, 1, [(0, 0, 0)], [(5, 5, 0)], kernel="turbo")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            lee_route(grid, 1, [(0, 0, 0)], [(5, 5, 0)], kernel="turbo")

    def test_auto_prefers_compiled_else_pure(self):
        backend = kernels.resolve_kernel("auto")
        if "compiled" in kernels.available_backends():
            assert backend.name == "compiled"
        else:
            assert backend.name == "pure"

    def test_env_var_resolution(self, monkeypatch, grid):
        monkeypatch.setenv(kernels.ENV_VAR, "pure")
        kernels._reset_for_tests()
        try:
            assert kernels.active_backend().name == "pure"
            info = kernels.backend_info()
            assert info["active"] == "pure"
            assert info["active_source"] == f"env:{kernels.ENV_VAR}"
            # searches without a per-call kernel run the env's backend
            assert kernels.resolve_kernel(None).name == "pure"
            assert find_path(grid, 1, [(0, 0, 0)], [(5, 5, 0)]).found
        finally:
            kernels._reset_for_tests()

    def test_env_var_unknown_name_rejected(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "warp9")
        kernels._reset_for_tests()
        try:
            with pytest.raises(ValueError, match="REPRO_KERNEL"):
                kernels.active_backend()
        finally:
            kernels._reset_for_tests()

    def test_backend_info_shape(self):
        info = kernels.backend_info()
        assert set(info) == {
            "active", "active_source", "available", "env", "load_errors"
        }
        assert "pure" in info["available"]
