"""Differential parity suite for the pluggable search-kernel backends.

Every backend must be *bit-identical* to the ``pure`` reference: same
paths (not just same lengths), same costs, same expansion and flood-visit
counts, same conflict nodes, same exceptions.  These tests run the same queries
through every available backend and compare results field by field, and
they replay the wrapper-level bugfix regressions (layer validation,
target bounds validation) on each backend so a fast kernel can never
reintroduce a fixed bug.  On every backend, a search that finds no path
must have expanded exactly the nodes its source reaches, each once: the
proof that the search needs no expansion cap.  A search that first
searches back from its targets, hard or soft, must return what a
test-local plain A* returns, in no more expansions, and settle what a
test-local backward Dijkstra settles.

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
from repro.maze.kernels.pure import FLOOD_CAP, SETTLE_CAP


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
    assert a.conflict_ids == b.conflict_ids, label
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
    """Make the endpoints pins of net 1, so a query searches back from
    the target first; now and then wall the target in with net 5's
    pins."""
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
    to 40 cells long and half the queries join their two ends.  Half the
    time the endpoints are pins of the searching net, so the query
    searches back from the target first.
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
    if draw(st.booleans()):  # pins of the net: it searches back first
        for node in {source, target}:
            grid.reserve_pin(1, node)
    query = dict(
        cost=CostModel(
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
        assert all(
            grid.owner(node_at(index, width, height)) > 1
            for index in flat.conflict_ids
        )
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
        """Layer 0 is all obstacle, so the walk takes 39 wrong-way steps
        on layer 1.  Steps of 6882960 cost 16 less than the g field
        holds; the 32nd step of ``2**23`` reaches ``2**28`` and is
        refused."""
        grid = RoutingGrid(40, 3)
        for y in range(3):
            for x in range(40):
                grid.set_obstacle(x, y, 0)
        ends = ([(0, 1, 1)], [(39, 1, 1)])
        result = find_path(
            grid, 1, *ends, cost=CostModel(wrong_way_penalty=6882959),
            kernel=name,
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
                grid, 1, *ends, cost=CostModel(wrong_way_penalty=2**23 - 1),
                kernel=name,
            )


class TestAstarParity:
    @pytest.mark.parametrize("other", OTHERS)
    def test_randomized_differential(self, other):
        """Random scenes, cost models, and modes: all fields must match.
        Half the scenes make the endpoints pins of the net, so queries
        search back from the target first, and some wall the target
        in."""
        rng = random.Random(20260809)
        for case in range(40):
            width = rng.randrange(4, 14)
            height = rng.randrange(4, 12)
            grid, sources, targets = _random_scene(rng, width, height)
            if rng.random() < 0.5:
                _own_endpoints(rng, grid, sources, targets)
            model = CostModel(
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
        assert result.conflict_ids
        assert all(
            grid.owner(node_at(index, grid.width, grid.height)) == 2
            for index in result.conflict_ids
        )

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
    """A hard search's backward search from its targets proves "no
    path" soundly."""

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
        """The scenes above hold proofs, backward searches that stop
        before A* finds a path, and queries that may not run one."""
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
    backward search runs, and the search can only answer by A*.  The
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
            via_cost=draw(st.sampled_from((1, 4, 9))),
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


def _search_costs(grid, cost, allow_conflicts, frozen_nets, net_penalties):
    """``(enter, move)`` of a search of net 1, read through the grid's
    node queries: ``enter(node)`` is the extra cost of stepping onto
    ``node``, or None where the search may not, and ``move(a, b)`` the
    cost of the step between neighbours ``a`` and ``b`` before that
    extra, the same in either direction."""
    penalties = net_penalties or {}

    def enter(node):
        owner = grid.owner(node)
        if owner in (0, 1):
            return 0
        if (
            not allow_conflicts
            or owner == -1
            or owner in frozen_nets
            or grid.pin_owner(node)
        ):
            return None
        return cost.conflict_penalty + penalties.get(owner, 0)

    def move(node, succ):
        if node[2] != succ[2]:
            return cost.via_cost
        along_x = node[0] != succ[0]
        return cost.wire_step(along_x == (node[2] == 0))  # layer 0 runs x

    return enter, move


def _box_heuristic(targets, step_cost):
    """The Manhattan distance to the targets' box, times ``step_cost``."""
    x0, x1 = min(x for x, _, _ in targets), max(x for x, _, _ in targets)
    y0, y1 = min(y for _, y, _ in targets), max(y for _, y, _ in targets)

    def heuristic(node):
        x, y, _ = node
        return (max(x0 - x, 0, x - x1) + max(y0 - y, 0, y - y1)) * step_cost

    return heuristic


def plain_search(
    grid, sources, targets, cost, frozen_nets=frozenset(),
    net_penalties=None, allow_conflicts=True,
):
    """A plain A* of net 1, hard or conflict-tolerant, written apart from
    the kernels: ``(found, cost, path, conflict_ids, expansions)``.

    It keys its heap on ``(f, g, flat id)`` tuples with the original
    heuristic, the Manhattan distance to the targets' box times
    ``step_cost``, pushes a node only on a strict improvement, skips
    stale entries, and reads its path from the parent each node
    recorded.  Costs come from the grid's node queries.
    """
    width, height = grid.width, grid.height
    enter, move = _search_costs(
        grid, cost, allow_conflicts, frozen_nets, net_penalties
    )
    heuristic = _box_heuristic(targets, 1)

    def flat(node):
        x, y, z = node
        return (z * height + y) * width + x

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
            extra = enter(succ)
            if extra is None:
                continue
            new_g = g + move(node, succ) + extra
            if best.get(succ, new_g + 1) <= new_g:
                continue
            best[succ] = new_g
            parent[succ] = node
            heapq.heappush(
                heap, (new_g + heuristic(succ), new_g, flat(succ), succ)
            )
    return False, 0, None, [], expansions


def backward_oracle(
    grid, sources, targets, cost, frozen_nets=frozenset(),
    net_penalties=None, allow_conflicts=True,
):
    """What the backward search from the targets does, written apart
    from the kernels: ``(settled, stop, rest)``.

    ``stop`` is ``"none"`` when the query may not run one: a source or
    target that is not net 1 copper, more than ``FLOOD_CAP`` targets, a
    source among them, or a soft query with free vias.  Otherwise it is
    a Dijkstra from the targets on tuple keys ``(excess, flat id)``,
    where the excess of a node is the cheapest walk from it to a target
    less the heuristic.  It stops at ``"source"`` after it settles a
    source, and at ``"cap"`` after ``SETTLE_CAP`` settled nodes, unless
    no key is left open: that is ``"drained"``, a proof that no path
    exists.  ``settled`` maps every settled node to its excess, and
    ``rest`` is the smallest open key, or the largest settled excess
    when none is open.
    """
    goals = set(targets)
    if (
        any(grid.owner(node) != 1 for node in (*sources, *targets))
        or len(goals) > FLOOD_CAP
        or not goals.isdisjoint(sources)
        or (allow_conflicts and cost.via_cost == 0)
    ):
        return {}, "none", 0
    width, height = grid.width, grid.height
    enter, move = _search_costs(
        grid, cost, allow_conflicts, frozen_nets, net_penalties
    )
    heuristic = _box_heuristic(targets, 1)
    best = dict.fromkeys(goals, 0)
    heap = [(0, flat_id(node, width, height), node) for node in goals]
    heapq.heapify(heap)
    settled = {}
    stop = "drained"
    while heap:
        excess, _index, node = heapq.heappop(heap)
        if node in settled or best[node] != excess:
            continue
        settled[node] = excess
        reach = excess + heuristic(node) + enter(node)
        for pred in _neighbours(node, width, height):
            if pred in settled or enter(pred) is None:
                continue
            key = reach + move(pred, node) - heuristic(pred)
            if best.get(pred, key + 1) > key:
                best[pred] = key
                heapq.heappush(
                    heap, (key, flat_id(pred, width, height), pred)
                )
        if node in sources:
            stop = "source"
            break
        if len(settled) == SETTLE_CAP:
            stop = "cap"
            break
    open_keys = [
        key for key, _index, node in heap
        if node not in settled and best[node] == key
    ]
    if stop == "cap" and not open_keys:
        stop = "drained"
    rest = min(open_keys) if open_keys else max(settled.values())
    return settled, stop, rest


def _assert_plain_answer(result, grid, sources, targets, query):
    """Found, cost, path and conflict ids equal the plain search's, in
    no more expansions; flood visits equal the backward oracle's
    settled nodes, and a drained backward search is a proof."""
    found, cost, path, conflicts, expansions = plain_search(
        grid, sources, targets, **query
    )
    assert result.found == found
    assert result.cost == cost
    assert (list(result.path) if found else None) == path
    assert result.conflict_ids == conflicts
    assert result.expansions <= expansions
    settled, stop, _rest = backward_oracle(grid, sources, targets, **query)
    assert result.flood_visits == len(settled)
    if stop == "drained":
        assert not found and result.expansions == 0
    return found, expansions


#: How a cell next to a walled-in pocket is filled: other nets' wires
#: (net 3 is frozen), a pin of net 2, an obstacle, or free (a way out).
SOFT_WALL_FILLS = ("wire",) * 3 + ("frozen", "pin", "obstacle", "free")

#: The fills of a wall no search may cross.
SEALED_WALL_FILLS = ("frozen", "pin", "obstacle")


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


def _pocket_outcome(grid, sources, targets, query):
    _settled, stop, rest = backward_oracle(grid, sources, targets, **query)
    if stop == "drained":
        return "no crossable ring cell"
    if stop == "cap":
        return "stops at the cap"
    found = plain_search(grid, sources, targets, **query)[0]
    return "bounded path" if found and rest > 0 else "other"


class TestPocketBound:
    """A conflict search whose targets are walled into pockets searches
    back from them first, and still returns the plain search's answer."""

    @pytest.mark.parametrize("name", BACKENDS)
    @settings(max_examples=300, deadline=None)
    @given(scene=walled_soft_scenes())
    def test_same_answer_as_the_plain_search(self, name, scene):
        grid, sources, targets, query = scene
        result = find_path(
            grid, 1, sources, targets, allow_conflicts=True, kernel=name,
            **query,
        )
        _assert_plain_answer(result, grid, sources, targets, query)
        assert result.flood_visits > 0

    @pytest.mark.parametrize("name", BACKENDS)
    def test_tie_through_the_ring_keeps_the_plain_parent(self, name):
        """Two walks of cost 2 join the source pin S to the target pin T
        across net 2's ring cells: east, then down T's via, or down the
        source's via, then east.  Plain A* expands the east cell first
        (its f is 1, the via cell's 2) and records it as T's parent.
        The backward search settles the via cell with excess 0 and
        leaves the east cell at the smallest open key, 1, so both reach
        f 2, and the bounded search expands the via cell (the same g, a
        lower id) first and records it instead.  The min-key backtrack
        still returns the plain path.

        Layer 0: ``2 T / . 2``; layer 1: ``S 2 / . .``.
        """
        grid = RoutingGrid(2, 2)
        grid.reserve_pin(1, (0, 0, 1))
        grid.reserve_pin(1, (1, 0, 0))
        for node in [(0, 0, 0), (1, 1, 0), (1, 0, 1)]:
            grid.commit_path(2, GridPath([node]))
        query = dict(
            cost=CostModel(
                wrong_way_penalty=0, via_cost=1, conflict_penalty=0
            ),
            frozen_nets=frozenset(),
            net_penalties=None,
        )
        result = find_path(
            grid, 1, [(0, 0, 1)], [(1, 0, 0)], allow_conflicts=True,
            kernel=name, **query,
        )
        found, cost, path, conflicts, expansions = plain_search(
            grid, [(0, 0, 1)], [(1, 0, 0)], **query
        )
        assert path == [(0, 0, 1), (1, 0, 1), (1, 0, 0)]
        assert list(result.path) == path
        assert (result.cost, result.conflict_ids) == (cost, conflicts) == (
            2, [5]
        )
        assert result.expansions <= expansions

    @pytest.mark.parametrize(
        "outcome",
        ["bounded path", "no crossable ring cell", "stops at the cap"],
    )
    def test_scenes_reach_each_outcome(self, outcome):
        find(
            walled_soft_scenes(),
            lambda scene: _pocket_outcome(*scene) == outcome,
            settings=settings(
                max_examples=2000, database=None, phases=[Phase.generate]
            ),
        )


@st.composite
def bound_scenes(draw):
    """A hard or soft query of net 1 whose targets sit behind up to two
    concentric walls of other nets' copper.

    Inside out: the targets (one to three pins, or now and then a wire
    of ``FLOOD_CAP + 1`` cells of net 1), a pocket of free cells that
    random walks from them enter, a wall round it, a moat of the free
    cells next to that wall, and a second wall round the moat.  Walls
    mix wires of nets 2 and 4, wires of the frozen net 3, net 2 pins,
    obstacles and the odd free cell, or hold only cells no search may
    enter.  The rest of the grid adds more of each and net 1 copper, cells of components other than the source's,
    some of them next to the pocket.  The sources are the source pin's
    component, now and then with a free cell.  Costs are tie-prone.
    Returns the grid, the sources, the targets, the query and the number
    of walls.
    """
    many = draw(st.integers(0, 5)) == 0
    if many:
        width = draw(st.integers(FLOOD_CAP + 2, FLOOD_CAP + 4))
        height = draw(st.integers(3, 4))
    else:
        width, height = draw(st.integers(3, 10)), draw(st.integers(3, 8))
    nodes = [
        (x, y, z) for z in (0, 1) for y in range(height) for x in range(width)
    ]
    grid = RoutingGrid(width, height)
    if many:
        y, z = draw(st.integers(0, height - 1)), draw(st.integers(0, 1))
        x0 = draw(st.integers(0, width - FLOOD_CAP - 1))
        targets = [(x, y, z) for x in range(x0, x0 + FLOOD_CAP + 1)]
        grid.commit_path(1, GridPath(targets))
    else:
        targets = draw(
            st.lists(st.sampled_from(nodes), min_size=1, max_size=3,
                     unique=True)
        )
        for node in targets:
            grid.reserve_pin(1, node)
    source = draw(st.sampled_from([n for n in nodes if grid.owner(n) == 0]))
    grid.reserve_pin(1, source)
    wire_nets = st.sampled_from((2, 4))
    inside = set(targets)
    for target in targets[:3]:
        cell = target
        for _ in range(draw(st.integers(0, 3))):
            cell = draw(st.sampled_from(_neighbours(cell, width, height)))
            if grid.owner(cell) != 0:
                break
            inside.add(cell)
    walls = draw(st.integers(0, 2))
    for wall in range(walls):
        ring = {
            near
            for cell in inside
            for near in _neighbours(cell, width, height)
            if near not in inside and grid.owner(near) == 0
        }
        fills = st.sampled_from(
            draw(st.sampled_from((SOFT_WALL_FILLS, SEALED_WALL_FILLS)))
        )
        for cell in sorted(ring):
            _fill(grid, cell, draw(fills), draw(wire_nets))
        inside |= ring
        if wall == 0:  # the moat between the walls stays free
            inside |= {
                near
                for cell in ring
                for near in _neighbours(cell, width, height)
                if grid.owner(near) == 0
            }
    rest = draw(
        st.dictionaries(
            st.sampled_from(nodes),
            st.sampled_from(("obstacle", "wire", "frozen", "pin", "own")),
            max_size=len(nodes) // 4,
        )
    )
    for node, fill in rest.items():
        if grid.owner(node) == 0 and (fill == "own" or node not in inside):
            _fill(grid, node, fill, draw(wire_nets))
    sources = sorted(grid.connected_component(1, source))
    free = [node for node in nodes if grid.owner(node) == 0]
    if free and draw(st.integers(0, 5)) == 0:
        sources.append(draw(st.sampled_from(free)))
    query = dict(
        cost=CostModel(
            wrong_way_penalty=draw(st.sampled_from((0, 2))),
            via_cost=draw(st.sampled_from((1, 4))),
            conflict_penalty=draw(st.sampled_from((0, 1, 50))),
        ),
        allow_conflicts=draw(st.booleans()),
        frozen_nets=frozenset({3}),
        net_penalties=draw(st.sampled_from((None, {2: 17}, {2: 1, 4: 9}))),
    )
    return grid, sources, targets, query, walls


def _bound_outcomes(grid, sources, targets, query, walls):
    """The tags of what the backward search does on a scene."""
    settled, stop, rest = backward_oracle(grid, sources, targets, **query)
    tags = {stop}
    if len(set(targets)) > FLOOD_CAP:
        tags.add("more than FLOOD_CAP targets")
    if stop == "drained":
        tags.add("drained, soft" if query["allow_conflicts"] else
                 "drained, hard")
    if stop in ("source", "cap"):
        found = plain_search(grid, sources, targets, **query)[0]
        if found and rest > 0 and walls == 2:
            tags.add("bounded behind two walls")
    ends = {*sources, *targets}
    if any(grid.owner(node) == 1 and node not in ends for node in settled):
        tags.add("own copper of another component")
    return tags


class TestBackwardSearch:
    """Every search between copper of its net searches back from its
    targets first, then runs A* with a heuristic raised by the exact
    excess it settled: the plain search's answer, in no more
    expansions, in hard and soft mode alike."""

    @pytest.mark.parametrize("name", BACKENDS)
    @settings(max_examples=400, deadline=None)
    @given(scene=bound_scenes())
    def test_same_answer_as_the_plain_search(self, name, scene):
        grid, sources, targets, query, _walls = scene
        result = find_path(grid, 1, sources, targets, kernel=name, **query)
        _assert_plain_answer(result, grid, sources, targets, query)
        assert result.flood_visits <= SETTLE_CAP

    @pytest.mark.parametrize(
        "outcome",
        [
            "bounded behind two walls",
            "own copper of another component",
            "cap",
            "drained, hard",
            "drained, soft",
            "source",
            "more than FLOOD_CAP targets",
        ],
    )
    def test_scenes_reach_each_outcome(self, outcome):
        find(
            bound_scenes(),
            lambda scene: outcome in _bound_outcomes(*scene),
            settings=settings(
                max_examples=3000, database=None, phases=[Phase.generate]
            ),
        )

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
    def test_the_cap_stops_it(self, name, soft):
        """On an open grid the source pin lies 18 steps from the
        target's and well past ``SETTLE_CAP`` settled nodes, so the
        search stops at the cap, with keys still open."""
        grid = RoutingGrid(12, 8)
        grid.reserve_pin(1, (0, 0, 0))
        grid.reserve_pin(1, (11, 7, 0))
        query = dict(cost=CostModel(), allow_conflicts=soft)
        ends = ([(0, 0, 0)], [(11, 7, 0)])
        assert backward_oracle(grid, *ends, **query)[1] == "cap"
        result = find_path(grid, 1, *ends, kernel=name, **query)
        assert result.flood_visits == SETTLE_CAP
        _assert_plain_answer(result, grid, *ends, query)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_tie_keeps_the_plain_parent_in_a_hard_search(self, name):
        """Two walks of cost 4 join the source pin S to the target pin T
        round the obstacle between them: along row 1 of layer 0, or
        through layer 1.  Plain A* records the layer 1 walk.  The
        backward search raises the heuristic on row 1 less than on the
        vias, so the bounded search records the row 1 walk in its own
        parent plane; the min-key backtrack returns the plain path.

        Layer 0: ``T # S / . . . / . . .``; layer 1 is free.
        """
        grid = RoutingGrid(3, 3)
        grid.set_obstacle(1, 0, 0)
        grid.reserve_pin(1, (0, 0, 0))
        grid.reserve_pin(1, (2, 0, 0))
        query = dict(
            cost=CostModel(wrong_way_penalty=0, via_cost=1),
            allow_conflicts=False,
        )
        ends = ([(2, 0, 0)], [(0, 0, 0)])
        result = find_path(grid, 1, *ends, kernel=name, **query)
        assert list(result.path) == [
            (2, 0, 0), (2, 0, 1), (1, 0, 1), (0, 0, 1), (0, 0, 0)
        ]
        _assert_plain_answer(result, grid, *ends, query)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_it_stops_at_the_first_settled_source(self, name):
        """A corridor on layer 0, obstacles all round: the search settles
        the target pin (7, 1, 0) and the three cells before the source
        pin (3, 1, 0), then that pin, and stops there with (2, 1, 0)
        still open.  A* then follows the exact excess straight in."""
        grid = RoutingGrid(8, 3)
        for y in range(3):
            for x in range(8):
                grid.set_obstacle(x, y, 1)
                if y != 1:
                    grid.set_obstacle(x, y, 0)
        grid.reserve_pin(1, (3, 1, 0))
        grid.reserve_pin(1, (7, 1, 0))
        ends = ([(3, 1, 0)], [(7, 1, 0)])
        query = dict(cost=CostModel(), allow_conflicts=False)
        result = find_path(grid, 1, *ends, kernel=name, **query)
        assert (result.flood_visits, result.expansions) == (5, 4)
        assert list(result.path) == [(x, 1, 0) for x in range(3, 8)]
        _assert_plain_answer(result, grid, *ends, query)


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
