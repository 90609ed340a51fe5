"""Performance regression guards.

Loose wall-clock and work-count ceilings that catch accidental complexity
regressions (a quadratic slipping into a hot loop) without being flaky on
slow machines: every measured bound is ~10x the currently measured value.
The ``GridNode`` count is structural instead, so its bound is exact.
"""

import time

import pytest

from repro.bench import bench_cases
from repro.core import (
    MightyConfig,
    MightyRouter,
    improve_routing,
    route_problem,
    shard,
)
from repro.engine import EngineConfig, RoutingEngine
from repro.geometry.rect import Rect
from repro.geometry.region import RectilinearRegion
from repro.grid import GridNode, GridPath, RoutingGrid
from repro.grid.path import flat_id
from repro.maze import find_path, kernels
from repro.netlist.generators import (
    deutsch_class_channel,
    random_switchbox,
    woven_switchbox,
)
from repro.netlist.net import Net, Pin
from repro.netlist.problem import Obstacle, RoutingProblem


class TestSearchWork:
    def test_astar_open_field_expansions_near_linear(self):
        """With an admissible heuristic, an open-field straight-line query
        must not flood the grid."""
        grid = RoutingGrid(100, 50)
        result = find_path(grid, 1, [(0, 25, 0)], [(99, 25, 0)])
        assert result.found
        # straight-line: expansions within a small multiple of path length
        assert result.expansions < 20 * 100

    def test_astar_worst_case_bounded_by_grid(self):
        grid = RoutingGrid(60, 40)
        for y in range(1, 40):
            grid.set_obstacle(30, y)
        result = find_path(grid, 1, [(0, 39, 0)], [(59, 39, 0)])
        assert result.found
        assert result.expansions <= 2 * 2 * 60 * 40  # nodes, with slack


    def test_soft_search_prices_both_walls(self):
        """Net 1's target pin (30, 10, 0) is shut in by obstacles but for
        a door of net 2's wire at (29, 10, 0); the two free cells behind
        it are shut in the same way but for a door of net 4's wire at
        (26, 10, 0).  The soft search from (0, 10, 0) crosses both.
        Priced at the first door only, it popped 1,649 nodes (1,648
        expansions and one flood visit); searched back from the target,
        both doors are priced, and it pops 61."""
        grid = RoutingGrid(40, 21)
        for y in range(9, 12):
            for x in range(26, 32):
                for z in (0, 1):
                    if z == 1 or y != 10 or x == 31:
                        grid.set_obstacle(x, y, z)
        grid.reserve_pin(1, (0, 10, 0))
        grid.reserve_pin(1, (30, 10, 0))
        grid.commit_path(2, GridPath([(29, 10, 0)]))
        grid.commit_path(4, GridPath([(26, 10, 0)]))
        result = find_path(
            grid, 1, [(0, 10, 0)], [(30, 10, 0)], allow_conflicts=True
        )
        assert result.found and result.cost == 130
        assert result.conflict_ids == [flat_id((26, 10, 0), 40, 21),
                                       flat_id((29, 10, 0), 40, 21)]
        assert result.expansions + result.flood_visits <= 300


class TestKernelCalls:
    @pytest.mark.skipif(
        "compiled" not in kernels.available_backends(),
        reason="backend 'compiled' unavailable",
    )
    def test_one_compiled_call_of_one_argument_per_search(
        self, monkeypatch
    ):
        """Each search of a compiled route is one call of the C kernel
        with one argument, the address of the thread's call block.  It
        used to pass 31 ctypes arguments, about 5 us of conversion per
        search on a 2-vCPU x86_64 VM."""
        from repro.maze.kernels import compiled

        arities = []
        real = compiled._lib.repro_astar

        def spy(*args):
            arities.append(len(args))
            return real(*args)

        monkeypatch.setattr(compiled._lib, "repro_astar", spy)
        monkeypatch.setenv(kernels.ENV_VAR, "compiled")
        kernels._reset_for_tests()
        try:
            problem = random_switchbox(
                23, 15, 24, seed=3, fill=0.5
            ).to_problem()
            result = MightyRouter(problem).route()
        finally:
            kernels._reset_for_tests()
        assert result.stats.kernel_backend == "compiled"
        assert result.stats.searches > 100
        assert arities == [1] * result.stats.searches


class TestKernelResolution:
    def test_resolved_default_backend_takes_no_lock(self, monkeypatch):
        """Once the first search has resolved the default backend, later
        searches read it without entering ``kernels._lock``: under the
        lock ``resolve_kernel(None)`` cost 0.29 us a call against 0.03 us
        for the bare read (timeit, 2-vCPU x86_64 VM)."""
        grid = RoutingGrid(10, 4)
        assert find_path(grid, 1, [(0, 0, 0)], [(9, 3, 0)]).found
        real = kernels._lock
        entered = 0

        class CountingLock:
            def __enter__(self):
                nonlocal entered
                entered += 1
                return real.__enter__()

            def __exit__(self, *exc_info):
                return real.__exit__(*exc_info)

        monkeypatch.setattr(kernels, "_lock", CountingLock())
        for _ in range(3):
            assert find_path(grid, 1, [(0, 0, 0)], [(9, 3, 0)]).found
        assert entered == 0


_NODE_WORK_CASES = pytest.mark.parametrize(
    "build",
    [
        lambda: random_switchbox(23, 15, 24, seed=3, fill=0.5).to_problem(),
        next(c for c in bench_cases() if c.name == "fig-channel").build,
    ],
    ids=["sb-scatter-50", "fig-channel"],
)


def _count_grid_nodes(run):
    """``(run(), GridNode objects built while it ran)``."""
    original = vars(GridNode)["__new__"]
    real_new = GridNode.__new__
    built = 0

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return real_new(cls, *args, **kwargs)

    GridNode.__new__ = counting_new
    try:
        value = run()
    finally:
        type.__setattr__(GridNode, "__new__", original)
    return value, built


class TestNodeWork:
    """The router and the improver carry flat node ids from component to
    commit.  The router builds a ``GridNode`` only for each connection's
    two endpoint pins, however many searches, rips and reroutes it runs
    (before flat ids it built 2362 on sb-scatter-50 and 125342 on
    fig-channel); a two-pass improvement builds none (it built 3172 and
    3843 while it converted components to nodes and back)."""

    @_NODE_WORK_CASES
    def test_at_most_two_grid_nodes_per_connection(self, build):
        router = MightyRouter(build())
        result, built = _count_grid_nodes(router.route)
        assert result.stats.searches > result.stats.connections
        assert built <= 2 * result.stats.connections

    @_NODE_WORK_CASES
    def test_improvement_builds_no_grid_node(self, build):
        result = MightyRouter(build()).route()
        stats, built = _count_grid_nodes(
            lambda: improve_routing(result, passes=2)
        )
        assert stats.passes >= 1
        assert built == 0

    @pytest.mark.parametrize(
        "name, transposed",
        [
            ("reg-woven-1", False),
            ("scale-23x15", False),
            ("scale-30x20", False),
            ("scale-stitch-560", False),
            ("reg-woven-1", True),
            ("scale-23x15", True),
            ("scale-30x20", True),
        ],
    )
    def test_shard_polish_scope_builds_no_grid_node(
        self, name, transposed, monkeypatch
    ):
        """The stitch polish picks its connections from flat ids (walking
        ``path.nodes`` built 9,279 nodes on scale-stitch-560), and picks
        the ones a node walk picks, in the same order.  The bench cases
        are cut across x; transposed, across y."""
        calls = []
        select = shard._boundary_scope

        def spy(result, plan):
            calls.append((result, plan))
            return select(result, plan)

        monkeypatch.setattr(shard, "_boundary_scope", spy)
        problem = next(c for c in bench_cases() if c.name == name).build()
        if transposed:
            problem = _transposed(problem)
        assert shard.route_problem_sharded(problem, shards=4, workers=1)
        [(result, plan)] = calls
        assert plan.axis == ("y" if transposed else "x")
        scope, built = _count_grid_nodes(lambda: select(result, plan))
        assert built == 0
        assert scope and scope == _node_walk_scope(result, plan)


def _transposed(problem):
    """``problem`` with x and y swapped."""

    def swap(rect):
        return Rect(rect.y0, rect.x0, rect.y1, rect.x1)

    region = problem.region
    return RoutingProblem(
        width=problem.height,
        height=problem.width,
        nets=[
            Net(net.name, tuple(Pin(p.y, p.x, p.layer) for p in net.pins))
            for net in problem.nets
        ],
        obstacles=[Obstacle(swap(o.rect), o.layer) for o in problem.obstacles],
        region=None if region is None else RectilinearRegion(
            [swap(rect) for rect in region.to_rects()]
        ),
        name=problem.name + "-transposed",
    )


def _node_walk_scope(result, plan):
    """Connections with a path node within the halo of a cut, walked
    node by node."""
    scope = []
    for connection in result.connections:
        if connection.path is None:
            continue
        for node in connection.path.nodes:
            coord = node.x if plan.axis == "x" else node.y
            if any(abs(coord - cut) <= plan.halo_width for cut in plan.cuts):
                scope.append(connection)
                break
    return scope


class TestEngineWork:
    """The engine pauses an attempt that has stopped converging and tries
    the next ordering before resuming it.  On ``fig-channel`` the
    shortest-first attempt used to run its full 1643 iterations (461,622
    expansions) before the longest-first attempt completed in 51; now it
    pauses at 173 and the two attempts spend 224 and 56,441."""

    def test_fig_channel_attempt_work(self):
        case = next(c for c in bench_cases() if c.name == "fig-channel")
        result = RoutingEngine(EngineConfig()).route(case.build())
        assert result.success
        log = result.stats.attempt_log
        assert sum(record["iterations"] for record in log) <= 300
        assert sum(record["expansions"] for record in log) <= 80_000


class TestRouterThroughput:
    def test_medium_switchbox_under_a_second(self):
        spec = woven_switchbox(23, 15, 24, seed=17, tangle=0.3)
        started = time.perf_counter()
        result = route_problem(spec.to_problem())
        elapsed = time.perf_counter() - started
        assert result.success
        assert elapsed < 5.0  # measured ~0.05s; 100x headroom

    def test_deutsch_class_channel_at_density_fast(self):
        """The headline run (174-column channel at density) must stay
        interactive: measured ~3s, capped at 60."""
        from repro.channels import MightyChannelRouter

        spec = deutsch_class_channel()
        started = time.perf_counter()
        result = MightyChannelRouter().route(spec, spec.density)
        elapsed = time.perf_counter() - started
        assert result.success, result.reason
        assert elapsed < 60.0

    def test_iterations_scale_with_connections(self):
        spec = woven_switchbox(30, 20, 34, seed=9, tangle=0.4)
        result = route_problem(spec.to_problem())
        assert result.success
        assert result.stats.iterations <= 50 * result.stats.connections


class TestInfeasibleHalt:
    def test_oversubscribed_box_halts_quickly(self):
        from repro.netlist.generators import random_switchbox

        spec = random_switchbox(20, 14, 24, seed=13, fill=0.95)
        config = MightyConfig(max_rips_per_net=8, retry_passes=2)
        started = time.perf_counter()
        route_problem(spec.to_problem(), config)
        assert time.perf_counter() - started < 30.0
