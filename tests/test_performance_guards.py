"""Performance regression guards.

Loose wall-clock and work-count ceilings that catch accidental complexity
regressions (a quadratic slipping into a hot loop) without being flaky on
slow machines: every measured bound is ~10x the currently measured value.
The ``GridNode`` count is structural instead, so its bound is exact.
"""

import time

import pytest

from repro.bench import bench_cases
from repro.core import MightyConfig, MightyRouter, route_problem
from repro.engine import EngineConfig, RoutingEngine
from repro.grid import GridNode, GridPath, RoutingGrid
from repro.grid.path import flat_id
from repro.maze import CostModel, find_path
from repro.netlist.generators import (
    deutsch_class_channel,
    random_switchbox,
    woven_switchbox,
)


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


class TestNodeWork:
    """The router carries flat node ids from component to commit: it
    builds a ``GridNode`` only for each connection's two endpoint pins,
    however many searches, rips and reroutes it runs.  (Before flat ids
    it built 2362 on sb-scatter-50 and 125342 on fig-channel.)"""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: random_switchbox(
                23, 15, 24, seed=3, fill=0.5
            ).to_problem(),
            next(c for c in bench_cases() if c.name == "fig-channel").build,
        ],
        ids=["sb-scatter-50", "fig-channel"],
    )
    def test_at_most_two_grid_nodes_per_connection(self, build):
        router = MightyRouter(build())
        original = vars(GridNode)["__new__"]
        real_new = GridNode.__new__
        built = 0

        def counting_new(cls, *args, **kwargs):
            nonlocal built
            built += 1
            return real_new(cls, *args, **kwargs)

        GridNode.__new__ = counting_new
        try:
            result = router.route()
        finally:
            type.__setattr__(GridNode, "__new__", original)
        assert result.stats.searches > result.stats.connections
        assert built <= 2 * result.stats.connections


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
