"""Tests for the final improvement phase."""

import pytest

from repro.analysis import verify_routing
from repro.core import improve_routing, path_cost, route_problem
from repro.grid import GridPath
from repro.maze import CostModel
from repro.netlist import Net, Pin, RoutingProblem
from repro.netlist.generators import woven_switchbox
from repro.netlist.instances import small_switchbox


def node_walk_cost(path, model):
    """The cost of ``path`` read off its nodes: a via, or a wire step
    with or against the layer's grain."""
    total = 0
    for a, b in zip(path.nodes, path.nodes[1:]):
        if a.layer != b.layer:
            total += model.via_cost
        else:
            with_grain = (a.y == b.y) == (int(a.layer) == 0)
            total += model.wire_step(with_grain)
    return total


class TestPathCost:
    def test_trivial_path(self):
        assert path_cost(None, CostModel(), 1, 1) == 0
        assert path_cost(GridPath([(0, 0, 0)]), CostModel(), 1, 1) == 0

    def test_with_grain_steps(self):
        model = CostModel(wrong_way_penalty=2, via_cost=5)
        east_on_h = GridPath([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
        assert path_cost(east_on_h, model, 3, 2) == 2
        north_on_h = GridPath([(0, 0, 0), (0, 1, 0)])
        assert path_cost(north_on_h, model, 3, 2) == 3  # wrong-way
        via = GridPath([(0, 0, 0), (0, 0, 1)])
        assert path_cost(via, model, 3, 2) == 5

    @pytest.mark.parametrize(
        "nodes, width, height, cost",
        [
            # 1 x 1: the only move is a via, a step of W * H = 1.
            ([(0, 0, 0), (0, 0, 1)], 1, 1, 5),
            # 1 wide: a y step is a step of 1, not an x step.
            ([(0, 0, 1), (0, 1, 1), (0, 2, 1)], 1, 7, 2),
            ([(0, 0, 0), (0, 1, 0), (0, 1, 1)], 1, 2, 3 + 5),
            # 1 high: a via is a step of W, not a y step.
            ([(0, 0, 0), (1, 0, 0), (1, 0, 1)], 7, 1, 1 + 5),
            ([(0, 0, 1), (1, 0, 1)], 2, 1, 3),
        ],
        ids=["1x1-via", "1x7-with-grain", "1x2-wrong-way", "7x1-via",
             "2x1-wrong-way"],
    )
    def test_one_wide_and_one_high_grids(self, nodes, width, height, cost):
        model = CostModel(wrong_way_penalty=2, via_cost=5)
        path = GridPath(nodes)
        assert path_cost(path, model, width, height) == cost
        assert node_walk_cost(path, model) == cost

    def test_matches_search_cost(self):
        """A* reports exactly the cost `path_cost` computes for its path."""
        from repro.grid import RoutingGrid
        from repro.maze import find_path

        grid = RoutingGrid(10, 8)
        grid.set_obstacle(4, 0)
        grid.set_obstacle(4, 1)
        result = find_path(grid, 1, [(0, 0, 0)], [(9, 3, 1)])
        assert result.found
        assert path_cost(result.path, CostModel(), 10, 8) == result.cost

    @pytest.mark.parametrize(
        "name", ["chan-dogleg", "sb-burstein", "reg-obstacle", "fig-channel"]
    )
    def test_equals_node_walk_on_routed_paths(self, name):
        """On every routed path of a bench case, the flat-id price equals
        the node walk's, under the default and a skewed model."""
        from repro.bench import bench_cases

        case = next(c for c in bench_cases() if c.name == name)
        result = route_problem(case.build())
        width, height = result.grid.width, result.grid.height
        paths = [c.path for c in result.connections if c.path is not None]
        assert paths
        for model in (CostModel(), CostModel(wrong_way_penalty=3, via_cost=7)):
            for path in paths:
                assert path_cost(path, model, width, height) == (
                    node_walk_cost(path, model)
                )


class TestImproveRouting:
    def test_monotone_and_verified(self):
        spec = woven_switchbox(14, 10, 12, seed=5, tangle=0.6)
        problem = spec.to_problem()
        result = route_problem(problem)
        assert result.success
        before = verify_routing(problem, result.grid)
        assert before.ok
        stats = improve_routing(result)
        assert stats.cost_after <= stats.cost_before
        after = verify_routing(problem, result.grid)
        assert after.ok, after.errors

    def test_detour_gets_straightened(self):
        """Force a detour by pre-blocking, then unblock-equivalent: route
        two nets where the first takes a long way; improvement shortens
        what it can without breaking anything."""
        problem = RoutingProblem(
            12,
            8,
            nets=[
                Net("a", (Pin(0, 0), Pin(11, 0))),
                Net("b", (Pin(5, 0), Pin(5, 7))),
            ],
        )
        result = route_problem(problem)
        assert result.success
        stats = improve_routing(result)
        assert stats.cost_saved >= 0

    def test_redundant_connection_removed(self):
        """Three pins in a line: after routing, a detoured middle link can
        become redundant; improvement must detect connectivity through
        sibling copper."""
        spec = small_switchbox()
        problem = spec.to_problem()
        result = route_problem(problem)
        stats = improve_routing(result, passes=3)
        # no guarantee of redundancy here; the invariant is verification
        assert verify_routing(problem, result.grid).ok
        assert stats.passes >= 1

    def test_zero_passes_noop(self):
        problem = small_switchbox().to_problem()
        result = route_problem(problem)
        stats = improve_routing(result, passes=0)
        assert stats.rerouted == 0
        assert stats.cost_before == stats.cost_after

    def test_negative_passes_rejected(self):
        problem = small_switchbox().to_problem()
        result = route_problem(problem)
        with pytest.raises(ValueError):
            improve_routing(result, passes=-1)

    def test_summary_text(self):
        problem = small_switchbox().to_problem()
        result = route_problem(problem)
        stats = improve_routing(result)
        assert "improvement:" in stats.summary()

    def test_failed_connections_untouched(self):
        from repro.geometry import Rect
        from repro.netlist.problem import Obstacle

        obstacles = [Obstacle(Rect(0, 1, 2, 2)), Obstacle(Rect(1, 0, 2, 1))]
        problem = RoutingProblem(
            10,
            8,
            nets=[
                Net("boxed", (Pin(0, 0), Pin(9, 7))),
                Net("ok", (Pin(3, 0), Pin(3, 7))),
            ],
            obstacles=obstacles,
        )
        result = route_problem(problem)
        assert not result.success
        stats = improve_routing(result)
        assert stats.cost_after <= stats.cost_before
        boxed = next(c for c in result.connections if c.net_name == "boxed")
        assert not boxed.routed
