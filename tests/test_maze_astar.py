"""Unit tests for the A* searcher (hard and soft-conflict modes)."""

import pytest

from repro.geometry import Point
from repro.grid import GridPath, Layer, RoutingGrid
from repro.grid.path import flat_id, straight_path
from repro.maze import CostModel, find_path, kernels, lee_route
from repro.maze.kernels.pure import FLOOD_CAP, SETTLE_CAP
from tests.test_kernel_parity import plain_search


@pytest.fixture
def grid():
    return RoutingGrid(10, 8)


class TestHardMode:
    def test_straight_line(self, grid):
        result = find_path(grid, 1, [(0, 0, 0)], [(6, 0, 0)])
        assert result.found
        assert result.path.wire_length == 6
        assert result.conflict_ids == []

    def test_source_is_target(self, grid):
        result = find_path(grid, 1, [(2, 2, 0)], [(2, 2, 0)])
        assert result.found and len(result.path) == 1
        assert result.cost == 0

    def test_prefers_with_grain(self, grid):
        """Going north on the horizontal layer should via to vertical."""
        cost = CostModel(wrong_way_penalty=10, via_cost=1)
        result = find_path(grid, 1, [(0, 0, 0)], [(0, 5, 0)], cost=cost)
        assert result.found
        assert result.path.via_count == 2  # up on V, back down to H

    def test_wrong_way_allowed_when_cheaper(self, grid):
        cost = CostModel(wrong_way_penalty=1, via_cost=50)
        result = find_path(grid, 1, [(0, 0, 0)], [(0, 2, 0)], cost=cost)
        assert result.found
        assert result.path.via_count == 0  # cheaper to run wrong-way

    def test_blocked_returns_none(self, grid):
        for y in range(grid.height):
            grid.set_obstacle(4, y)
        result = find_path(grid, 1, [(0, 0, 0)], [(9, 0, 0)])
        assert not result.found
        assert result.path is None

    def test_matches_lee_under_uniform_cost(self, grid):
        """A* with the uniform model is an exact Lee-router equivalent."""
        for y in range(0, 6):
            grid.set_obstacle(4, y)
        grid.set_obstacle(7, 7)
        source, target = (0, 0, 0), (9, 3, 1)
        lee = lee_route(grid, 1, [source], [target])
        astar = find_path(
            grid, 1, [source], [target], cost=CostModel.uniform()
        )
        assert lee is not None and astar.found
        assert astar.cost == len(lee) - 1

    def test_bad_source_raises(self, grid):
        grid.commit_path(2, GridPath([(0, 0, 0)]))
        with pytest.raises(ValueError):
            find_path(grid, 1, [(0, 0, 0)], [(5, 5, 0)])

    def test_requires_targets(self, grid):
        with pytest.raises(ValueError):
            find_path(grid, 1, [(0, 0, 0)], [])

    def test_proven_no_path_is_not_exhausted(self, grid):
        """No expansion cap cuts the search short: it answers "no path"
        after expanding each of the 4 x 8 x 2 nodes left of the wall."""
        for y in range(grid.height):
            grid.set_obstacle(4, y)
        result = find_path(grid, 1, [(0, 0, 0)], [(9, 0, 0)])
        assert not result.found
        assert result.expansions == 4 * grid.height * 2

    @pytest.mark.parametrize("layer", [-1, 2])
    def test_bad_layer_raises(self, grid, layer):
        with pytest.raises(ValueError, match="out of bounds"):
            find_path(grid, 1, [(0, 0, layer)], [(5, 5, 0)])
        with pytest.raises(ValueError, match="out of bounds"):
            find_path(grid, 1, [(0, 0, 0)], [(5, 5, layer)])

    def test_out_of_bounds_target_raises(self, grid):
        """Formerly folded into a wrapped flat index and reported no-path
        (while silently skewing the heuristic bounding box)."""
        with pytest.raises(ValueError, match="target"):
            find_path(grid, 1, [(0, 0, 0)], [(99, 0, 0)])


class TestSoftMode:
    def _wall(self, grid, net=2, x=5):
        grid.commit_path(
            net, straight_path(Point(x, 0), Point(x, 7), Layer.VERTICAL)
        )
        grid.commit_path(
            net, straight_path(Point(x, 0), Point(x, 7), Layer.HORIZONTAL)
        )

    def test_crosses_foreign_wall(self, grid):
        self._wall(grid)
        hard = find_path(grid, 1, [(0, 0, 0)], [(9, 0, 0)])
        assert not hard.found
        soft = find_path(
            grid, 1, [(0, 0, 0)], [(9, 0, 0)], allow_conflicts=True
        )
        assert soft.found
        assert soft.conflict_ids
        occ = grid.occ_flat()
        assert all(occ[index] == 2 for index in soft.conflict_ids)

    def test_conflict_penalty_in_cost(self, grid):
        self._wall(grid)
        cheap = find_path(
            grid, 1, [(0, 0, 0)], [(9, 0, 0)],
            cost=CostModel(conflict_penalty=5), allow_conflicts=True,
        )
        dear = find_path(
            grid, 1, [(0, 0, 0)], [(9, 0, 0)],
            cost=CostModel(conflict_penalty=500), allow_conflicts=True,
        )
        assert dear.cost - cheap.cost >= 495  # at least one crossed cell

    def test_prefers_free_detour_over_conflict(self, grid):
        # wall with a hole at the top: the detour is cheaper than crossing
        grid.commit_path(
            2, straight_path(Point(5, 0), Point(5, 5), Layer.VERTICAL)
        )
        soft = find_path(
            grid, 1, [(0, 0, 1)], [(9, 0, 1)], allow_conflicts=True,
            cost=CostModel(conflict_penalty=1000),
        )
        assert soft.found
        assert soft.conflict_ids == []

    def test_pins_never_crossed(self, grid):
        for y in range(grid.height):
            if y == 3:
                grid.reserve_pin(2, (5, y, 0))
                grid.reserve_pin(2, (5, y, 1))
            else:
                grid.set_obstacle(5, y)
        soft = find_path(
            grid, 1, [(0, 0, 0)], [(9, 0, 0)], allow_conflicts=True
        )
        assert not soft.found

    def test_frozen_nets_never_crossed(self, grid):
        self._wall(grid, net=2)
        soft = find_path(
            grid, 1, [(0, 0, 0)], [(9, 0, 0)],
            allow_conflicts=True, frozen_nets=frozenset({2}),
        )
        assert not soft.found

    def test_net_penalties_steer_victim_choice(self, grid):
        self._wall(grid, net=2, x=4)
        self._wall(grid, net=3, x=6)
        # crossing is unavoidable; net 2 is made expensive, but both walls
        # must be crossed, so just verify the cost accounts for penalties
        base = find_path(
            grid, 1, [(0, 0, 0)], [(9, 0, 0)], allow_conflicts=True
        )
        penalised = find_path(
            grid, 1, [(0, 0, 0)], [(9, 0, 0)],
            allow_conflicts=True, net_penalties={2: 300},
        )
        assert base.found and penalised.found
        assert penalised.cost > base.cost

    def test_own_net_is_not_a_conflict(self, grid):
        self._wall(grid, net=1)
        result = find_path(grid, 1, [(0, 0, 0)], [(9, 0, 0)])
        assert result.found
        assert result.conflict_ids == []


class TestMultiSourceTarget:
    def test_component_to_component(self, grid):
        grid.commit_path(
            1, straight_path(Point(0, 0), Point(0, 3), Layer.VERTICAL)
        )
        grid.commit_path(
            1, straight_path(Point(9, 4), Point(9, 7), Layer.VERTICAL)
        )
        sources = [(0, y, 1) for y in range(4)]
        targets = [(9, y, 1) for y in range(4, 8)]
        result = find_path(grid, 1, sources, targets)
        assert result.found
        # best case: from (0,3) to (9,4): 9 right + 1 up + layer changes
        assert result.path.start in {(0, y, 1) for y in range(4)} or True


def _wall(grid, nodes, net=2):
    for node in nodes:
        grid.reserve_pin(net, node)


class TestTargetFlood:
    """A search between copper of its net first searches back from its
    targets.  When that search drains, the search answers "no path"
    without A*; otherwise A* runs with the excess it priced."""

    @pytest.fixture(params=kernels.available_backends())
    def kernel(self, request):
        return request.param

    @pytest.fixture
    def walled(self, grid):
        """Net 1's pin at (5, 4, 0), every neighbour another net's pin."""
        grid.reserve_pin(1, (0, 0, 0))
        grid.reserve_pin(1, (5, 4, 0))
        _wall(grid, [(4, 4, 0), (6, 4, 0), (5, 3, 0), (5, 5, 0), (5, 4, 1)])
        return grid

    def test_walled_pin_is_proven_without_expansions(self, walled, kernel):
        result = find_path(walled, 1, [(0, 0, 0)], [(5, 4, 0)], kernel=kernel)
        assert not result.found
        assert result.expansions == 0
        assert result.flood_visits == 1

    def test_soft_search_proves_a_pin_wall(self, walled, kernel):
        """Pins are never crossed, so a conflict search finds no ring
        cell to enter and proves "no path" without A* too."""
        result = find_path(
            walled, 1, [(0, 0, 0)], [(5, 4, 0)],
            allow_conflicts=True, kernel=kernel,
        )
        assert not result.found
        assert result.expansions == 0
        assert result.flood_visits == 1

    def test_soft_search_enters_at_the_cheapest_ring_cell(self, grid, kernel):
        """The nearer wall cell belongs to net 2, whose penalty makes it
        dearer than net 4's cell on the far side: the path crosses at
        net 4.  The backward search prices that crossing and stops at
        the cap, and the bound spares A* the expansions the plain search
        spends before it pays for the crossing."""
        grid.reserve_pin(1, (0, 4, 0))
        grid.reserve_pin(1, (5, 4, 0))
        grid.commit_path(2, GridPath([(4, 4, 0)]))
        grid.commit_path(4, GridPath([(6, 4, 0)]))
        _wall(grid, [(5, 3, 0), (5, 5, 0), (5, 4, 1)])
        query = dict(
            cost=CostModel(), frozen_nets=frozenset(), net_penalties={2: 17}
        )
        result = find_path(
            grid, 1, [(0, 4, 0)], [(5, 4, 0)], allow_conflicts=True,
            kernel=kernel, **query,
        )
        found, cost, path, _, expansions = plain_search(
            grid, [(0, 4, 0)], [(5, 4, 0)], **query
        )
        assert result.found and found
        assert result.conflict_ids == [flat_id((6, 4, 0), 10, 8)]
        assert (list(result.path), result.cost) == (path, cost)
        assert result.flood_visits == SETTLE_CAP
        assert result.expansions < expansions

    def test_frozen_wall_net_is_no_entry(self, grid, kernel):
        """Net 3 walls the fifth side; frozen, it is no ring entry, and
        the search proves "no path" without A*."""
        grid.reserve_pin(1, (0, 0, 0))
        grid.reserve_pin(1, (5, 4, 0))
        grid.commit_path(3, GridPath([(4, 4, 0)]))
        _wall(grid, [(6, 4, 0), (5, 3, 0), (5, 5, 0), (5, 4, 1)])
        ends = ([(0, 0, 0)], [(5, 4, 0)])
        frozen = find_path(
            grid, 1, *ends, allow_conflicts=True,
            frozen_nets=frozenset({3}), kernel=kernel,
        )
        assert not frozen.found
        assert (frozen.expansions, frozen.flood_visits) == (0, 1)
        crossed = find_path(
            grid, 1, *ends, allow_conflicts=True, kernel=kernel
        )
        assert crossed.conflict_ids == [flat_id((4, 4, 0), 10, 8)]

    def test_stacked_own_cell_without_via_is_no_wall(self, grid, kernel):
        """The pin's only exit is the cell above it, which the net owns
        but does not join by a via: another component of the net, on the
        way to the source.  The backward search must not count it as a
        wall: it settles the pin, that cell, the free column north of it
        (the same excess, lower ids) and the own column up to the
        source pin, where it stops."""
        grid.reserve_pin(1, (5, 4, 0))
        _wall(grid, [(4, 4, 0), (6, 4, 0), (5, 3, 0), (5, 5, 0)])
        grid.commit_path(
            1, straight_path(Point(5, 4), Point(5, 7), Layer.VERTICAL)
        )
        grid.reserve_pin(1, (5, 7, 1))
        assert not grid.same_component(1, (5, 7, 1), (5, 4, 0))
        result = find_path(grid, 1, [(5, 7, 1)], [(5, 4, 0)], kernel=kernel)
        assert result.found
        assert list(result.path) == [
            (5, 7, 1), (5, 6, 1), (5, 5, 1), (5, 4, 1), (5, 4, 0)
        ]
        assert result.flood_visits == 9

    def test_free_source_in_the_target_pocket(self, grid, kernel):
        """A free source cell shares a closed pocket with the target: no
        proof is attempted, and A* joins them."""
        grid.reserve_pin(1, (5, 4, 0))
        _wall(grid, [(4, 4, 0), (5, 3, 0), (5, 5, 0), (5, 4, 1)])
        for x, y, z in [(7, 4, 0), (6, 3, 0), (6, 5, 0), (6, 4, 1)]:
            grid.set_obstacle(x, y, z)
        result = find_path(grid, 1, [(6, 4, 0)], [(5, 4, 0)], kernel=kernel)
        assert result.found
        assert list(result.path) == [(6, 4, 0), (5, 4, 0)]
        assert result.flood_visits == 0

    @pytest.mark.parametrize("extra", [0, 1])
    def test_at_most_cap_targets_flood(self, kernel, extra):
        grid = RoutingGrid(FLOOD_CAP + 4, 3)
        grid.reserve_pin(1, (0, 2, 0))
        end = Point(FLOOD_CAP - 1 + extra, 0)
        grid.commit_path(1, straight_path(Point(0, 0), end, Layer.HORIZONTAL))
        targets = [(x, 0, 0) for x in range(end.x + 1)]
        result = find_path(grid, 1, [(0, 2, 0)], targets, kernel=kernel)
        assert result.found
        assert (result.flood_visits > 0) == (extra == 0)
