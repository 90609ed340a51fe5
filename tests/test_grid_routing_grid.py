"""Unit tests for the routing grid's occupancy bookkeeping."""

import pytest

from repro.geometry import Point, Rect, RectilinearRegion
from repro.grid import FREE, OBSTACLE, GridError, GridPath, Layer, RoutingGrid
from repro.grid.path import straight_path
from tests.bfs_oracle import connected_component


@pytest.fixture
def grid():
    return RoutingGrid(8, 6)


class TestConstruction:
    def test_rejects_bad_extents(self):
        with pytest.raises(ValueError):
            RoutingGrid(0, 5)

    def test_starts_free(self, grid):
        assert grid.is_free((0, 0, 0))
        assert grid.is_free((7, 5, 1))
        assert grid.net_ids() == []

    def test_region_blocks_outside_cells(self):
        region = RectilinearRegion(
            [Rect(0, 0, 4, 4)], remove=[Rect(0, 0, 1, 1)]
        )
        grid = RoutingGrid(5, 4, region=region)
        assert grid.owner((0, 0, 0)) == OBSTACLE
        assert grid.owner((0, 0, 1)) == OBSTACLE
        assert grid.owner((4, 0, 0)) == OBSTACLE  # outside region bbox
        assert grid.is_free((1, 1, 0))

    def test_region_must_fit(self):
        with pytest.raises(ValueError):
            RoutingGrid(2, 2, region=RectilinearRegion.rectangle(5, 5))


class TestCommitAndRip:
    def test_commit_claims_cells(self, grid):
        path = straight_path(Point(0, 0), Point(3, 0), Layer.HORIZONTAL)
        grid.commit_path(1, path)
        assert grid.owner((2, 0, 0)) == 1
        assert grid.owner((2, 0, 1)) == FREE
        assert grid.net_ids() == [1]

    def test_commit_collision_rejected_atomically(self, grid):
        grid.commit_path(1, straight_path(Point(0, 0), Point(3, 0), Layer.HORIZONTAL))
        crossing = straight_path(Point(2, 0), Point(2, 3), Layer.HORIZONTAL)
        with pytest.raises(GridError):
            grid.commit_path(2, crossing)
        # nothing of net 2 may remain
        assert grid.owner((2, 1, 0)) != 2
        assert 2 not in grid.net_ids()

    def test_commit_over_obstacle_rejected(self, grid):
        grid.set_obstacle(1, 0)
        with pytest.raises(GridError):
            grid.commit_path(
                1, straight_path(Point(0, 0), Point(2, 0), Layer.HORIZONTAL)
            )

    def test_commit_off_the_grid_rejected(self, grid):
        """A node past the row end is off the grid: it must not claim the
        next row's first cell."""
        leaving = straight_path(Point(6, 0), Point(8, 0), Layer.HORIZONTAL)
        with pytest.raises(GridError, match="outside"):
            grid.commit_path(1, leaving)
        assert grid.net_ids() == []

    def test_same_net_overlap_allowed(self, grid):
        a = straight_path(Point(0, 1), Point(5, 1), Layer.HORIZONTAL)
        b = straight_path(Point(3, 1), Point(5, 1), Layer.HORIZONTAL)
        grid.commit_path(1, a)
        grid.commit_path(1, b)
        grid.remove_path(1, b)
        # shared cells survive because `a` still references them
        assert grid.owner((4, 1, 0)) == 1
        grid.remove_path(1, a)
        assert grid.is_free((4, 1, 0))

    def test_rip_unowned_rejected(self, grid):
        path = straight_path(Point(0, 0), Point(2, 0), Layer.HORIZONTAL)
        with pytest.raises(GridError):
            grid.remove_path(1, path)

    @staticmethod
    def _stores(grid):
        return [
            grid.occ_flat()[:], grid.pin_flat()[:], grid._via[:],
            grid._use[:], grid._vuse[:],
        ]

    def test_rip_with_unowned_via_leaves_grid_untouched(self):
        """The via check runs before the first write: a refused rip must
        not leave the path's wire cells half freed."""
        grid = RoutingGrid(4, 3)
        grid.commit_path(1, GridPath([(0, 0, 0), (1, 0, 0)]))
        grid.commit_path(1, GridPath([(1, 0, 1), (1, 1, 1)]))
        before = self._stores(grid)
        with pytest.raises(GridError, match="via"):
            grid.remove_path(1, GridPath([(0, 0, 0), (1, 0, 0), (1, 0, 1)]))
        assert self._stores(grid) == before
        assert grid.owner((0, 0, 0)) == 1 and grid.owner((1, 0, 0)) == 1

    def test_rip_of_another_nets_cells_leaves_grid_untouched(self, grid):
        wire = GridPath([(0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 1)])
        grid.commit_path(1, wire)
        before = self._stores(grid)
        with pytest.raises(GridError):
            grid.remove_path(2, wire)
        with pytest.raises(GridError):
            grid.remove_path(2, GridPath([(1, 0, 0), (1, 0, 1)]))
        assert self._stores(grid) == before
        assert grid.same_component(1, (0, 0, 0), (1, 1, 1))

    def test_via_commit_and_rip(self, grid):
        via = GridPath([(2, 2, 0), (2, 2, 1)])
        grid.commit_path(3, via)
        assert grid.via_owner(2, 2) == 3
        grid.remove_path(3, via)
        assert grid.via_owner(2, 2) == FREE
        assert grid.is_free((2, 2, 0)) and grid.is_free((2, 2, 1))

    def test_via_collision_rejected(self, grid):
        grid.commit_path(1, GridPath([(2, 2, 0), (2, 2, 1)]))
        grid.remove_path(1, GridPath([(2, 2, 0), (2, 2, 1)]))
        grid.commit_path(1, GridPath([(2, 2, 0), (2, 2, 1)]))
        with pytest.raises(GridError):
            grid.commit_path(2, GridPath([(2, 2, 1), (2, 2, 0)]))

    def test_net_id_must_be_positive(self, grid):
        with pytest.raises(ValueError):
            grid.commit_path(0, GridPath([(0, 0, 0)]))
        with pytest.raises(ValueError):
            grid.commit_path(-1, GridPath([(0, 0, 0)]))


class TestPins:
    def test_reserve_pin(self, grid):
        grid.reserve_pin(2, (3, 0, 1))
        assert grid.owner((3, 0, 1)) == 2
        assert grid.pin_owner((3, 0, 1)) == 2
        assert grid.pin_owner((3, 0, 0)) == FREE

    def test_pin_survives_path_rip(self, grid):
        grid.reserve_pin(1, (0, 0, 1))
        path = straight_path(Point(0, 0), Point(0, 3), Layer.VERTICAL)
        grid.commit_path(1, path)
        grid.remove_path(1, path)
        assert grid.owner((0, 0, 1)) == 1  # the pin itself remains

    def test_pin_collision_rejected(self, grid):
        grid.reserve_pin(1, (3, 3, 0))
        with pytest.raises(GridError):
            grid.reserve_pin(2, (3, 3, 0))

    @pytest.mark.parametrize(
        "node", [(0, 0, -1), (0, 0, 2), (8, 0, 1), (-8, 2, 0)]
    )
    def test_node_off_the_grid_answers_like_one(self, grid, node):
        """Queries and pin claims treat a layer outside {0, 1} exactly
        like an x or y outside the grid.  A via query off the grid is
        ``FREE`` too: cells (8, 0) and (-8, 2) of this 8-wide grid would
        wrap onto the via at (0, 1)."""
        grid.reserve_pin(1, (0, 0, 1))
        grid.commit_path(1, GridPath([(0, 1, 0), (0, 1, 1)]))
        assert grid.pin_owner(node) == FREE
        assert grid.via_owner(node[0], node[1]) == FREE
        assert grid.component_nodes(1, node) == []
        assert not grid.same_component(1, node, (0, 0, 1))
        fresh = RoutingGrid(8, 6)
        with pytest.raises(GridError):
            fresh.reserve_pin(1, node)
        assert fresh.net_nodes(1) == []


class TestObstacles:
    def test_layer_specific(self, grid):
        grid.set_obstacle(1, 1, Layer.HORIZONTAL)
        assert grid.owner((1, 1, 0)) == OBSTACLE
        assert grid.is_free((1, 1, 1))

    def test_both_layers(self, grid):
        grid.set_obstacle(1, 1)
        assert grid.owner((1, 1, 0)) == grid.owner((1, 1, 1)) == OBSTACLE

    def test_over_net_rejected(self, grid):
        grid.commit_path(1, GridPath([(1, 1, 0)]))
        with pytest.raises(GridError):
            grid.set_obstacle(1, 1)

    def test_idempotent(self, grid):
        grid.set_obstacle(2, 2)
        grid.set_obstacle(2, 2)
        assert grid.owner((2, 2, 0)) == OBSTACLE

    def test_out_of_bounds_is_obstacle(self, grid):
        assert grid.owner((-1, 0, 0)) == OBSTACLE
        assert grid.owner((8, 0, 0)) == OBSTACLE
        # A layer outside {0, 1} is off the grid like an x or y: it must
        # neither wrap onto layer 1 (-1) nor read past the stores (2).
        grid.reserve_pin(1, (0, 0, 1))
        assert grid.owner((0, 0, -1)) == OBSTACLE
        assert grid.owner((0, 0, 2)) == OBSTACLE

    @pytest.mark.parametrize("cell", [(8, 0, 0), (0, 6, 1), (0, 0, 2)])
    def test_obstacle_off_the_grid_rejected(self, grid, cell):
        """An x past the row end is off the grid: it must not block the
        next row's first cell."""
        with pytest.raises(GridError, match="off the grid"):
            grid.set_obstacle(*cell)
        assert not (grid.occupancy() == OBSTACLE).any()


class TestConnectivity:
    """The BFS oracle (``tests/bfs_oracle.py``) the connectivity suites
    hold the grid's cached components to."""

    def test_component_follows_wire(self, grid):
        grid.commit_path(1, straight_path(Point(0, 0), Point(3, 0), Layer.HORIZONTAL))
        component = connected_component(grid, 1, (0, 0, 0))
        assert len(component) == 4

    def test_component_crosses_via(self, grid):
        grid.commit_path(
            1,
            GridPath([(0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 1)]),
        )
        component = connected_component(grid, 1, (0, 0, 0))
        assert (1, 1, 1) in {tuple(n) for n in component}

    def test_component_does_not_jump_without_via(self, grid):
        grid.commit_path(1, GridPath([(1, 1, 0)]))
        grid.commit_path(1, GridPath([(1, 1, 1)]))  # same cell, no via
        component = connected_component(grid, 1, (1, 1, 0))
        assert {tuple(n) for n in component} == {(1, 1, 0)}

    def test_component_of_foreign_seed_empty(self, grid):
        grid.commit_path(1, GridPath([(0, 0, 0)]))
        assert connected_component(grid, 2, (0, 0, 0)) == set()


class TestSnapshots:
    def test_clone_restore_round_trip(self, grid):
        grid.commit_path(1, straight_path(Point(0, 0), Point(3, 0), Layer.HORIZONTAL))
        snapshot = grid.clone()
        grid.commit_path(2, straight_path(Point(0, 2), Point(3, 2), Layer.HORIZONTAL))
        grid.restore(snapshot)
        assert grid.owner((0, 2, 0)) == FREE
        assert grid.owner((0, 0, 0)) == 1

    def test_clone_is_independent(self, grid):
        snapshot = grid.clone()
        grid.commit_path(1, GridPath([(0, 0, 0)]))
        assert snapshot.is_free((0, 0, 0))

    def test_restore_geometry_mismatch(self, grid):
        with pytest.raises(GridError):
            grid.restore(RoutingGrid(2, 2))

    def test_usage_counts_survive_clone(self, grid):
        a = straight_path(Point(0, 1), Point(4, 1), Layer.HORIZONTAL)
        b = straight_path(Point(2, 1), Point(4, 1), Layer.HORIZONTAL)
        grid.commit_path(1, a)
        grid.commit_path(1, b)
        clone = grid.clone()
        clone.remove_path(1, b)
        assert clone.owner((3, 1, 0)) == 1  # still referenced by `a`
