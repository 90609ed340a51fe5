"""Differential tests of the grid's change journal.

The journal is the router's cheap undo: a failed weak-modification attempt
must leave the grid *bit-identical* to its state before the attempt, and
the journaled path (O(cells touched)) must agree exactly with the brute
snapshot path (``clone()``/``restore()``, O(area)).  These tests compare
the two mechanisms directly — at the grid level across randomized
commit/rip sequences, and at the router level with the deterministic fault
injector forcing weak rejections.
"""

import pickle
import random

import pytest

from repro.core import MightyConfig, MightyRouter
from repro.geometry import Point
from repro.grid import FREE, GridError, Layer, RoutingGrid
from repro.grid.path import GridPath, straight_path
from repro.netlist.generators import woven_switchbox
from repro.testing.faults import FaultInjector, FaultPlan


def assert_grids_identical(actual: RoutingGrid, expected: RoutingGrid):
    """Every store the grid keeps, reference counts included, must match
    exactly."""
    assert actual.occ_flat() == expected.occ_flat()
    assert actual.pin_flat() == expected.pin_flat()
    assert (actual.via_map() == expected.via_map()).all()
    assert actual._use == expected._use
    assert actual._vuse == expected._vuse


def random_path(rng: random.Random, grid: RoutingGrid) -> GridPath:
    """A short random wire: straight run, possibly ending in a via."""
    if rng.random() < 0.5:
        y = rng.randrange(grid.height)
        x0 = rng.randrange(grid.width - 3)
        nodes = [(x, y, 0) for x in range(x0, x0 + rng.randrange(2, 4))]
    else:
        x = rng.randrange(grid.width)
        y0 = rng.randrange(grid.height - 3)
        nodes = [(x, y, 1) for y in range(y0, y0 + rng.randrange(2, 4))]
    if rng.random() < 0.3:
        x, y, layer = nodes[-1]
        nodes.append((x, y, 1 - layer))
    return GridPath(nodes)


class TestJournalDifferential:
    @pytest.mark.parametrize("seed", range(8))
    def test_rollback_matches_pre_attempt_clone(self, seed):
        """Randomized mutation storm inside a transaction, then rollback:
        the grid must be bit-identical to the pre-attempt snapshot."""
        rng = random.Random(seed)
        grid = RoutingGrid(14, 10)
        committed = []
        for net_id in range(1, 6):
            grid.reserve_pin(
                net_id, (rng.randrange(grid.width), rng.randrange(grid.height), 0)
            )
        for _ in range(12):
            net_id = rng.randrange(1, 6)
            path = random_path(rng, grid)
            try:
                grid.commit_path(net_id, path)
            except GridError:
                continue
            committed.append((net_id, path))

        snapshot = grid.clone()
        grid.begin_txn()
        for _ in range(30):
            op = rng.random()
            if op < 0.5 and committed:
                net_id, path = committed[rng.randrange(len(committed))]
                try:
                    grid.remove_path(net_id, path)
                    committed.remove((net_id, path))
                except GridError:
                    pass
            elif op < 0.9:
                net_id = rng.randrange(1, 6)
                path = random_path(rng, grid)
                try:
                    grid.commit_path(net_id, path)
                    committed.append((net_id, path))
                except GridError:
                    pass
            else:
                x = rng.randrange(grid.width)
                y = rng.randrange(grid.height)
                try:
                    grid.set_obstacle(x, y)
                except GridError:
                    pass
        assert grid.journal_depth > 0
        grid.rollback_txn()
        assert_grids_identical(grid, snapshot)

    def test_commit_txn_keeps_changes(self):
        grid = RoutingGrid(8, 6)
        path = straight_path(Point(0, 0), Point(4, 0), Layer.HORIZONTAL)
        grid.begin_txn()
        grid.commit_path(1, path)
        grid.commit_txn()
        assert grid.owner((2, 0, 0)) == 1
        # The committed transaction is closed: nothing left to roll back.
        with pytest.raises(GridError):
            grid.rollback_txn()

    def test_rollback_restores_shared_net_refcounts(self):
        """Two same-net claims on one cell: rolling back the second claim
        must leave the first one (and the cell's ownership) intact."""
        grid = RoutingGrid(8, 6)
        first = straight_path(Point(0, 0), Point(4, 0), Layer.HORIZONTAL)
        grid.commit_path(1, first)
        snapshot = grid.clone()
        grid.begin_txn()
        overlap = straight_path(Point(2, 0), Point(6, 0), Layer.HORIZONTAL)
        grid.commit_path(1, overlap)
        grid.remove_path(1, first)
        assert grid.owner((1, 0, 0)) == FREE  # count dropped to zero
        grid.rollback_txn()
        assert_grids_identical(grid, snapshot)
        assert grid.owner((1, 0, 0)) == 1


class TestJournalEdgeCases:
    def test_no_nesting(self):
        grid = RoutingGrid(4, 4)
        grid.begin_txn()
        with pytest.raises(GridError):
            grid.begin_txn()

    def test_commit_and_rollback_require_open_txn(self):
        grid = RoutingGrid(4, 4)
        with pytest.raises(GridError):
            grid.commit_txn()
        with pytest.raises(GridError):
            grid.rollback_txn()

    def test_restore_refused_mid_transaction(self):
        grid = RoutingGrid(4, 4)
        snapshot = grid.clone()
        grid.begin_txn()
        with pytest.raises(GridError):
            grid.restore(snapshot)
        grid.rollback_txn()
        grid.restore(snapshot)  # fine once the transaction is closed

    def test_depth_and_peak_tracking(self):
        """The journal records copper only: occupancy and count, for every
        path node and every via cell."""
        grid = RoutingGrid(8, 6)
        assert grid.journal_depth == 0 and not grid.in_txn
        grid.begin_txn()
        assert grid.in_txn
        path = GridPath(
            [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (3, 0, 1), (3, 1, 1)]
        )
        assert len(path.via_cells()) == 1
        grid.commit_path(1, path)
        depth = grid.journal_depth
        assert depth == 2 * len(path) + 2 * len(path.via_cells())
        grid.rollback_txn()
        assert grid.journal_depth == 0
        assert grid.journal_peak_depth >= depth

    def test_clone_does_not_inherit_open_journal(self):
        grid = RoutingGrid(4, 4)
        grid.begin_txn()
        copy = grid.clone()
        assert not copy.in_txn and copy.journal_peak_depth == 0
        grid.rollback_txn()


class TestCopiesShareNoBuffer:
    @pytest.mark.parametrize(
        "duplicate",
        [RoutingGrid.clone, lambda grid: pickle.loads(pickle.dumps(grid))],
        ids=["clone", "pickle"],
    )
    def test_mutating_copy_leaves_original_unchanged(self, duplicate):
        grid = RoutingGrid(8, 6)
        wire = GridPath([(0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 0, 1)])
        grid.reserve_pin(1, (0, 0, 0))
        grid.commit_path(1, wire)
        occ, pin = grid.occ_flat()[:], grid.pin_flat()[:]
        via = grid.via_map().copy()
        use, vuse = grid._use[:], grid._vuse[:]
        copy = duplicate(grid)
        assert_grids_identical(copy, grid)

        copy.reserve_pin(2, (5, 5, 1))
        copy.commit_path(2, GridPath([(5, 4, 1), (5, 4, 0), (4, 4, 0)]))
        copy.remove_path(1, wire)
        copy.set_obstacle(7, 0)
        assert grid.occ_flat() == occ
        assert grid.pin_flat() == pin
        assert (grid.via_map() == via).all()
        assert grid._use == use and grid._vuse == vuse


class TestRouterLevelRollback:
    def test_weak_rejection_restores_grid_under_injected_faults(self):
        """Force a weak-modification attempt to fail mid-flight (the fault
        injector kills every search from the 12th on, which lands inside
        the attempt's victim reroutes) and check, on every rejection, that
        the journaled undo reproduces the pre-attempt clone."""
        spec = woven_switchbox(23, 15, 24, seed=4, tangle=0.3)
        problem = spec.to_problem()
        rejections = []
        original = MightyRouter._try_weak

        def checked(self, connection, path, victims):
            before = self._grid.clone()
            ok = original(self, connection, path, victims)
            if not ok:
                assert_grids_identical(self._grid, before)
                rejections.append(connection.net_name)
            return ok

        MightyRouter._try_weak = checked
        try:
            with FaultInjector(FaultPlan(fail_searches_after=12)):
                router = MightyRouter(problem, MightyConfig.weak_only())
                result = router.route()
        finally:
            MightyRouter._try_weak = original
        # The schedule must actually have exercised the rollback path.
        assert rejections
        assert result.stats.weak_rejections >= len(rejections)
        assert result.stats.peak_journal_depth > 0
