"""Differential tests of the grid's cached connectivity queries.

:meth:`RoutingGrid.same_component` and :meth:`RoutingGrid.component_nodes`
answer the router's "are these pins already connected / give me the
source component" queries from a per-net cache of flooded components.
Their one obligation is exactness: **for every net, at all times, every
answer must equal the BFS oracle's** (``tests/bfs_oracle.py``),
so no cached component may outlive a write that changes it.  These tests
beat on that invariant from every direction the router can:

* randomized commit/rip/rollback storms (the property test), querying
  inside transactions and checking every answer right after each
  rollback;
* mid-transaction rollbacks, asserting the five stores are restored
  bit-for-bit and no component cached inside the transaction survives it;
* a real routing run under fault-injected search failures, which forces
  weak-modification rejections and their journal rollbacks;
* clone/restore/pickle, which must answer from the copper alone.

Every comparison also holds the verifier's copper labels
(``repro.analysis.verify``) to the same oracle, so each storm checks the
verifier too.

The component cache holds node lists only, so a grid is freed by
reference counting alone; the lifetime tests pin that down.
"""

import gc
import pickle
import random
import weakref

import numpy as np
import pytest

from repro.analysis.verify import _copper_labels
from repro.core.config import MightyConfig
from repro.core.router import route_problem
from repro.grid.layers import Layer
from repro.grid.path import GridNode, GridPath
from repro.grid.routing_grid import GridError, RoutingGrid
from repro.netlist.generators import woven_switchbox
from repro.testing.faults import FaultInjector, FaultPlan
from tests.bfs_oracle import connected_component


# ----------------------------------------------------------------------
# Oracle comparison helpers
# ----------------------------------------------------------------------
def assert_index_matches_bfs(grid, net_ids):
    """Every component list and pair query must equal the BFS answer, and
    so must the groups of the verifier's copper labels."""
    labels = _copper_labels(grid.occupancy(), grid.via_map())
    for net_id in net_ids:
        owned = grid.net_nodes(net_id)
        components = []
        for node in owned:
            oracle = connected_component(grid, net_id, tuple(node))
            indexed = grid.component_nodes(net_id, tuple(node))
            assert set(indexed) == oracle, (
                f"net {net_id} component from {tuple(node)} diverged"
            )
            assert len(indexed) == len(oracle)  # no duplicates either
            label = labels[node.layer, node.y, node.x]
            labelled = {
                GridNode(x, y, Layer(layer))
                for layer, y, x in np.argwhere(labels == label).tolist()
            }
            assert labelled == oracle, (
                f"net {net_id} label group of {tuple(node)} diverged"
            )
            components.append((node, oracle))
        for a, comp_a in components:
            for b, _ in components:
                assert grid.same_component(
                    net_id, tuple(a), tuple(b)
                ) == (b in comp_a)


def _random_path(rng, width, height):
    """A random legal walk: a via pair or an L on a random layer."""
    if rng.random() < 0.25:
        x, y = rng.randrange(width), rng.randrange(height)
        return GridPath([(x, y, 0), (x, y, 1)])
    layer = rng.randrange(2)
    x, y = rng.randrange(width), rng.randrange(height)
    x2, y2 = rng.randrange(width), rng.randrange(height)
    nodes = [(x, y, layer)]
    while x != x2:
        x += 1 if x2 > x else -1
        nodes.append((x, y, layer))
    while y != y2:
        y += 1 if y2 > y else -1
        nodes.append((x, y, layer))
    return GridPath(nodes)


def _stores(grid):
    """The bytes of every store the grid journals."""
    return [
        bytes(store)
        for store in (grid._occ, grid._via, grid._pin, grid._use, grid._vuse)
    ]


# ----------------------------------------------------------------------
# The property test: randomized mutation storms
# ----------------------------------------------------------------------
class TestStorms:
    NETS = 4

    @pytest.mark.parametrize("seed", range(6))
    def test_index_equals_bfs_under_commit_rip_rollback_storm(self, seed):
        rng = random.Random(seed)
        width, height = 9, 7
        grid = RoutingGrid(width, height)
        committed = {net: [] for net in range(1, self.NETS + 1)}
        nets = range(1, self.NETS + 1)

        for step in range(60):
            roll = rng.random()
            net = rng.randrange(1, self.NETS + 1)
            if roll < 0.55:
                path = _random_path(rng, width, height)
                try:
                    grid.commit_path(net, path)
                    committed[net].append(path)
                except GridError:
                    pass  # collided with another net; legal to refuse
            elif roll < 0.75 and committed[net]:
                victim = committed[net].pop(
                    rng.randrange(len(committed[net]))
                )
                grid.remove_path(net, victim)
            else:
                # A transaction that is rolled back must leave no trace:
                # the stores come back bit-for-bit, and no component
                # cached inside the transaction answers after it.
                before = _stores(grid)
                grid.begin_txn()
                for _ in range(rng.randrange(1, 4)):
                    path = _random_path(rng, width, height)
                    try:
                        grid.commit_path(net, path)
                    except GridError:
                        continue
                    if rng.random() < 0.4:
                        grid.remove_path(net, path)
                    if rng.random() < 0.4:
                        # Cache a component the rollback must forget.
                        grid.component_nodes(net, tuple(path.start))
                grid.rollback_txn()
                assert _stores(grid) == before
                assert_index_matches_bfs(grid, nets)
            if step % 6 == 0:
                assert_index_matches_bfs(grid, nets)

        assert_index_matches_bfs(grid, nets)

    def test_stacked_claims_do_not_split_until_last_release(self):
        """Removing one of two overlapping claims frees no cell, so the
        component stands: the copper is still there."""
        grid = RoutingGrid(6, 5)
        a = GridPath([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
        b = GridPath([(2, 0, 0), (1, 0, 0)])  # overlaps a
        grid.commit_path(1, a)
        grid.commit_path(1, b)
        grid.remove_path(1, b)  # counts drop but nothing freed
        assert grid.same_component(1, (0, 0, 0), (2, 0, 0))
        assert_index_matches_bfs(grid, [1])
        grid.remove_path(1, a)  # now cells free for real
        assert not grid.same_component(1, (0, 0, 0), (2, 0, 0))
        assert_index_matches_bfs(grid, [1])


# ----------------------------------------------------------------------
# Mid-transaction rollback (the journal integration regression test)
# ----------------------------------------------------------------------
class TestRollback:
    def test_rollback_restores_stores_and_drops_cached_components(self):
        grid = RoutingGrid(8, 6)
        grid.commit_path(1, GridPath([(0, 0, 0), (1, 0, 0), (2, 0, 0)]))
        grid.commit_path(1, GridPath([(4, 0, 0), (5, 0, 0)]))
        grid.commit_path(2, GridPath([(0, 3, 0), (1, 3, 0)]))
        before = _stores(grid)

        grid.begin_txn()
        # Join net 1's two islands and query (caching the joined
        # component), then rip a piece, which splits it again.
        bridge = GridPath([(2, 0, 0), (3, 0, 0), (4, 0, 0)])
        grid.commit_path(1, bridge)
        assert grid.same_component(1, (0, 0, 0), (5, 0, 0))
        grid.remove_path(1, GridPath([(3, 0, 0)]))
        assert not grid.same_component(1, (0, 0, 0), (5, 0, 0))
        # Grow net 2 and cache its larger component: the rollback must
        # forget it.
        grid.commit_path(2, GridPath([(1, 3, 0), (2, 3, 0)]))
        assert grid.same_component(2, (0, 3, 0), (2, 3, 0))
        grid.rollback_txn()
        assert_index_matches_bfs(grid, [1, 2])

        assert _stores(grid) == before
        assert not grid.same_component(1, (0, 0, 0), (5, 0, 0))
        assert grid.same_component(1, (0, 0, 0), (2, 0, 0))

    def test_commit_txn_keeps_index_changes(self):
        grid = RoutingGrid(6, 5)
        grid.begin_txn()
        grid.commit_path(3, GridPath([(0, 0, 0), (1, 0, 0)]))
        grid.commit_txn()
        assert grid.same_component(3, (0, 0, 0), (1, 0, 0))
        assert_index_matches_bfs(grid, [3])


# ----------------------------------------------------------------------
# Differential under a real routing run with injected faults
# ----------------------------------------------------------------------
class TestRoutedGrids:
    def _spec(self):
        return woven_switchbox(14, 10, 10, seed=6, tangle=0.4)

    def test_index_matches_bfs_after_clean_route(self):
        result = route_problem(self._spec().to_problem(), MightyConfig())
        grid = result.grid
        nets = grid.net_ids()
        assert nets
        assert_index_matches_bfs(grid, nets)

    def test_index_matches_bfs_under_fault_injected_rejections(self):
        """Every-3rd-search failures force weak rejections and journal
        rollbacks mid-flight; the index must stay exact through them."""
        plan = FaultPlan(fail_searches_every=3)
        with FaultInjector(plan) as chaos:
            result = route_problem(self._spec().to_problem(), MightyConfig())
        assert chaos.failed_searches > 0  # the storm actually happened
        grid = result.grid
        nets = grid.net_ids()
        assert_index_matches_bfs(grid, nets)
        # And after a forced re-derivation from the copper alone.
        grid.refresh_connectivity()
        assert_index_matches_bfs(grid, nets)


# ----------------------------------------------------------------------
# Clone / restore / pickle re-derivation
# ----------------------------------------------------------------------
class TestSnapshots:
    def _grid(self):
        grid = RoutingGrid(7, 6)
        grid.commit_path(1, GridPath([(0, 0, 0), (1, 0, 0), (1, 1, 0)]))
        grid.commit_path(1, GridPath([(5, 5, 0), (5, 4, 0)]))
        grid.commit_path(2, GridPath([(3, 3, 0), (3, 3, 1), (4, 3, 1)]))
        return grid

    def test_clone_is_isolated_and_exact(self):
        grid = self._grid()
        snapshot = grid.clone()
        grid.commit_path(
            1, GridPath([(1, 1, 0), (2, 1, 0)])
        )  # original moves on
        assert_index_matches_bfs(snapshot, [1, 2])
        assert_index_matches_bfs(grid, [1, 2])
        assert not snapshot.same_component(1, (1, 1, 0), (2, 1, 0))

    def test_restore_rederives_from_copper(self):
        grid = self._grid()
        snapshot = grid.clone()
        grid.commit_path(
            1,
            GridPath(
                [(1, 1, 0), (2, 1, 0), (3, 1, 0), (4, 1, 0),
                 (5, 1, 0), (5, 2, 0), (5, 3, 0), (5, 4, 0)]
            ),
        )
        assert grid.same_component(1, (0, 0, 0), (5, 5, 0))
        grid.restore(snapshot)
        assert not grid.same_component(1, (0, 0, 0), (5, 5, 0))
        assert_index_matches_bfs(grid, [1, 2])

    def test_pickle_roundtrip_rebuilds_index(self):
        grid = self._grid()
        clone = pickle.loads(pickle.dumps(grid))
        assert_index_matches_bfs(clone, [1, 2])
        assert clone.same_component(2, (3, 3, 0), (4, 3, 1))

    def test_component_nodes_unowned_seed_is_empty(self):
        grid = self._grid()
        assert grid.component_nodes(1, (6, 0, 0)) == []
        assert grid.component_nodes(1, (99, 0, 0)) == []
        assert not grid.same_component(1, (0, 0, 0), (99, 0, 0))


# ----------------------------------------------------------------------
# Lifetime: no reference cycle through the grid
# ----------------------------------------------------------------------
class TestGridLifetime:
    """With the cyclic collector off, a grid must die on its last ``del``.

    A grid that only a full collection can free keeps routed grids,
    best-state clones and the verifier's reference grid alive long after
    their last use, which shows up as peak memory.
    """

    @pytest.fixture(autouse=True)
    def _collector_off(self):
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            yield
        finally:
            if was_enabled:
                gc.enable()

    def test_built_grid_dies_on_del(self):
        problem = woven_switchbox(14, 10, 10, seed=6, tangle=0.4).to_problem()
        grid = problem.build_grid()
        ref = weakref.ref(grid)
        clone = weakref.ref(grid.clone())
        del grid
        assert ref() is None
        assert clone() is None

    def test_routed_grid_dies_on_del(self):
        problem = woven_switchbox(14, 10, 10, seed=6, tangle=0.4).to_problem()
        result = route_problem(problem, MightyConfig())
        assert result.success
        ref = weakref.ref(result.grid)
        del result
        assert ref() is None
