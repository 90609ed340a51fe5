"""Tests of the shared flat-search substrate (neighbor tables, planes).

All three maze searchers now run on one substrate: integer node ids, the
precomputed neighbor table, and the calling thread's visited/cost planes
(:func:`~repro.maze.arena.thread_planes`).  These tests pin down the
substrate itself (table contents, one plane set per thread, the
generation-stamp reset) and the cross-searcher equivalences that held
before the kernel swap: A* matches Lee's shortest lengths under the
uniform cost model, and Soukup finds a path exactly when Lee does.
"""

import random
import sys
import threading

import numpy as np
import pytest

from repro.core.router import route_problem
from repro.geometry import Point
from repro.grid import Layer, RoutingGrid
from repro.maze import CostModel, find_path, kernels, lee_route, neighbor_table
from repro.maze.arena import AXIS_VIA, AXIS_X, AXIS_Y, thread_planes
from repro.maze.soukup import soukup_route
from repro.netlist import Net, Pin, RoutingProblem


class TestNeighborTable:
    def test_interior_cell_has_all_five_moves(self):
        width, height = 5, 4
        table = neighbor_table(width, height)
        index = (0 * height + 2) * width + 2  # (x=2, y=2, layer 0)
        moves = table[index]
        assert len(moves) == 5
        assert [axis for _, axis, _, _ in moves] == [
            AXIS_X, AXIS_X, AXIS_Y, AXIS_Y, AXIS_VIA,
        ]
        # The via successor is the same cell on the other layer.
        assert moves[-1][0] == (1 * height + 2) * width + 2

    def test_corner_cell_is_clipped(self):
        width, height = 5, 4
        table = neighbor_table(width, height)
        moves = table[0]  # (0, 0, layer 0)
        succ = {move[0] for move in moves}
        assert succ == {
            1,  # +x
            width,  # +y
            (1 * height + 0) * width + 0,  # via
        }

    def test_coordinates_match_indices(self):
        width, height = 6, 3
        table = neighbor_table(width, height)
        for index in range(len(table)):
            for succ, _, x, y in table[index]:
                assert succ % (width * height) == y * width + x

    def test_cached_per_shape(self):
        assert neighbor_table(7, 5) is neighbor_table(7, 5)
        assert neighbor_table(7, 5) is not neighbor_table(5, 7)


def _two_net_problem(width, height):
    """Two nets whose pins face each other across the box."""
    return RoutingProblem(
        width,
        height,
        nets=[
            Net("a", (Pin(0, 0), Pin(width - 1, height - 1))),
            Net("b", (Pin(0, height - 1), Pin(width - 1, 0))),
        ],
    )


class TestSearchArena:
    """The calling thread's search planes (:func:`thread_planes`)."""

    def test_planes_recycled_per_shape(self):
        """A second search, or a router, on one thread and one shape
        searches on the planes the first search used."""
        find_path(RoutingGrid(10, 8), 1, [(0, 0, 0)], [(9, 7, 0)])
        planes = thread_planes(10, 8)
        generation = planes.generation
        lee_route(RoutingGrid(10, 8), 2, [(0, 0, 1)], [(9, 0, 0)])
        result = route_problem(_two_net_problem(10, 8))
        assert result.stats.searches > 0
        assert thread_planes(10, 8) is planes
        assert planes.generation == generation + 1 + result.stats.searches

    def test_new_shape_replaces_planes(self):
        """A thread holds one plane set: another shape replaces it, so
        returning to the first shape builds a new set."""
        planes = thread_planes(8, 6)
        other = thread_planes(6, 8)
        assert other is not planes and other.shape == (6, 8)
        assert thread_planes(8, 6) is not planes

    def test_other_thread_gets_its_own_planes(self):
        mine = thread_planes(8, 6)
        theirs = []
        worker = threading.Thread(
            target=lambda: theirs.append(thread_planes(8, 6))
        )
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert theirs[0] is not mine
        assert thread_planes(8, 6) is mine

    @pytest.mark.parametrize("name", kernels.available_backends())
    def test_concurrent_threads_search_on_their_own_planes(self, name):
        """Four threads searching one shape at once, with frequent
        switches (the compiled kernel also releases the interpreter lock),
        get the answers one thread gets."""
        grid = _random_obstacle_grid(random.Random(7))
        w, h = grid.width, grid.height
        queries = [
            ([(0, 0, 0)], [(w - 1, h - 1, 0)]),
            ([(w - 1, h - 1, 1)], [(0, 0, 1)]),
        ]

        def answers():
            return [
                (list(r.path or ()), r.expansions)
                for r in (
                    find_path(grid, 1, s, t, kernel=name) for s, t in queries
                )
            ]

        expected = answers()
        results = []
        # Daemon threads: shared planes can loop a backtrack forever.
        workers = [
            threading.Thread(
                target=lambda: results.extend(answers() for _ in range(25)),
                daemon=True,
            )
            for _ in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert results == [expected] * 100

    def test_compiled_route_builds_no_list_planes(self, monkeypatch):
        """A route on the compiled kernel builds its typed planes only:
        the pure kernel's lists are never allocated."""
        if "compiled" not in kernels.available_backends():
            pytest.skip("compiled backend unavailable")
        monkeypatch.setenv(kernels.ENV_VAR, "compiled")
        kernels._reset_for_tests()
        try:
            thread_planes(1, 1)  # drop any planes a pure search built
            result = route_problem(_two_net_problem(11, 9))
        finally:
            kernels._reset_for_tests()
        planes = thread_planes(11, 9)
        assert result.success
        assert planes.generation == result.stats.searches > 0
        assert planes._c is not None
        assert planes._lists is None

    def test_generation_isolates_consecutive_searches(self):
        """Reusing the thread's planes must give the same answer as fresh
        planes, with other searches in between."""
        grid = RoutingGrid(10, 8)
        thread_planes(1, 1)  # the next search gets fresh planes
        fresh = find_path(grid, 1, [(0, 0, 0)], [(9, 7, 0)])
        for _ in range(3):
            find_path(grid, 2, [(9, 0, 1)], [(0, 7, 1)])
            reused = find_path(grid, 1, [(0, 0, 0)], [(9, 7, 0)])
            assert reused.path is not None
            assert list(reused.path) == list(fresh.path)
            assert reused.expansions == fresh.expansions


def _random_obstacle_grid(rng: random.Random, width=12, height=9):
    """A grid with random obstacles on both layers (vias stay possible)."""
    grid = RoutingGrid(width, height)
    for _ in range(width * height // 4):
        x = rng.randrange(width)
        y = rng.randrange(height)
        if (x, y) in ((0, 0), (width - 1, height - 1)):
            continue
        if grid.is_free((x, y, 0)):
            grid.set_obstacle(x, y)
    return grid


class TestSearcherEquivalence:
    """The oracle relations between the three searchers must survive the
    flat-kernel rewrite."""

    @pytest.mark.parametrize("seed", range(10))
    def test_astar_matches_lee_length_under_uniform_cost(self, seed):
        rng = random.Random(seed)
        grid = _random_obstacle_grid(rng)
        source = (0, 0, 0)
        target = (grid.width - 1, grid.height - 1, 0)
        lee = lee_route(grid, 1, [source], [target])
        astar = find_path(
            grid, 1, [source], [target], cost=CostModel.uniform()
        )
        if lee is None:
            assert astar.path is None
        else:
            assert astar.path is not None
            assert len(astar.path) == len(lee)

    @pytest.mark.parametrize("seed", range(10))
    def test_soukup_complete_wherever_lee_routes(self, seed):
        rng = random.Random(seed)
        width, height = 14, 10
        passable = np.ones((height, width), dtype=bool)
        for _ in range(width * height // 3):
            passable[rng.randrange(height), rng.randrange(width)] = False
        passable[0, 0] = passable[height - 1, width - 1] = True

        # Same maze as a single-layer RoutingGrid for the Lee oracle
        # (layer 1 fully blocked so no via escapes exist).
        grid = RoutingGrid(width, height)
        for y in range(height):
            for x in range(width):
                if not passable[y, x]:
                    grid.set_obstacle(x, y)
                else:
                    grid.set_obstacle(x, y, Layer.VERTICAL)

        lee = lee_route(
            grid, 1, [(0, 0, 0)], [(width - 1, height - 1, 0)]
        )
        soukup = soukup_route(
            passable, Point(0, 0), Point(width - 1, height - 1)
        )
        assert (lee is None) == (soukup is None)
        if soukup is not None:
            # Legality: passable cells, unit steps, correct endpoints.
            assert soukup[0] == Point(0, 0)
            assert soukup[-1] == Point(width - 1, height - 1)
            for a, b in zip(soukup, soukup[1:]):
                assert abs(a.x - b.x) + abs(a.y - b.y) == 1
                assert passable[b.y, b.x]
