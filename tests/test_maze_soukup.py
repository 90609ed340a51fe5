"""Tests for Soukup's fast maze router."""

import numpy as np
import pytest

from repro.geometry import Point
from repro.maze.soukup import cells_expanded_ratio, soukup_route


def open_field(width=16, height=12):
    return np.ones((height, width), dtype=bool)


def _check_legal(mask, path, start, goal):
    assert path[0] == start and path[-1] == goal
    for a, b in zip(path, path[1:]):
        step = abs(a.x - b.x) + abs(a.y - b.y)
        assert step == 1, f"non-unit step {a} -> {b}"
    for cell in path:
        assert mask[cell.y, cell.x]


class TestSoukup:
    def test_open_field(self):
        mask = open_field()
        path = soukup_route(mask, Point(0, 0), Point(15, 11))
        assert path is not None
        _check_legal(mask, path, Point(0, 0), Point(15, 11))

    def test_start_equals_goal(self):
        assert soukup_route(open_field(), Point(3, 3), Point(3, 3)) == [
            Point(3, 3)
        ]

    def test_single_wall(self):
        mask = open_field()
        mask[2:10, 8] = False
        path = soukup_route(mask, Point(2, 5), Point(14, 5))
        assert path is not None
        _check_legal(mask, path, Point(2, 5), Point(14, 5))

    def test_complete_in_maze(self):
        """Unlike line probe, Soukup is complete: a serpentine maze with a
        single winding path must be solved."""
        mask = open_field(20, 12)
        for x in range(2, 18, 4):
            mask[0:10, x] = False
            mask[2:12, x + 2] = False
        path = soukup_route(mask, Point(0, 0), Point(19, 0))
        assert path is not None
        _check_legal(mask, path, Point(0, 0), Point(19, 0))

    def test_no_path_returns_none(self):
        mask = open_field()
        mask[:, 8] = False
        assert soukup_route(mask, Point(0, 0), Point(15, 0)) is None

    def test_invalid_endpoints(self):
        mask = open_field()
        with pytest.raises(ValueError):
            soukup_route(mask, Point(-1, 0), Point(3, 3))
        mask[4, 4] = False
        with pytest.raises(ValueError):
            soukup_route(mask, Point(0, 0), Point(4, 4))

    def test_agrees_with_bfs_on_reachability(self):
        """Property: Soukup finds a path exactly when BFS does."""
        rng = np.random.default_rng(7)
        for _ in range(25):
            mask = rng.random((10, 14)) > 0.3
            mask[0, 0] = mask[9, 13] = True
            start, goal = Point(0, 0), Point(13, 9)
            soukup = soukup_route(mask, start, goal)
            _, bfs_cells = cells_expanded_ratio(mask, start, goal)
            bfs_reaches = _bfs_reaches(mask, start, goal)
            assert (soukup is not None) == bfs_reaches
            if soukup is not None:
                _check_legal(mask, soukup, start, goal)

    def test_fewer_cells_than_lee_in_open_field(self):
        """The published selling point: far fewer cells touched than a
        full wavefront when the field is open."""
        mask = open_field(30, 30)
        soukup_cells, bfs_cells = cells_expanded_ratio(
            mask, Point(0, 0), Point(29, 29)
        )
        assert soukup_cells < bfs_cells / 3

    def test_stats_filled(self):
        stats = {}
        soukup_route(open_field(), Point(0, 0), Point(5, 0), stats=stats)
        assert stats["cells"] >= 6


def _bfs_reaches(mask, start, goal):
    from collections import deque

    height, width = mask.shape
    seen = {(start.x, start.y)}
    frontier = deque(seen)
    while frontier:
        x, y = frontier.popleft()
        if (x, y) == (goal.x, goal.y):
            return True
        for mx, my in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if (
                0 <= mx < width
                and 0 <= my < height
                and (mx, my) not in seen
                and mask[my, mx]
            ):
                seen.add((mx, my))
                frontier.append((mx, my))
    return False
