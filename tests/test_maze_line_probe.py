"""Tests for the Hightower line-probe searcher."""

import numpy as np
import pytest

from repro.geometry import Point
from repro.maze.line_probe import line_probe


def open_field(width=12, height=10):
    return np.ones((height, width), dtype=bool)


def _check_path(mask, corners, start, goal):
    """Every cell between consecutive corners is open, and each leg runs
    along one axis."""
    assert corners[0] == start and corners[-1] == goal
    assert mask[start.y, start.x]
    for a, b in zip(corners, corners[1:]):
        assert a.x == b.x or a.y == b.y, f"diagonal leg {a} -> {b}"
        step_x, step_y = (b.x > a.x) - (b.x < a.x), (b.y > a.y) - (b.y < a.y)
        cell = a
        while cell != b:
            cell = Point(cell.x + step_x, cell.y + step_y)
            assert mask[cell.y, cell.x], f"path crosses blocked cell {cell}"


class TestLineProbe:
    def test_straight_shot(self):
        mask = open_field()
        corners = line_probe(mask, Point(0, 5), Point(11, 5))
        assert corners is not None
        _check_path(mask, corners, Point(0, 5), Point(11, 5))
        assert len(corners) == 2  # one escape line suffices

    def test_l_shaped(self):
        mask = open_field()
        corners = line_probe(mask, Point(0, 0), Point(8, 7))
        assert corners is not None
        _check_path(mask, corners, Point(0, 0), Point(8, 7))

    def test_detour_around_wall(self):
        mask = open_field()
        mask[0:8, 6] = False  # wall with a gap at the top rows
        corners = line_probe(mask, Point(1, 1), Point(10, 1))
        assert corners is not None
        _check_path(mask, corners, Point(1, 1), Point(10, 1))

    def test_fully_blocked_returns_none(self):
        mask = open_field()
        mask[:, 6] = False
        assert line_probe(mask, Point(1, 1), Point(10, 1)) is None

    def test_start_equals_goal(self):
        mask = open_field()
        corners = line_probe(mask, Point(3, 3), Point(3, 3))
        assert corners == [Point(3, 3)]

    def test_invalid_endpoints_raise(self):
        mask = open_field()
        with pytest.raises(ValueError):
            line_probe(mask, Point(-1, 0), Point(3, 3))
        mask[2, 2] = False
        with pytest.raises(ValueError):
            line_probe(mask, Point(2, 2), Point(3, 3))

    def test_incompleteness_is_possible(self):
        """The algorithm's published limitation: a reachable goal can be
        missed when the needed bend is not at an escape point.  Build a
        serpentine where the only path needs many tight bends and check the
        searcher stays honest (either finds a valid path or returns None —
        never an illegal one)."""
        mask = open_field(20, 12)
        for x in range(2, 18, 4):
            mask[0:10, x] = False
            mask[2:12, x + 2] = False
        start, goal = Point(0, 0), Point(19, 0)
        corners = line_probe(mask, start, goal)
        if corners is not None:
            _check_path(mask, corners, start, goal)

    def test_max_lines_budget(self):
        mask = open_field(30, 30)
        mask[:, 15] = False
        mask[0, 15] = True  # single-cell gap
        corners = line_probe(mask, Point(0, 29), Point(29, 29), max_lines=4)
        # with a tiny budget the searcher gives up (None), never crashes
        assert corners is None or corners[0] == Point(0, 29)

