"""Unit tests for half-open rectangles."""

import pytest

from repro.geometry import Point, Rect


class TestConstruction:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Rect(3, 0, 1, 5)

    def test_empty_allowed(self):
        assert Rect(1, 1, 1, 5).is_empty
        assert Rect(1, 1, 1, 5).area == 0


class TestGeometry:
    def test_dimensions(self):
        r = Rect(0, 0, 4, 3)
        assert (r.width, r.height, r.area) == (4, 3, 12)

    def test_contains_half_open(self):
        r = Rect(0, 0, 2, 2)
        assert r.contains(Point(0, 0))
        assert r.contains(Point(1, 1))
        assert not r.contains(Point(2, 0))
        assert not r.contains(Point(0, 2))

    def test_cells_row_major(self):
        cells = list(Rect(1, 1, 3, 3).cells())
        assert cells == [Point(1, 1), Point(2, 1), Point(1, 2), Point(2, 2)]



class TestIntersection:
    def test_overlap(self):
        a, b = Rect(0, 0, 4, 4), Rect(2, 2, 6, 6)
        assert a.intersection(b) == Rect(2, 2, 4, 4)
        assert a.intersects(b)

    def test_touching_edges_do_not_intersect(self):
        a, b = Rect(0, 0, 2, 2), Rect(2, 0, 4, 2)
        assert a.intersection(b) is None
        assert not a.intersects(b)

    def test_disjoint(self):
        assert Rect(0, 0, 1, 1).intersection(Rect(5, 5, 6, 6)) is None

    def test_union_bbox(self):
        a, b = Rect(0, 0, 1, 1), Rect(5, 5, 6, 7)
        assert a.union_bbox(b) == Rect(0, 0, 6, 7)

    def test_union_bbox_with_empty(self):
        a, empty = Rect(1, 1, 3, 3), Rect(0, 0, 0, 0)
        assert a.union_bbox(empty) == a
        assert empty.union_bbox(a) == a
