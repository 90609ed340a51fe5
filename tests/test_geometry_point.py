"""Unit tests for points and directions."""

from repro.geometry import Direction, Point


class TestPoint:
    def test_is_tuple(self):
        p = Point(3, 4)
        assert p == (3, 4)
        assert p.x == 3 and p.y == 4

    def test_unpacking(self):
        x, y = Point(1, 2)
        assert (x, y) == (1, 2)

    def test_step_each_direction(self):
        p = Point(5, 5)
        assert p.step(Direction.EAST) == Point(6, 5)
        assert p.step(Direction.WEST) == Point(4, 5)
        assert p.step(Direction.NORTH) == Point(5, 6)
        assert p.step(Direction.SOUTH) == Point(5, 4)

    def test_neighbors_count_and_distance(self):
        p = Point(2, 2)
        neighbors = list(p.neighbors())
        assert len(neighbors) == 4
        assert all(abs(p.x - q.x) + abs(p.y - q.y) == 1 for q in neighbors)
        assert len(set(neighbors)) == 4

    def test_hashable(self):
        assert len({Point(1, 2), Point(1, 2), Point(2, 1)}) == 2

    def test_ordering_row_major(self):
        assert Point(1, 5) < Point(2, 0)
        assert Point(1, 0) < Point(1, 5)


class TestDirection:
    def test_deltas_are_units(self):
        for d in Direction:
            dx, dy = d.delta
            assert abs(dx) + abs(dy) == 1
