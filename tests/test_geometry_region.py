"""Unit tests for rectilinear regions."""

import pytest

from repro.geometry import Point, Rect, RectilinearRegion


class TestConstruction:
    def test_plain_rectangle(self):
        region = RectilinearRegion.rectangle(4, 3)
        assert region.cell_count == 12
        assert region.bbox == Rect(0, 0, 4, 3)

    def test_requires_a_rect(self):
        with pytest.raises(ValueError):
            RectilinearRegion([])
        with pytest.raises(ValueError):
            RectilinearRegion([Rect(0, 0, 0, 5)])

    def test_union_of_rects(self):
        region = RectilinearRegion([Rect(0, 0, 2, 2), Rect(2, 0, 4, 1)])
        assert region.cell_count == 6
        assert region.contains(Point(3, 0))
        assert not region.contains(Point(3, 1))

    def test_subtraction(self):
        region = RectilinearRegion(
            [Rect(0, 0, 4, 4)], remove=[Rect(1, 1, 3, 3)]
        )
        assert region.cell_count == 12
        assert not region.contains(Point(1, 1))
        assert region.contains(Point(0, 0))

    def test_remove_outside_is_harmless(self):
        region = RectilinearRegion(
            [Rect(0, 0, 2, 2)], remove=[Rect(10, 10, 12, 12)]
        )
        assert region.cell_count == 4


class TestQueries:
    def test_contains_out_of_bbox(self):
        region = RectilinearRegion.rectangle(3, 3)
        assert not region.contains(Point(-1, 0))
        assert not region.contains(Point(3, 0))

    def test_dunder_contains(self):
        region = RectilinearRegion.rectangle(3, 3)
        assert (1, 1) in region
        assert (9, 9) not in region

    def test_cells_enumeration(self):
        region = RectilinearRegion([Rect(0, 0, 2, 1)])
        assert list(region.cells()) == [Point(0, 0), Point(1, 0)]

    def test_connectivity(self):
        connected = RectilinearRegion.rectangle(5, 5)
        assert connected.is_connected()
        split = RectilinearRegion(
            [Rect(0, 0, 5, 5)], remove=[Rect(2, 0, 3, 5)]
        )
        assert not split.is_connected()

    def test_l_shape_connected(self):
        region = RectilinearRegion([Rect(0, 0, 2, 5), Rect(0, 0, 5, 2)])
        assert region.is_connected()
        assert region.cell_count == 2 * 5 + 5 * 2 - 4


class TestSerialisation:
    def test_to_rects_round_trip(self):
        region = RectilinearRegion(
            [Rect(0, 0, 6, 4)], remove=[Rect(2, 1, 4, 3)]
        )
        rebuilt = RectilinearRegion(region.to_rects())
        assert rebuilt == region

    def test_to_rects_disjoint_and_covering(self):
        region = RectilinearRegion([Rect(0, 0, 3, 2), Rect(5, 0, 6, 1)])
        rects = region.to_rects()
        assert sum(r.area for r in rects) == region.cell_count
        for i, a in enumerate(rects):
            for b in rects[i + 1 :]:
                assert not a.intersects(b)

    def test_equality(self):
        a = RectilinearRegion.rectangle(3, 3)
        b = RectilinearRegion([Rect(0, 0, 3, 3)])
        c = RectilinearRegion.rectangle(3, 4)
        assert a == b
        assert a != c

    def test_mask_is_copy(self):
        region = RectilinearRegion.rectangle(2, 2)
        mask = region.mask()
        mask[0, 0] = False
        assert region.contains(Point(0, 0))
