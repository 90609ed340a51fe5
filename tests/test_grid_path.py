"""Unit tests for grid nodes and paths."""

import pickle

import pytest

from repro.geometry import Point
from repro.grid import GridNode, GridPath, Layer
from repro.grid.path import PathError, flat_id, straight_path


class TestLayer:
    def test_other(self):
        assert Layer.HORIZONTAL.other is Layer.VERTICAL
        assert Layer.VERTICAL.other is Layer.HORIZONTAL

    def test_short_name_round_trip(self):
        for layer in Layer:
            assert Layer.from_short_name(layer.short_name) is layer
        assert Layer.from_short_name(" h ") is Layer.HORIZONTAL

    def test_from_short_name_rejects_junk(self):
        with pytest.raises(ValueError):
            Layer.from_short_name("Z")


class TestGridPathConstruction:
    def test_single_node(self):
        path = GridPath([(1, 1, 0)])
        assert len(path) == 1
        assert path.wire_length == 0
        assert path.via_count == 0

    def test_wire_steps(self):
        path = GridPath([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
        assert path.wire_length == 2

    def test_via_step(self):
        path = GridPath([(1, 1, 0), (1, 1, 1)])
        assert path.via_count == 1
        assert path.via_cells() == [Point(1, 1)]

    def test_rejects_empty(self):
        with pytest.raises(PathError):
            GridPath([])

    def test_rejects_jump(self):
        with pytest.raises(PathError):
            GridPath([(0, 0, 0), (2, 0, 0)])

    def test_rejects_diagonal(self):
        with pytest.raises(PathError):
            GridPath([(0, 0, 0), (1, 1, 0)])

    def test_rejects_diagonal_via(self):
        with pytest.raises(PathError):
            GridPath([(0, 0, 0), (1, 0, 1)])

    def test_rejects_repeated_node(self):
        with pytest.raises(PathError):
            GridPath([(0, 0, 0), (0, 0, 0)])


class TestGridPathQueries:
    def _l_path(self):
        return GridPath(
            [(0, 0, 1), (0, 1, 1), (0, 2, 1), (0, 2, 0), (1, 2, 0)]
        )

    def test_endpoints(self):
        path = self._l_path()
        assert path.start == GridNode(0, 0, Layer.VERTICAL)
        assert path.end == GridNode(1, 2, Layer.HORIZONTAL)

    def test_counts(self):
        path = self._l_path()
        assert path.wire_length == 3
        assert path.via_count == 1

    def test_reversed(self):
        path = self._l_path()
        back = path.reversed()
        assert back.start == path.end and back.end == path.start
        assert back.wire_length == path.wire_length
        assert back.via_count == path.via_count

    def test_equality_and_hash(self):
        a = GridPath([(0, 0, 0), (1, 0, 0)])
        b = GridPath([(0, 0, 0), (1, 0, 0)])
        c = GridPath([(1, 0, 0), (0, 0, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_indexing_and_iter(self):
        path = self._l_path()
        assert path[0] == path.start
        assert list(path)[-1] == path.end


class TestFlatPaths:
    """Paths built from flat ids ``(layer * H + y) * W + x`` of a 4x3
    grid: 12 nodes a layer, ids 0..23."""

    NODES = [(0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 1), (1, 2, 1), (2, 2, 1)]

    def _twins(self):
        ids = [flat_id(node, 4, 3) for node in self.NODES]
        return ids, GridPath.from_ids(ids, 4, 3), GridPath(self.NODES)

    def test_equals_its_node_built_twin(self):
        ids, flat, nodes = self._twins()
        assert ids == [0, 1, 13, 17, 21, 22]
        assert flat == nodes and nodes == flat
        assert hash(flat) == hash(nodes)
        assert flat.nodes == nodes.nodes
        assert list(flat) == list(nodes)
        assert (flat.start, flat.end, len(flat)) == (
            nodes.start,
            nodes.end,
            len(nodes),
        )
        assert flat[2] == nodes[2] and flat[1:3] == nodes[1:3]
        assert flat.via_cells() == nodes.via_cells() == [Point(1, 0)]
        assert (flat.wire_length, flat.via_count) == (
            nodes.wire_length,
            nodes.via_count,
        )
        assert list(flat.ids_on(4, 3)) == nodes.ids_on(4, 3) == ids
        assert flat != GridPath.from_ids(ids[:-1], 4, 3)

    def test_pickle_round_trip_keeps_the_ids(self):
        ids, flat, nodes = self._twins()
        data = pickle.dumps(flat)
        assert b"GridNode" not in data
        back = pickle.loads(data)
        assert back == flat == nodes and hash(back) == hash(nodes)
        assert list(back.ids_on(4, 3)) == ids

    def test_ids_on_another_shape_are_recomputed(self):
        _, flat, _ = self._twins()
        assert list(flat.ids_on(5, 3)) == [
            flat_id(node, 5, 3) for node in self.NODES
        ]
        with pytest.raises(PathError, match="outside a 2x3 grid"):
            flat.ids_on(2, 3)

    @pytest.mark.parametrize(
        "ids",
        [
            [3, 4],  # +1 across the row end: (3, 0) to (0, 1)
            [4, 3],  # -1 back across it
            [8, 12],  # +W across the plane edge: (0, 2, 0) to (0, 0, 1)
            [12, 8],  # -W back across it
            [21, 25],  # +W past the top of layer 1
            [5, 5],  # a repeated id
            [0, 2],  # a jump
            [5, 18],  # a diagonal via
            [-1],  # ids outside [0, 24)
            [24],
            [23, 24],
            [2**40],
            [],
        ],
    )
    def test_illegal_walk_rejected(self, ids):
        with pytest.raises(PathError):
            GridPath.from_ids(ids, 4, 3)

    def test_degenerate_shapes(self):
        """In a one-column grid +-1 is a y step; in a one-row grid +-W
        is a via; in one cell +-1 is a via."""
        assert GridPath.from_ids([0, 1, 4], 1, 3).nodes == GridPath(
            [(0, 0, 0), (0, 1, 0), (0, 1, 1)]
        ).nodes
        assert len(GridPath.from_ids([0, 1, 5], 4, 1)) == 3
        assert GridPath.from_ids([1, 0], 1, 1).via_count == 1
        with pytest.raises(PathError):
            GridPath.from_ids([2, 3], 1, 3)  # column top to layer 1 bottom


class TestStraightPath:
    def test_horizontal(self):
        path = straight_path(Point(1, 2), Point(4, 2), Layer.HORIZONTAL)
        assert path.start == GridNode(1, 2, Layer.HORIZONTAL)
        assert path.end == GridNode(4, 2, Layer.HORIZONTAL)
        assert path.wire_length == 3

    def test_respects_direction(self):
        path = straight_path(Point(4, 2), Point(1, 2), Layer.HORIZONTAL)
        assert path.start.x == 4 and path.end.x == 1

    def test_degenerate(self):
        path = straight_path(Point(2, 2), Point(2, 2), Layer.VERTICAL)
        assert len(path) == 1

    def test_rejects_diagonal(self):
        with pytest.raises(ValueError):
            straight_path(Point(0, 0), Point(1, 1), Layer.VERTICAL)
