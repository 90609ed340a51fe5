"""Routed paths: walks over ``(x, y, layer)`` grid nodes.

A node of a ``width x height`` two-layer grid also has a *flat id*,
``(layer * height + y) * width + x``: the index the grid's stores and the
search kernels use.  :func:`flat_id` is the one checked conversion from
node to flat id; :func:`node_at` is its inverse.
"""

from __future__ import annotations

from array import array
from typing import (
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.geometry.point import Point
from repro.grid.layers import Layer

_LAYERS = tuple(Layer)


class GridNode(NamedTuple):
    """One occupied grid location: a cell on a specific layer."""

    x: int
    y: int
    layer: Layer

    @property
    def point(self) -> Point:
        """The ``(x, y)`` cell, layer dropped."""
        return Point(self.x, self.y)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GridNode({self.x}, {self.y}, {Layer(self.layer).short_name})"


class PathError(ValueError):
    """Raised for walks that are not legal grid paths."""


def flat_id(
    node: Tuple[int, int, int], width: int, height: int
) -> Optional[int]:
    """Flat id of ``(x, y, layer)`` on a ``width x height`` two-layer grid,
    or ``None`` when x, y or the layer lies outside it.

    A layer outside ``{0, 1}`` counts as out of bounds exactly like x or y;
    folded into the arithmetic unchecked it would wrap (layer -1) or read
    past the stores (layer 2).
    """
    x, y, layer = node
    if 0 <= x < width and 0 <= y < height and 0 <= layer <= 1:
        return (layer * height + y) * width + x
    return None


def node_at(index: int, width: int, height: int) -> GridNode:
    """The node with flat id ``index`` (assumed in range)."""
    plane = width * height
    y, x = divmod(index % plane, width)
    return GridNode(x, y, _LAYERS[index // plane])


def _check_steps(nodes: Sequence[GridNode]) -> None:
    """Raise :class:`PathError` unless every step is a wire step or a via."""
    for a, b in zip(nodes, nodes[1:]):
        if a == b:
            raise PathError(f"repeated node {a!r}")
        step = abs(a.x - b.x) + abs(a.y - b.y)
        if a.layer == b.layer:
            if step != 1:
                raise PathError(f"non-unit wire step {a!r} -> {b!r}")
        elif step != 0:
            raise PathError(f"diagonal via {a!r} -> {b!r}")


class GridPath:
    """An immutable legal walk over the routing grid.

    Consecutive nodes must either be Manhattan neighbours on the same layer
    (a wire step) or the same cell on the other layer (a via).  A path with
    a single node is legal (a connection whose endpoints already touch).

    A path holds one representation: the nodes it was built from, or, when
    built by :meth:`from_ids`, the flat ids and the grid shape.  A flat path
    builds :class:`GridNode` objects only when a caller reads them, and
    pickles as its ids.  Paths compare and hash by their nodes, whichever
    way they were built.
    """

    __slots__ = ("_nodes", "_ids", "_width", "_height")

    def __init__(self, nodes: Iterable[Tuple[int, int, int]]) -> None:
        normalised = [GridNode(x, y, Layer(layer)) for x, y, layer in nodes]
        if not normalised:
            raise PathError("a path needs at least one node")
        _check_steps(normalised)
        self._nodes: Optional[Tuple[GridNode, ...]] = tuple(normalised)
        self._ids: Optional[array] = None
        self._width = self._height = 0

    @classmethod
    def from_ids(
        cls, ids: Sequence[int], width: int, height: int
    ) -> "GridPath":
        """The walk over flat ids ``ids`` of a ``width x height`` grid.

        Applies the same legality rules as the node constructor, plus every
        id must lie in ``[0, 2 * width * height)``.
        """
        if len(ids) == 0:
            raise PathError("a path needs at least one node")
        limit = 2 * width * height
        for index in ids:
            if not 0 <= index < limit:
                raise PathError(
                    f"flat id {index} outside a {width}x{height} grid"
                )
        _check_steps([node_at(i, width, height) for i in ids])
        return cls._of_legal_ids(array("i", ids), width, height)

    @classmethod
    def _of_legal_ids(
        cls, ids: array, width: int, height: int
    ) -> "GridPath":
        """Wrap an ``array('i')`` of flat ids already known to be a legal
        walk, unchecked and uncopied.

        :meth:`from_ids` calls this after its checks; the A* search calls
        it for a kernel's path, legal by construction because every step
        is one of the kernel's moves (the parity suite checks each one
        with :meth:`from_ids`).
        """
        path = cls.__new__(cls)
        path._nodes = None
        path._ids = ids
        path._width = width
        path._height = height
        return path

    def ids_on(self, width: int, height: int) -> Sequence[int]:
        """Flat ids of the walk's nodes on a ``width x height`` grid.

        A path built by :meth:`from_ids` for that shape returns its own ids
        (read-only); otherwise they are computed from the nodes.  Raises
        :class:`PathError` when a node lies outside the grid.
        """
        if (
            self._ids is not None
            and self._width == width
            and self._height == height
        ):
            return self._ids
        ids = [flat_id(node, width, height) for node in self.nodes]
        if None in ids:
            node = self.nodes[ids.index(None)]
            raise PathError(f"node {node!r} outside a {width}x{height} grid")
        return ids

    @property
    def nodes(self) -> Tuple[GridNode, ...]:
        """The node sequence (start to end); built afresh for a flat path."""
        if self._nodes is not None:
            return self._nodes
        width, height = self._width, self._height
        return tuple([node_at(i, width, height) for i in self._ids])

    @property
    def start(self) -> GridNode:
        """First node of the walk."""
        return self[0]

    @property
    def end(self) -> GridNode:
        """Last node of the walk."""
        return self[-1]

    @property
    def wire_length(self) -> int:
        """Number of unit wire steps (vias excluded)."""
        return sum(
            1 for a, b in self._steps() if a.layer == b.layer
        )

    @property
    def via_count(self) -> int:
        """Number of layer changes along the walk."""
        return sum(1 for a, b in self._steps() if a.layer != b.layer)

    def via_cells(self) -> List[Point]:
        """Cells where the walk changes layer."""
        return [a.point for a, b in self._steps() if a.layer != b.layer]

    def reversed(self) -> "GridPath":
        """The same walk traversed end-to-start."""
        return GridPath(reversed(self.nodes))

    def _steps(self) -> Iterator[Tuple[GridNode, GridNode]]:
        nodes = self.nodes
        return zip(nodes, nodes[1:])

    def __len__(self) -> int:
        return len(self._nodes if self._ids is None else self._ids)

    def __iter__(self) -> Iterator[GridNode]:
        return iter(self.nodes)

    def __getitem__(self, index: int) -> GridNode:
        if self._ids is None or isinstance(index, slice):
            return self.nodes[index]
        return node_at(self._ids[index], self._width, self._height)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridPath):
            return NotImplemented
        if self._ids is not None and other._ids is not None and (
            self._width,
            self._height,
        ) == (other._width, other._height):
            return self._ids == other._ids
        return self.nodes == other.nodes

    def __hash__(self) -> int:
        return hash(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GridPath({self.start!r} -> {self.end!r}, "
            f"wire={self.wire_length}, vias={self.via_count})"
        )


def straight_path(
    a: Point, b: Point, layer: Layer
) -> GridPath:
    """Build the single-segment path from ``a`` to ``b`` on ``layer``.

    ``a`` and ``b`` must be axis-aligned (a :class:`ValueError` otherwise);
    a degenerate (single-node) path is produced when they coincide.
    """
    (ax, ay), (bx, by) = a, b
    if ax != bx and ay != by:
        raise ValueError(f"{a!r}-{b!r} is not axis-parallel")
    dx, dy = (bx > ax) - (bx < ax), (by > ay) - (by < ay)
    return GridPath(
        (ax + i * dx, ay + i * dy, layer)
        for i in range(abs(bx - ax) + abs(by - ay) + 1)
    )
