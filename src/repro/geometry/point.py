"""Lattice points and Manhattan directions."""

from __future__ import annotations

import enum
from typing import Iterator, NamedTuple


class Point(NamedTuple):
    """An immutable integer lattice point.

    ``Point`` subclasses :class:`tuple`, so points are hashable, orderable
    (row-major on ``(x, y)``), cheap to allocate, and unpack naturally::

        >>> p = Point(3, 4)
        >>> x, y = p
        >>> (x, y)
        (3, 4)
    """

    x: int
    y: int

    def step(self, direction: "Direction") -> "Point":
        """Return the neighbouring point one grid unit in ``direction``."""
        dx, dy = direction.delta
        return Point(self.x + dx, self.y + dy)

    def neighbors(self) -> Iterator["Point"]:
        """Yield the four Manhattan neighbours (E, W, N, S order)."""
        for direction in Direction:
            yield self.step(direction)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Point({self.x}, {self.y})"


class Direction(enum.Enum):
    """The four Manhattan directions.

    ``Direction.EAST.delta`` is the unit ``(dx, dy)`` step; ``NORTH`` points
    toward increasing ``y`` (the grid is mathematically oriented, not
    screen-oriented).
    """

    EAST = (1, 0)
    WEST = (-1, 0)
    NORTH = (0, 1)
    SOUTH = (0, -1)

    @property
    def delta(self) -> tuple:
        """Unit ``(dx, dy)`` displacement of this direction."""
        return self.value
