"""Half-open integer rectangles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.geometry.point import Point


@dataclass(frozen=True, order=True)
class Rect:
    """A half-open rectangle ``[x0, x1) x [y0, y1)`` of grid cells.

    The half-open convention means ``width == x1 - x0`` and two rectangles
    that merely touch along an edge do not intersect — the natural convention
    for cell-based occupancy maps.
    """

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self) -> None:
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise ValueError(f"degenerate rect {self}")

    @property
    def width(self) -> int:
        """Number of cell columns covered."""
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        """Number of cell rows covered."""
        return self.y1 - self.y0

    @property
    def area(self) -> int:
        """Number of cells covered."""
        return self.width * self.height

    @property
    def is_empty(self) -> bool:
        """True when the rect covers no cells."""
        return self.width == 0 or self.height == 0

    def contains(self, p: Point) -> bool:
        """True when cell ``p`` lies inside the half-open extents."""
        return self.x0 <= p[0] < self.x1 and self.y0 <= p[1] < self.y1

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """Overlapping cell rectangle, or ``None`` when disjoint/empty."""
        x0, y0 = max(self.x0, other.x0), max(self.y0, other.y0)
        x1, y1 = min(self.x1, other.x1), min(self.y1, other.y1)
        if x0 >= x1 or y0 >= y1:
            return None
        return Rect(x0, y0, x1, y1)

    def intersects(self, other: "Rect") -> bool:
        """True when the two rects share at least one cell."""
        return self.intersection(other) is not None

    def union_bbox(self, other: "Rect") -> "Rect":
        """Smallest rect covering both (the bounding box, not the union)."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return Rect(
            min(self.x0, other.x0),
            min(self.y0, other.y0),
            max(self.x1, other.x1),
            max(self.y1, other.y1),
        )

    def cells(self) -> Iterator[Point]:
        """Yield every cell in row-major (y outer, x inner) order."""
        for y in range(self.y0, self.y1):
            for x in range(self.x0, self.x1):
                yield Point(x, y)
