"""Arbitrary rectilinear routing regions.

Mighty's headline generality claim is that "the boundaries can be described
by any rectilinear chains and the pins can be on the boundaries of the region
or inside it, the obstructions can be of any shape and size".  A
:class:`RectilinearRegion` captures exactly that: a union of positive
rectangles minus a union of obstacle rectangles, rasterised onto a boolean
membership mask over the bounding box.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rect import Rect


class RectilinearRegion:
    """A rectilinear set of routable cells.

    Parameters
    ----------
    keep:
        Rectangles whose union forms the routable area.
    remove:
        Obstacle rectangles subtracted from the union (may poke outside it).
    """

    def __init__(
        self, keep: Sequence[Rect], remove: Sequence[Rect] = ()
    ) -> None:
        keep = [r for r in keep if not r.is_empty]
        if not keep:
            raise ValueError("a region needs at least one non-empty rectangle")
        bbox = keep[0]
        for r in keep[1:]:
            bbox = bbox.union_bbox(r)
        self._bbox = bbox
        self._mask = np.zeros((bbox.height, bbox.width), dtype=bool)
        for r in keep:
            self._mask[
                r.y0 - bbox.y0 : r.y1 - bbox.y0, r.x0 - bbox.x0 : r.x1 - bbox.x0
            ] = True
        for r in remove:
            clipped = r.intersection(bbox)
            if clipped is None:
                continue
            self._mask[
                clipped.y0 - bbox.y0 : clipped.y1 - bbox.y0,
                clipped.x0 - bbox.x0 : clipped.x1 - bbox.x0,
            ] = False

    @staticmethod
    def rectangle(width: int, height: int) -> "RectilinearRegion":
        """The plain ``width x height`` box anchored at the origin."""
        return RectilinearRegion([Rect(0, 0, width, height)])

    @property
    def bbox(self) -> Rect:
        """Bounding box of the keep rectangles."""
        return self._bbox

    @property
    def cell_count(self) -> int:
        """Number of routable cells."""
        return int(self._mask.sum())

    def contains(self, p: Point) -> bool:
        """True when cell ``p`` is routable."""
        x, y = p[0] - self._bbox.x0, p[1] - self._bbox.y0
        if not (0 <= x < self._bbox.width and 0 <= y < self._bbox.height):
            return False
        return bool(self._mask[y, x])

    def cells(self) -> Iterator[Point]:
        """Yield every routable cell in row-major order."""
        ys, xs = np.nonzero(self._mask)
        for y, x in zip(ys.tolist(), xs.tolist()):
            yield Point(x + self._bbox.x0, y + self._bbox.y0)

    def is_connected(self) -> bool:
        """True when the routable cells form one 4-connected component."""
        cells = list(self.cells())
        if not cells:
            return False
        seen = {cells[0]}
        stack = [cells[0]]
        while stack:
            p = stack.pop()
            for q in p.neighbors():
                if q not in seen and self.contains(q):
                    seen.add(q)
                    stack.append(q)
        return len(seen) == len(cells)

    def to_rects(self) -> List[Rect]:
        """Decompose the region into disjoint rects (one per row run).

        Used for serialisation; ``RectilinearRegion(region.to_rects())``
        reconstructs an equal region.
        """
        rects: List[Rect] = []
        for row in range(self._bbox.height):
            x = 0
            while x < self._bbox.width:
                if self._mask[row, x]:
                    start = x
                    while x < self._bbox.width and self._mask[row, x]:
                        x += 1
                    rects.append(
                        Rect(
                            start + self._bbox.x0,
                            row + self._bbox.y0,
                            x + self._bbox.x0,
                            row + 1 + self._bbox.y0,
                        )
                    )
                else:
                    x += 1
        return rects

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RectilinearRegion):
            return NotImplemented
        return self._bbox == other._bbox and bool(
            np.array_equal(self._mask, other._mask)
        )

    def mask(self) -> np.ndarray:
        """Copy of the boolean membership mask (shape ``(height, width)``)."""
        return self._mask.copy()

    def __contains__(self, p: Iterable[int]) -> bool:
        return self.contains(Point(*p))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RectilinearRegion(bbox={self._bbox}, cells={self.cell_count})"
        )
