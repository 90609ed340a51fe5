"""Geometric substrate: points, directions, rectangles, regions.

Everything in :mod:`repro` lives on an integer grid.  This package supplies
the small, well-tested vocabulary the rest of the library is written in:

* :class:`~repro.geometry.point.Point` — an immutable ``(x, y)`` lattice point.
* :class:`~repro.geometry.point.Direction` — the four Manhattan directions.
* :class:`~repro.geometry.rect.Rect` — a half-open integer rectangle.
* :class:`~repro.geometry.region.RectilinearRegion` — an arbitrary rectilinear
  routing region (union of rectangles minus obstacle rectangles), which is how
  the router models the "any rectilinear boundary, obstructions of any shape"
  generality claimed by the paper.
"""

from repro.geometry.point import Direction, Point
from repro.geometry.rect import Rect
from repro.geometry.region import RectilinearRegion

__all__ = [
    "Direction",
    "Point",
    "Rect",
    "RectilinearRegion",
]
