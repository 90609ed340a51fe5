"""The general detailed-routing problem.

A :class:`RoutingProblem` is the common denominator every router consumes:
a grid extent, an optional rectilinear routable region, explicit obstacle
cells, and a list of nets with fixed pins.  Channels and switchboxes are
thin builders on top of this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Dict, List, Optional

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.region import RectilinearRegion
from repro.grid.layers import Layer
from repro.grid.path import GridNode
from repro.grid.routing_grid import RoutingGrid
from repro.maze.kernels.pure import INDEX_MASK
from repro.netlist.net import Net


class ProblemError(ValueError):
    """Raised for ill-formed routing problems."""


def _integers(*values) -> bool:
    """True when every value is an integer (a bool is not)."""
    for v in values:
        if type(v) is not int and (
            not isinstance(v, Integral) or type(v) is bool
        ):
            return False
    return True


@dataclass(frozen=True)
class Obstacle:
    """A blocked rectangle on one layer (or both when ``layer is None``)."""

    rect: Rect
    layer: Optional[Layer] = None


@dataclass
class RoutingProblem:
    """A complete detailed-routing instance.

    Attributes
    ----------
    width, height:
        Grid extents.
    nets:
        The nets to route; net ids are assigned 1..N in list order.
    region:
        Optional rectilinear routable region (defaults to the full grid).
    obstacles:
        Blocked rectangles, possibly layer-specific.
    name:
        Human-readable instance label used in reports.
    """

    width: int
    height: int
    nets: List[Net] = field(default_factory=list)
    region: Optional[RectilinearRegion] = None
    obstacles: List[Obstacle] = field(default_factory=list)
    name: str = "problem"

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ProblemError` unless the instance is well-formed.

        Every coordinate and extent must be an integer, and the region
        and every obstacle must lie on the grid, so :meth:`build_grid`
        never meets geometry it cannot place.
        """
        if not _integers(self.width, self.height):
            raise ProblemError(
                f"extents {self.width!r}x{self.height!r} are not integers"
            )
        if self.width <= 0 or self.height <= 0:
            raise ProblemError(f"bad extents {self.width}x{self.height}")
        if 2 * self.width * self.height > INDEX_MASK:
            raise ProblemError(
                f"a {self.width}x{self.height} grid has "
                f"{2 * self.width * self.height} nodes; the search indexes "
                f"at most {INDEX_MASK}"
            )

        def fits(rect: Rect) -> bool:
            return rect.is_empty or (
                rect.x0 >= 0 and rect.y0 >= 0
                and rect.x1 <= self.width and rect.y1 <= self.height
            )

        if self.region is not None and not fits(self.region.bbox):
            raise ProblemError(
                f"region bbox {self.region.bbox} does not fit a "
                f"{self.width}x{self.height} grid"
            )
        for obstacle in self.obstacles:
            rect = obstacle.rect
            if not _integers(rect.x0, rect.y0, rect.x1, rect.y1):
                raise ProblemError(f"obstacle {rect} has non-integer corners")
            if not fits(rect):
                raise ProblemError(
                    f"obstacle {rect} does not fit a "
                    f"{self.width}x{self.height} grid"
                )
        names = [net.name for net in self.nets]
        if len(set(names)) != len(names):
            raise ProblemError("duplicate net names")
        seen: Dict[GridNode, str] = {}
        for net in self.nets:
            for pin in net.pins:
                if not _integers(pin.x, pin.y):
                    raise ProblemError(
                        f"pin {pin} of net {net.name!r} has a non-integer "
                        "coordinate"
                    )
                if not (0 <= pin.x < self.width and 0 <= pin.y < self.height):
                    raise ProblemError(
                        f"pin {pin} of net {net.name!r} is outside the grid"
                    )
                if self.region is not None and not self.region.contains(
                    Point(pin.x, pin.y)
                ):
                    raise ProblemError(
                        f"pin {pin} of net {net.name!r} is outside the region"
                    )
                node = pin.node
                if node in seen and seen[node] != net.name:
                    raise ProblemError(
                        f"pin collision at {tuple(node)} between nets "
                        f"{seen[node]!r} and {net.name!r}"
                    )
                seen[node] = net.name
                for obstacle in self.obstacles:
                    on_layer = obstacle.layer is None or obstacle.layer == pin.layer
                    if on_layer and obstacle.rect.contains(Point(pin.x, pin.y)):
                        raise ProblemError(
                            f"pin {pin} of net {net.name!r} sits on an obstacle"
                        )

    # ------------------------------------------------------------------
    # Net-id bookkeeping
    # ------------------------------------------------------------------
    def net_id(self, name: str) -> int:
        """The 1-based grid id of net ``name``."""
        for index, net in enumerate(self.nets):
            if net.name == name:
                return index + 1
        raise KeyError(name)

    def net_by_id(self, net_id: int) -> Net:
        """Inverse of :meth:`net_id`."""
        if not 1 <= net_id <= len(self.nets):
            raise KeyError(net_id)
        return self.nets[net_id - 1]

    def net_ids(self) -> Dict[str, int]:
        """Mapping from net name to grid id."""
        return {net.name: index + 1 for index, net in enumerate(self.nets)}

    @property
    def pin_count(self) -> int:
        """Total number of pins across all nets."""
        return sum(net.pin_count for net in self.nets)

    @property
    def connection_count(self) -> int:
        """Two-pin connections of the nets' spanning trees (``pins - 1``
        per net, none below two pins; see ``decompose_problem``)."""
        return sum(max(0, net.pin_count - 1) for net in self.nets)

    # ------------------------------------------------------------------
    # Grid realisation
    # ------------------------------------------------------------------
    def build_grid(self) -> RoutingGrid:
        """Materialise a fresh :class:`RoutingGrid` for this problem.

        Obstacles are blocked, then every pin is reserved for its net.  Each
        call returns an independent grid, so routers can be compared on
        identical virgin fabric.
        """
        grid = RoutingGrid(self.width, self.height, region=self.region)
        for obstacle in self.obstacles:
            for cell in obstacle.rect.cells():
                grid.set_obstacle(cell.x, cell.y, obstacle.layer)
        for index, net in enumerate(self.nets):
            for pin in net.pins:
                grid.reserve_pin(index + 1, pin.node)
        return grid

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RoutingProblem({self.name!r}, {self.width}x{self.height}, "
            f"nets={len(self.nets)}, pins={self.pin_count})"
        )
