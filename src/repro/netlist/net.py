"""Nets and pins."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.grid.layers import Layer
from repro.grid.path import GridNode


@dataclass(frozen=True, order=True)
class Pin:
    """A fixed terminal the router must reach.

    Pins occupy one grid node.  They are immovable: the router may never rip
    up or shove another net's pin, only its wiring.
    """

    x: int
    y: int
    layer: Layer = Layer.VERTICAL

    @property
    def node(self) -> GridNode:
        """The grid node this pin occupies."""
        return GridNode(self.x, self.y, Layer(self.layer))


@dataclass(frozen=True)
class Net:
    """A named net: a set of pins that must become electrically connected."""

    name: str
    pins: Tuple[Pin, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pins", tuple(self.pins))
        if not self.name:
            raise ValueError("net name must be non-empty")
        if len(set(self.pins)) != len(self.pins):
            raise ValueError(f"net {self.name!r} has duplicate pins")

    @property
    def pin_count(self) -> int:
        """Number of pins on the net."""
        return len(self.pins)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Net({self.name!r}, pins={len(self.pins)})"
