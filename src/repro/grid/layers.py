"""Wiring layers of the two-layer routing fabric."""

from __future__ import annotations

import enum


class Layer(enum.IntEnum):
    """The two wiring layers.

    ``HORIZONTAL`` (layer 0, e.g. metal-1) prefers east/west wires;
    ``VERTICAL`` (layer 1, e.g. metal-2 or poly) prefers north/south wires.
    The preference is advisory — the cost model charges a penalty for
    wrong-way use rather than forbidding it, matching Mighty's relaxed
    reserved-layer model.
    """

    HORIZONTAL = 0
    VERTICAL = 1

    @property
    def other(self) -> "Layer":
        """The opposite layer (what a via switches to)."""
        return Layer(1 - self.value)

    @property
    def short_name(self) -> str:
        """One-letter tag used by renderers and file formats."""
        return "H" if self is Layer.HORIZONTAL else "V"

    @staticmethod
    def from_short_name(name: str) -> "Layer":
        """Inverse of :attr:`short_name` (case-insensitive)."""
        upper = name.strip().upper()
        if upper == "H":
            return Layer.HORIZONTAL
        if upper == "V":
            return Layer.VERTICAL
        raise ValueError(f"unknown layer tag {name!r} (expected 'H' or 'V')")
