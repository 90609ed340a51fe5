"""The routing cost model.

All costs are small integers so the A* arithmetic stays exact, and every
move costs at least 1: a wire step costs 1, plus
:attr:`CostModel.wrong_way_penalty` when it runs against the layer's grain,
and a layer change costs :attr:`CostModel.via_cost`, which is at least 1.
That invariant is what the searchers' heuristic and their bounds rely on
(ALGORITHM.md §2).  During weak/strong modification searches, entering a
cell owned by another (rippable) net adds
:attr:`CostModel.conflict_penalty` — the knob that makes the searcher prefer
empty fabric, then single-victim plans, then multi-victim plans, exactly the
preference order the paper describes for its modification machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Per-layer move costs indexed by axis code (see :mod:`repro.maze.arena`):
#: ``table[layer][axis]`` with axis 0 = x step, 1 = y step, 2 = via.
AxisCostTable = Tuple[Tuple[int, int, int], Tuple[int, int, int]]


@dataclass(frozen=True)
class CostModel:
    """Integer edge costs for the grid searcher."""

    wrong_way_penalty: int = 2
    via_cost: int = 4
    conflict_penalty: int = 50

    def __post_init__(self) -> None:
        if self.via_cost < 1:
            raise ValueError("via_cost must be at least 1")
        for attr in ("wrong_way_penalty", "conflict_penalty"):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} must be non-negative")
        # Precompute the per-layer cost rows once per model: the searcher
        # reads table[layer][axis] per expansion, never re-deriving the
        # wrong-way arithmetic in the hot loop.  Layer 0 runs east-west,
        # layer 1 north-south.
        wrong = 1 + self.wrong_way_penalty
        object.__setattr__(
            self,
            "_axis_costs",
            ((1, wrong, self.via_cost), (wrong, 1, self.via_cost)),
        )

    @property
    def axis_cost_table(self) -> AxisCostTable:
        """Precomputed ``table[layer][axis]`` move costs (axis codes from
        :mod:`repro.maze.arena`: 0 = x step, 1 = y step, 2 = via)."""
        return self._axis_costs

    def wire_step(self, with_grain: bool) -> int:
        """Cost of one wire step, given whether it follows the layer grain."""
        if with_grain:
            return 1
        return 1 + self.wrong_way_penalty

    @staticmethod
    def uniform() -> "CostModel":
        """All moves cost 1 — makes A* agree with the Lee router."""
        return CostModel(wrong_way_penalty=0, via_cost=1, conflict_penalty=0)
