"""Minimum-width sweeps over shrinking switchboxes (experiment E2).

The paper's flagship switchbox result is completing Burstein's difficult
switchbox "using one less column than the original data".  The sweep
reproduces the *shape* of that claim without the original pin list: starting
from a box, empty columns are deleted one at a time (centre-out, so the
congested middle tightens first), every router is run on the identical
sequence of shrinking boxes, and the narrowest completed width is recorded
per router.  Mighty completing at a smaller width than the no-modification
baseline is the reproduced result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> sweep)
    from repro.engine.deadline import Deadline

from repro.analysis.verify import verify_routing
from repro.core.config import MightyConfig
from repro.core.result import RouteResult
from repro.core.router import route_problem, router_tag
from repro.netlist.switchbox import SwitchboxSpec


@dataclass
class WidthSweepOutcome:
    """Result of one router over the shrinking sequence."""

    router: str
    results: List[RouteResult] = field(default_factory=list)
    widths: List[int] = field(default_factory=list)
    completed: List[bool] = field(default_factory=list)

    @property
    def min_completed_width(self) -> Optional[int]:
        """Narrowest width this router fully completed (None if never)."""
        winners = [
            width
            for width, done in zip(self.widths, self.completed)
            if done
        ]
        return min(winners) if winners else None


def shrinking_sequence(
    spec: SwitchboxSpec, max_deletions: Optional[int] = None
) -> List[SwitchboxSpec]:
    """The box followed by successively narrower boxes.

    Each step deletes the empty column closest to the box centre.  The
    sequence is deterministic, so every router is measured on identical
    instances.
    """
    sequence = [spec]
    current = spec
    remaining = max_deletions if max_deletions is not None else spec.width
    while remaining > 0:
        empties = current.empty_columns()
        if not empties:
            break
        centre = (current.width - 1) / 2
        column = min(empties, key=lambda c: (abs(c - centre), c))
        current = current.without_column(column)
        sequence.append(current)
        remaining -= 1
    return sequence


def minimum_routable_width(
    spec: SwitchboxSpec,
    config: Optional[MightyConfig] = None,
    router_name: str = "",
    max_deletions: Optional[int] = None,
    stop_after_failures: int = 2,
    deadline: Optional["Deadline"] = None,
) -> WidthSweepOutcome:
    """Run one configuration over the shrinking sequence.

    Stops early after ``stop_after_failures`` consecutive failed widths
    (narrower boxes only get harder).  A ``deadline``
    (:class:`~repro.engine.deadline.Deadline`) bounds the whole sweep: the
    current attempt degrades to a partial result and no further widths are
    tried, so a sweep can never hang a worker.
    """
    config = config or MightyConfig()
    outcome = WidthSweepOutcome(router=router_name or router_tag(config))
    consecutive_failures = 0
    for shrunk in shrinking_sequence(spec, max_deletions=max_deletions):
        if deadline is not None and deadline.expired():
            break
        problem = shrunk.to_problem()
        result = route_problem(problem, config, deadline=deadline)
        done = result.success and verify_routing(problem, result.grid).ok
        outcome.results.append(result)
        outcome.widths.append(shrunk.width)
        outcome.completed.append(done)
        consecutive_failures = 0 if done else consecutive_failures + 1
        if consecutive_failures >= stop_after_failures:
            break
    return outcome

