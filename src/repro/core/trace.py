"""Convergence analysis of the router's event trace.

The router records every route/weak/strong/fail/defer event; this module
turns that log into the series behind the convergence figure (experiment
E4): open connections over time and the steps at which each kind of
modification fired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.result import RouteResult


@dataclass(frozen=True)
class ConvergencePoint:
    """One sample of the convergence series."""

    step: int
    open_connections: int
    kind: str


@dataclass
class ConvergenceSeries:
    """The router's progress over its iteration axis."""

    points: List[ConvergencePoint] = field(default_factory=list)

    @property
    def final_open(self) -> int:
        """Open connections at the end of the run."""
        return self.points[-1].open_connections if self.points else 0

    @property
    def peak_open(self) -> int:
        """Worst (largest) open count seen — rip-up makes this non-monotone."""
        return max((p.open_connections for p in self.points), default=0)

    def strictly_monotone(self) -> bool:
        """True when progress never regressed (no rip-up happened)."""
        opens = [p.open_connections for p in self.points]
        return all(a >= b for a, b in zip(opens, opens[1:]))

    def as_rows(self, stride: int = 1) -> List[Tuple[int, int, str]]:
        """Table rows ``(step, open, kind)``, optionally subsampled."""
        return [
            (p.step, p.open_connections, p.kind)
            for index, p in enumerate(self.points)
            if index % stride == 0
        ]


def convergence_series(result: RouteResult) -> ConvergenceSeries:
    """Extract the convergence series from a routing result's event trace."""
    return ConvergenceSeries(
        points=[
            ConvergencePoint(
                step=event.step,
                open_connections=event.open_connections,
                kind=event.kind,
            )
            for event in result.events
        ]
    )


def modification_activity(result: RouteResult) -> Dict[str, List[int]]:
    """Steps at which each modification kind fired (figure annotations)."""
    activity: Dict[str, List[int]] = {}
    for event in result.events:
        if event.kind in ("weak", "strong", "defer", "retry", "restore"):
            activity.setdefault(event.kind, []).append(event.step)
    return activity
