"""Minimum-width sweeps over shrinking switchboxes (experiment E2).

The paper's flagship switchbox result is completing Burstein's difficult
switchbox "using one less column than the original data".  The sweep
reproduces the *shape* of that claim without the original pin list: starting
from a box, empty columns are deleted one at a time (centre-out, so the
congested middle tightens first), every router is run on the identical
sequence of shrinking boxes, and the narrowest completed width is recorded
per router.  Mighty completing at a smaller width than the no-modification
baseline is the reproduced result.

The widths in a sweep are independent routing problems, so
:func:`minimum_routable_width` can farm them out to a process pool
(``workers=N``).  Speculation is bounded by routing in waves of ``workers``
widths and the outcome is made deterministic by *replaying* the sequential
stop rule over the speculative results: whatever a worker computed past the
point where a sequential sweep would have stopped is discarded, so
``workers=N`` returns the same widths/completed/min-width answer as
``workers=1``.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> sweep)
    from repro.engine.deadline import Deadline

from repro.analysis.verify import verify_routing
from repro.core.config import MightyConfig
from repro.core.result import RouteResult
from repro.core.router import route_problem, router_tag
from repro.maze.arena import SearchArena
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


def _attempt_width(
    shrunk: SwitchboxSpec,
    config: MightyConfig,
    budget_s: Optional[float],
) -> Tuple[RouteResult, bool]:
    """Route one width in isolation (the process-pool work unit).

    Module-level so it pickles; builds its own arena and deadline because
    neither may cross a process boundary.
    """
    from repro.engine.deadline import Deadline

    problem = shrunk.to_problem()
    deadline = Deadline(budget_s) if budget_s is not None else None
    result = route_problem(
        problem, config, deadline=deadline, arena=SearchArena()
    )
    done = result.success and verify_routing(problem, result.grid).ok
    return result, done


def minimum_routable_width(
    spec: SwitchboxSpec,
    config: Optional[MightyConfig] = None,
    router_name: str = "",
    max_deletions: Optional[int] = None,
    stop_after_failures: int = 2,
    deadline: Optional["Deadline"] = None,
    workers: int = 1,
) -> WidthSweepOutcome:
    """Run one configuration over the shrinking sequence.

    Stops early after ``stop_after_failures`` consecutive failed widths
    (narrower boxes only get harder).  A ``deadline``
    (:class:`~repro.engine.deadline.Deadline`) bounds the whole sweep: the
    current attempt degrades to a partial result and no further widths are
    tried, so a sweep can never hang a worker.

    ``workers > 1`` routes widths speculatively on a process pool, in
    waves of ``workers``.  The sequential stop rule is replayed over the
    wave results in sequence order, so the recorded widths, completions
    and ``min_completed_width`` are identical to the ``workers=1`` run;
    speculative attempts past the stop point are discarded.  With a
    ``deadline`` the budget is re-measured when each wave is submitted
    (every attempt in the wave gets the remaining budget), so a parallel
    sweep honours the same overall budget but may finish attempts a
    sequential sweep would not have started.
    """
    config = config or MightyConfig()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    outcome = WidthSweepOutcome(router=router_name or router_tag(config))
    sequence = shrinking_sequence(spec, max_deletions=max_deletions)

    if workers > 1:
        return _parallel_sweep(
            outcome, sequence, config, stop_after_failures, deadline, workers
        )

    consecutive_failures = 0
    # One search arena for the whole sweep: the arena caches scratch
    # planes per grid shape, so repeated attempts and re-visited widths
    # reuse their planes instead of reallocating per run.
    arena = SearchArena()
    for shrunk in sequence:
        if deadline is not None and deadline.expired():
            break
        problem = shrunk.to_problem()
        result = route_problem(problem, config, deadline=deadline, arena=arena)
        done = result.success and verify_routing(problem, result.grid).ok
        outcome.results.append(result)
        outcome.widths.append(shrunk.width)
        outcome.completed.append(done)
        consecutive_failures = 0 if done else consecutive_failures + 1
        if consecutive_failures >= stop_after_failures:
            break
    return outcome


def _parallel_sweep(
    outcome: WidthSweepOutcome,
    sequence: List[SwitchboxSpec],
    config: MightyConfig,
    stop_after_failures: int,
    deadline: Optional["Deadline"],
    workers: int,
) -> WidthSweepOutcome:
    """Speculative wave execution with deterministic truncation."""
    consecutive_failures = 0
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for start in range(0, len(sequence), workers):
            if deadline is not None and deadline.expired():
                break
            wave = sequence[start:start + workers]
            budget = deadline.remaining() if deadline is not None else None
            futures = [
                pool.submit(_attempt_width, shrunk, config, budget)
                for shrunk in wave
            ]
            stopped = False
            for shrunk, future in zip(wave, futures):
                result, done = future.result()
                if stopped:
                    continue  # discard speculation past the stop point
                outcome.results.append(result)
                outcome.widths.append(shrunk.width)
                outcome.completed.append(done)
                consecutive_failures = (
                    0 if done else consecutive_failures + 1
                )
                if consecutive_failures >= stop_after_failures:
                    stopped = True
            if stopped:
                break
    return outcome
