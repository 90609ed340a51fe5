"""The resilient routing engine: deadlines, retries, fallback cascade.

:class:`RoutingEngine` supervises :class:`~repro.core.router.MightyRouter`
runs the way a production service must: a pathological problem may *fail*,
but it may never hang a worker or crash it with a raw exception.  The
engine guarantees, in its default configuration, that :meth:`RoutingEngine
.route` always returns a :class:`~repro.core.result.RouteResult` — complete
when possible, ``status="partial"`` otherwise — with per-attempt telemetry
in ``result.stats.attempt_log`` and never lets an exception escape.

The cascade, in order:

1. **Mighty** with the caller's configuration, under the wall-clock
   deadline and the per-connection expansion cap;
2. **retried Mighty** — up to ``max_attempts - 1`` escalated re-runs with
   perturbed ordering / rip budgets (:mod:`repro.engine.policy`);
3. **classical channel fallbacks** — when the problem came from a
   :class:`~repro.netlist.channel.ChannelSpec` (the only geometry the
   baselines understand), the greedy column-sweep router and YACR-lite each
   get one shot.

Callers that prefer exceptions opt in with ``on_timeout="raise"`` /
``on_infeasible="raise"``, which raise the structured
:class:`~repro.errors.RouteTimeout` / :class:`~repro.errors.RouteInfeasible`
carrying the machine-readable outcome.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.analysis.verify import verify_result
from repro.core.config import MightyConfig
from repro.core.decompose import decompose_problem
from repro.core.result import RouteResult, RouteStats
from repro.core.router import MightyRouter
from repro.engine.deadline import Deadline
from repro.engine.policy import escalation_schedule
from repro.errors import RouteInfeasible, RouteTimeout
from repro.netlist.channel import ChannelSpec
from repro.netlist.problem import RoutingProblem

_OUTCOME_CHOICES = ("partial", "raise")


@dataclass(frozen=True)
class EngineConfig:
    """Supervision policy of a :class:`RoutingEngine`.

    Attributes
    ----------
    deadline_s:
        Wall-clock budget for the whole cascade (None = unlimited).  The
        budget is shared: retries and fallbacks only run on leftover time.
    max_attempts:
        Total Mighty attempts (the first run plus escalated retries).
    on_timeout:
        ``"partial"`` (default) returns the best partial result when the
        deadline expires; ``"raise"`` raises :class:`RouteTimeout`.
    on_infeasible:
        ``"partial"`` (default) returns the best partial result when every
        strategy failed with time to spare; ``"raise"`` raises
        :class:`RouteInfeasible`.
    enable_fallback:
        Try the classical channel routers after Mighty gives up (only
        possible when the caller supplies the originating channel spec).
    max_expansions_per_search:
        Per-connection search budget (A* node expansions) forced onto every
        attempt's configuration; None keeps each configuration's own value.
    """

    deadline_s: Optional[float] = None
    max_attempts: int = 3
    on_timeout: str = "partial"
    on_infeasible: str = "partial"
    enable_fallback: bool = True
    max_expansions_per_search: Optional[int] = None

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ValueError("deadline_s must be non-negative")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.on_timeout not in _OUTCOME_CHOICES:
            raise ValueError(f"on_timeout must be one of {_OUTCOME_CHOICES}")
        if self.on_infeasible not in _OUTCOME_CHOICES:
            raise ValueError(
                f"on_infeasible must be one of {_OUTCOME_CHOICES}"
            )
        if (
            self.max_expansions_per_search is not None
            and self.max_expansions_per_search < 1
        ):
            raise ValueError("max_expansions_per_search must be positive")


class RoutingEngine:
    """Run the Mighty cascade under supervision (see module docstring).

    Parameters
    ----------
    config:
        Supervision policy; defaults to :class:`EngineConfig`'s defaults.
    router_config:
        Base :class:`MightyConfig` for attempt 0; escalated copies are
        derived from it for the retries.
    clock:
        Monotonic time source shared by the deadline; injectable so tests
        can drive time deterministically.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        router_config: Optional[MightyConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or EngineConfig()
        self.router_config = router_config or MightyConfig()
        self._clock = clock

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def route(
        self,
        problem: RoutingProblem,
        channel_spec: Optional[ChannelSpec] = None,
        tracks: Optional[int] = None,
        pre_routed: Optional[dict] = None,
        shards: int = 1,
        shard_workers: Optional[int] = None,
    ) -> RouteResult:
        """Route ``problem`` through the cascade; never raises by default.

        ``channel_spec``/``tracks`` describe the channel the problem was
        lowered from, enabling the classical fallbacks; omit them for
        switchboxes and irregular regions (the fallback stage is skipped —
        the geometry does not permit it).  ``pre_routed`` maps net names to
        committed paths and is how a checkpointed partial result is resumed
        (see :func:`repro.core.serialize.load_checkpoint`).

        ``shards > 1`` tries the shard-and-stitch pipeline first (skipped
        when resuming from ``pre_routed`` — the checkpoint already fixes
        the copper layout).  A shard run that fails, crashes, or does not
        verify is telemetry, not an outcome: the engine falls through to
        the whole-region Mighty cascade, so every robustness guarantee of
        the unsharded engine still holds.

        Returns the best :class:`RouteResult` seen: ``status="complete"``
        on success, ``"partial"`` when something routed, ``"failed"`` when
        nothing did.  ``result.stats.attempt_log`` records every stage.
        """
        deadline = Deadline(self.config.deadline_s, clock=self._clock)
        attempt_log: List[dict] = []
        best: Optional[RouteResult] = None
        timed_out = False

        if shards > 1 and pre_routed is None:
            result, record = self._run_shard_attempt(
                problem, shards, shard_workers, deadline
            )
            attempt_log.append(record)
            if result is not None:
                timed_out = timed_out or result.stats.timed_out
                if self._better(result, best):
                    best = result
                if result.success and record["verified"]:
                    return self._finish(best, attempt_log, deadline)

        for attempt, config in enumerate(
            escalation_schedule(
                self.router_config, self.config.max_attempts
            )
        ):
            if attempt > 0 and deadline.expired():
                timed_out = True
                break
            result, record = self._supervised(
                "mighty",
                attempt,
                problem,
                config,
                deadline,
                lambda capped: MightyRouter(problem, capped).route(
                    pre_routed=pre_routed, deadline=deadline
                ),
            )
            attempt_log.append(record)
            if result is not None:
                timed_out = timed_out or result.stats.timed_out
                if self._better(result, best):
                    best = result
                if result.success and record["verified"]:
                    return self._finish(best, attempt_log, deadline)
            if deadline.expired():
                timed_out = True
                break

        if (
            self.config.enable_fallback
            and channel_spec is not None
            and not deadline.expired()
        ):
            fallback = self._run_fallbacks(
                channel_spec, tracks, attempt_log, deadline
            )
            if fallback is not None:
                return self._finish(fallback, attempt_log, deadline)

        return self._degrade(
            problem, best, attempt_log, deadline, timed_out
        )

    # ------------------------------------------------------------------
    # Cascade stages
    # ------------------------------------------------------------------
    def _run_shard_attempt(self, problem, shards, workers, deadline):
        """One supervised shard-and-stitch run.

        The attempt record also carries the resolved shard count (1 when
        the partitioner fell back) and the per-shard ``shard_log`` —
        including the kernel backend every shard worker actually ran.
        """
        from repro.core.shard import route_problem_sharded

        result, record = self._supervised(
            "shard",
            0,
            problem,
            self.router_config,
            deadline,
            lambda capped: route_problem_sharded(
                problem,
                capped,
                shards=shards,
                workers=workers,
                deadline=deadline,
            ),
        )
        record["shards"] = shards if result is None else result.stats.shards
        if result is not None:
            record["shard_log"] = result.stats.shard_log
        return result, record

    def _supervised(self, stage, attempt, problem, config, deadline, run):
        """Run ``run(config)`` under supervision and build its record.

        ``config`` first gets the engine's per-search expansion cap.  A
        crash is telemetry: the result is ``None`` and the record carries
        the error.  Otherwise the record carries the verification verdict
        that gates acceptance.
        """
        if self.config.max_expansions_per_search is not None:
            config = config.with_updates(
                max_expansions_per_search=(
                    self.config.max_expansions_per_search
                )
            )
        started = deadline.elapsed()
        record = {
            "stage": stage,
            "attempt": attempt,
            "ordering": config.ordering,
            "routed": 0,
            "connections": 0,
            "timed_out": False,
            "verified": False,
            "elapsed_s": 0.0,
            "error": "",
        }
        try:
            result = run(config)
        except Exception as exc:  # supervised: a crash is telemetry
            record["error"] = f"{type(exc).__name__}: {exc}"
            record["elapsed_s"] = round(deadline.elapsed() - started, 6)
            return None, record
        report = verify_result(problem, result)
        stats = result.stats
        record["routed"] = stats.routed_connections
        record["connections"] = stats.connections
        record["timed_out"] = stats.timed_out
        # Budget-limited searches are the escalation signal that separates
        # "proven unroutable" from "under-budgeted": later attempts scale
        # max_expansions up, and _context reports the distinction.
        record["exhausted_searches"] = stats.exhausted_searches
        record["kernel_backend"] = stats.kernel_backend
        record["verified"] = bool(report.ok)
        record["elapsed_s"] = round(deadline.elapsed() - started, 6)
        if not report.ok:
            record["error"] = report.summary()
        return result, record

    def _run_fallbacks(self, spec, tracks, attempt_log, deadline):
        """Classical channel routers, one shot each, best-effort."""
        from repro.channels.greedy import GreedyRouter
        from repro.channels.yacr_lite import YacrLiteRouter

        tracks = tracks if tracks else max(1, spec.density)
        for router in (GreedyRouter(), YacrLiteRouter()):
            if deadline.expired():
                return None
            started = deadline.elapsed()
            record = {
                "stage": f"fallback-{router.name}",
                "attempt": len(attempt_log),
                "ordering": "",
                "routed": 0,
                "connections": 0,
                "timed_out": False,
                "verified": False,
                "elapsed_s": 0.0,
                "error": "",
            }
            try:
                channel_result = router.route(spec, tracks)
            except Exception as exc:  # supervised: a crash is telemetry
                record["error"] = f"{type(exc).__name__}: {exc}"
                record["elapsed_s"] = round(
                    deadline.elapsed() - started, 6
                )
                attempt_log.append(record)
                continue
            record["elapsed_s"] = round(deadline.elapsed() - started, 6)
            record["verified"] = bool(channel_result.success)
            if not channel_result.success:
                record["error"] = channel_result.reason
                attempt_log.append(record)
                continue
            result = self._result_from_channel(channel_result)
            record["routed"] = result.stats.routed_connections
            record["connections"] = result.stats.connections
            attempt_log.append(record)
            return result
        return None

    # ------------------------------------------------------------------
    # Outcome assembly
    # ------------------------------------------------------------------
    def _finish(self, result, attempt_log, deadline):
        """Attach telemetry to a successful result."""
        result.stats.attempt_log = attempt_log
        result.stats.deadline_s = deadline.budget_s
        result.status = "complete"
        return result

    def _degrade(self, problem, best, attempt_log, deadline, timed_out):
        """Best partial outcome — or a structured error when opted in."""
        if best is None:
            best = self._empty_result(problem)
        best.stats.attempt_log = attempt_log
        best.stats.deadline_s = deadline.budget_s
        best.stats.timed_out = best.stats.timed_out or timed_out
        best.status = (
            "partial" if best.stats.routed_connections > 0 else "failed"
        )
        if timed_out and self.config.on_timeout == "raise":
            raise RouteTimeout(
                "routing exceeded its deadline",
                context=self._context(best, deadline),
            )
        if not timed_out and self.config.on_infeasible == "raise":
            raise RouteInfeasible(
                "routing failed on every strategy",
                context=self._context(best, deadline),
            )
        return best

    def _context(self, result, deadline):
        """Machine-readable outcome summary carried by raised errors."""
        exhausted = sum(
            rec.get("exhausted_searches", 0)
            for rec in result.stats.attempt_log
        )
        return {
            "deadline_s": deadline.budget_s,
            "elapsed_s": round(deadline.elapsed(), 6),
            "routed": result.stats.routed_connections,
            "connections": result.stats.connections,
            "open_nets": sorted(
                {c.net_name for c in result.failed}
            ),
            "attempts": len(result.stats.attempt_log),
            # Nonzero means at least one search stopped on its expansion
            # budget rather than proving no path: the failure may be an
            # under-budgeted run, not an infeasible problem.
            "exhausted_searches": exhausted,
            "budget_limited": exhausted > 0,
        }

    def _empty_result(self, problem):
        """A valid zero-progress result (every attempt crashed outright)."""
        connections = decompose_problem(problem)
        stats = RouteStats(
            connections=len(connections),
            failed_connections=len(connections),
        )
        return RouteResult(
            problem=problem,
            grid=problem.build_grid(),
            connections=connections,
            failed=list(connections),
            stats=stats,
            router="engine",
            status="failed",
        )

    def _result_from_channel(self, channel_result):
        """Lift a fallback :class:`ChannelResult` into a ``RouteResult``.

        The fallback may have extended the channel (greedy extension
        columns), so the returned result's ``problem`` is the channel
        router's own — internally consistent with its grid.
        """
        problem = channel_result.problem
        grid = channel_result.grid
        connections = decompose_problem(problem)
        for connection in connections:
            component = grid.connected_component(
                connection.net_id, tuple(connection.source_node)
            )
            connection.routed = connection.target_node in component
        routed = sum(1 for c in connections if c.routed)
        stats = RouteStats(
            connections=len(connections),
            routed_connections=routed,
            failed_connections=len(connections) - routed,
        )
        return RouteResult(
            problem=problem,
            grid=grid,
            connections=connections,
            failed=[c for c in connections if not c.routed],
            stats=stats,
            router=f"fallback-{channel_result.router}",
            status="complete" if channel_result.success else "partial",
        )

    @staticmethod
    def _better(candidate: RouteResult, incumbent: Optional[RouteResult]):
        """Completion-first comparison between attempt outcomes."""
        if incumbent is None:
            return True
        return (
            candidate.stats.routed_connections
            > incumbent.stats.routed_connections
        )
