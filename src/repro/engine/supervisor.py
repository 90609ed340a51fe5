"""The resilient routing engine: deadlines, retries, fallback cascade.

:class:`RoutingEngine` supervises :class:`~repro.core.router.MightyRouter`
runs the way a production service must: a pathological problem may *fail*,
but it may never hang a worker or crash it with a raw exception.  The
engine guarantees that :meth:`RoutingEngine.route` always returns a
:class:`~repro.core.result.RouteResult` — complete when possible,
``status="partial"`` otherwise — with per-attempt telemetry in
``result.stats.attempt_log`` and never lets an exception escape.

The cascade, in order:

1. **shard-and-stitch**, only when the caller asks for ``shards > 1``;
   when the partitioner declines, the stages below route the whole
   region, once;
2. **Mighty probes** — the caller's configuration, then up to
   ``max_attempts - 1`` escalated ones with perturbed ordering / rip
   budgets (:mod:`repro.engine.policy`), each under the wall-clock
   deadline.  With more than one attempt, each probe pauses once it has
   gone ``3 × connections`` iterations without routing more connections
   than ever before; the first verified complete probe is returned;
3. **resumed Mighty** — if no probe completed, each paused attempt is
   resumed in schedule order and runs to its end; the first verified
   complete one is returned.  A paused attempt is resumed, not rerun, so
   no attempt does more work than it would uninterrupted;
4. **classical channel fallbacks** — when the problem came from a
   :class:`~repro.netlist.channel.ChannelSpec` (the only geometry the
   baselines understand), the greedy column-sweep router and YACR-lite each
   get one shot.

Otherwise the best partial result is returned: most connections routed,
the earliest attempt on ties.  How the run ended is read from the result:
``status`` and ``stats.timed_out``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.analysis.verify import verify_result
from repro.core.config import MightyConfig
from repro.core.decompose import decompose_problem
from repro.core.result import RouteResult, RouteStats
from repro.core.router import MightyRouter
from repro.engine.deadline import Deadline
from repro.engine.policy import escalation_schedule
from repro.grid.path import flat_id
from repro.netlist.channel import ChannelSpec
from repro.netlist.problem import RoutingProblem

#: A probe pauses once this many iterations per connection have passed
#: since its routed count last reached a new best.
_STALL_FACTOR = 3


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
        With more than one, every attempt is first probed under the stall
        limit (see the module docstring).

    Passing the originating channel spec to :meth:`RoutingEngine.route`
    is what enables the classical channel fallbacks.
    """

    deadline_s: Optional[float] = None
    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ValueError("deadline_s must be non-negative")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")


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
        """Route ``problem`` through the cascade; never raises.

        ``channel_spec``/``tracks`` describe the channel the problem was
        lowered from, enabling the classical fallbacks; omit them for
        switchboxes and irregular regions (the fallback stage is skipped —
        the geometry does not permit it).  ``pre_routed`` maps net names to
        committed paths and is how a checkpointed partial result is resumed
        (see :func:`repro.core.serialize.load_checkpoint`).

        ``shards > 1`` tries the shard-and-stitch pipeline first (skipped
        when resuming from ``pre_routed`` — the checkpoint already fixes
        the copper layout).  A shard run that the partitioner declines,
        that fails, crashes, or does not verify is telemetry, not an
        outcome: the engine falls through to the whole-region Mighty
        cascade, so every robustness guarantee of the unsharded engine
        still holds.

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

        complete, results, mighty_timed_out = self._run_mighty(
            problem, pre_routed, deadline, attempt_log
        )
        if complete is not None:
            return self._finish(complete, attempt_log, deadline)
        timed_out = timed_out or mighty_timed_out
        for result in results:
            if self._better(result, best):
                best = result

        if channel_spec is not None and not deadline.expired():
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

        The attempt record also carries the shard count and the per-shard
        ``shard_log`` — including the kernel backend every shard worker
        actually ran.  When the partitioner declines, nothing is routed:
        the record says ``shards: 1`` and ``stop: "declined"``.
        """
        from repro.core.shard import route_problem_sharded

        record = _new_record("shard", 0, self.router_config.ordering)
        result = self._slice(
            record,
            deadline,
            lambda: route_problem_sharded(
                problem,
                self.router_config,
                shards=shards,
                workers=workers,
                deadline=deadline,
            ),
        )
        if result is not None:
            record["shards"] = result.stats.shards
            record["shard_log"] = result.stats.shard_log
        elif record["stop"] == "error":
            record["shards"] = shards
        else:
            record["shards"] = 1
            record["stop"] = "declined"
        return result, record

    def _run_mighty(self, problem, pre_routed, deadline, attempt_log):
        """The Mighty attempts: probe each configuration, then resume.

        Every configuration of the escalation schedule is probed in order
        under a stall limit of ``_STALL_FACTOR`` iterations per connection
        (none when there is only one).  A probe that returns a result or
        crashes is final; one that pauses keeps its router.  If no probe
        completes, the paused routers are resumed in schedule order with
        no limit.  The first verified complete result ends the stage.

        Returns ``(complete, results, timed_out)``: that complete result
        (or None), and otherwise every attempt's final result in attempt
        order.  The records go to ``attempt_log`` in attempt order, the
        returned attempt's last.
        """
        stall_limit = None
        if self.config.max_attempts > 1:
            # The router's connections: the problem's, plus each
            # pre-routed path.
            connections = problem.connection_count + sum(
                len(paths) for paths in (pre_routed or {}).values()
            )
            stall_limit = _STALL_FACTOR * connections
        records: List[dict] = []
        finals: Dict[int, RouteResult] = {}
        paused: Dict[int, MightyRouter] = {}
        timed_out = False

        def settle(attempt: int, result: Optional[RouteResult]) -> bool:
            """Keep a final ``result``; True when it is the one to return."""
            nonlocal timed_out
            if result is None:
                return False
            timed_out = timed_out or result.stats.timed_out
            finals[attempt] = result
            return result.success and records[attempt]["verified"]

        complete = None
        for attempt, config in enumerate(
            escalation_schedule(self.router_config, self.config.max_attempts)
        ):
            if attempt > 0 and deadline.expired():
                timed_out = True
                break
            records.append(_new_record("mighty", attempt, config.ordering))

            def probe():
                router = MightyRouter(problem, config)
                result = router.route(
                    pre_routed=pre_routed,
                    deadline=deadline,
                    stall_limit=stall_limit,
                )
                # Only a paused router is kept: a finished one (its grid,
                # its best-state copy) is freed before verification.
                if result is None:
                    paused[attempt] = router
                return result

            result = self._slice(records[attempt], deadline, probe)
            if attempt in paused:
                stats = paused[attempt].stats
                records[attempt].update(
                    stop="stalled",
                    stalled_at=stats.iterations,
                    routed=stats.routed_connections,
                    connections=stats.connections,
                    iterations=stats.iterations,
                    expansions=stats.expansions,
                )
            if settle(attempt, result):
                complete = attempt
                break
            if deadline.expired():
                timed_out = True
                break
        if complete is None:
            # No probe completed.  Resume the paused attempts; once the
            # deadline has expired, a resume only restores the router's
            # best state, which makes it a partial candidate.
            for attempt in list(paused):
                result = self._slice(
                    records[attempt],
                    deadline,
                    lambda: paused.pop(attempt).route(deadline=deadline),
                )
                if settle(attempt, result):
                    complete = attempt
                    break
                if deadline.expired():
                    timed_out = True

        if complete is not None:
            attempt_log.extend(
                records[:complete] + records[complete + 1:]
            )
            attempt_log.append(records[complete])
            return finals[complete], [], timed_out
        attempt_log.extend(records)
        return None, [finals[a] for a in sorted(finals)], timed_out

    def _slice(self, record, deadline, run):
        """Run one slice of an attempt under supervision, into ``record``.

        ``run()`` returns a result, or None when a Mighty probe paused or
        the partitioner declined.  A crash is telemetry: the result is
        ``None`` and the record carries the error.  A returned result is
        verified against the problem it solved, and the verdict gates
        acceptance.  ``elapsed_s`` adds up the attempt's slices.
        """
        started = deadline.elapsed()
        try:
            result = run()
        except Exception as exc:  # supervised: a crash is telemetry
            record["error"] = f"{type(exc).__name__}: {exc}"
            record["stop"] = "error"
            result = None
        if result is not None:
            report = verify_result(result.problem, result)
            stats = result.stats
            record["routed"] = stats.routed_connections
            record["connections"] = stats.connections
            record["timed_out"] = stats.timed_out
            record["kernel_backend"] = stats.kernel_backend
            record["iterations"] = stats.iterations
            record["expansions"] = stats.expansions
            record["verified"] = bool(report.ok)
            if result.success:
                record["stop"] = "complete"
            elif stats.timed_out:
                record["stop"] = "timeout"
            else:
                record["stop"] = "incomplete"
            if not report.ok:
                record["error"] = report.summary()
        record["elapsed_s"] = round(
            record["elapsed_s"] + deadline.elapsed() - started, 6
        )
        return result

    def _run_fallbacks(self, spec, tracks, attempt_log, deadline):
        """Classical channel routers, one shot each, best-effort: like any
        attempt, only a verified complete layout is returned.  The record's
        ``error`` is the router's failure reason or the verifier's."""
        from repro.channels.greedy import GreedyRouter
        from repro.channels.yacr_lite import YacrLiteRouter

        tracks = tracks if tracks else max(1, spec.density)
        for router in (GreedyRouter(), YacrLiteRouter()):
            if deadline.expired():
                return None
            record = _new_record(
                f"fallback-{router.name}", len(attempt_log), ""
            )
            attempt_log.append(record)

            def run():
                channel_result = router.route(spec, tracks)
                record["error"] = channel_result.reason
                return self._result_from_channel(channel_result)

            result = self._slice(record, deadline, run)
            if result is not None and result.success and record["verified"]:
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
        """The best partial outcome, labelled ``partial`` or ``failed``."""
        if best is None:
            best = self._empty_result(problem)
        best.stats.attempt_log = attempt_log
        best.stats.deadline_s = deadline.budget_s
        best.stats.timed_out = best.stats.timed_out or timed_out
        best.status = (
            "partial" if best.stats.routed_connections > 0 else "failed"
        )
        return best

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
            stats=stats,
            router="engine",
            status="failed",
        )

    def _result_from_channel(self, channel_result):
        """Lift a fallback :class:`ChannelResult` into a ``RouteResult``.

        The fallback may have extended the channel (greedy extension
        columns), so the returned result's ``problem`` is the channel
        router's own — internally consistent with its grid (an empty one
        when it built none).  A connection is routed where the grid joins
        its pins."""
        problem, grid = channel_result.problem, channel_result.grid
        if grid is None:
            problem = channel_result.spec.to_problem(channel_result.tracks)
            grid = problem.build_grid()
        width, height = grid.width, grid.height
        connections = decompose_problem(problem)
        for connection in connections:
            connection.routed = grid.same_component_ids(
                connection.net_id,
                flat_id(connection.source_node, width, height),
                flat_id(connection.target_node, width, height),
            )
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
            stats=stats,
            router=f"fallback-{channel_result.router}",
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


def _new_record(stage: str, attempt: int, ordering: str) -> dict:
    """An attempt record before its stage ran (see ``attempt_log``)."""
    return {
        "stage": stage,
        "attempt": attempt,
        "ordering": ordering,
        "routed": 0,
        "connections": 0,
        "timed_out": False,
        "verified": False,
        "elapsed_s": 0.0,
        "error": "",
        "stop": "",
        "stalled_at": None,
        "iterations": 0,
        "expansions": 0,
    }
