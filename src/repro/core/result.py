"""Routing results, statistics and the event trace.

The event trace is first-class because experiment E4 (the convergence
figure) plots it: every hard route, weak modification, strong rip-up and
failure is appended as a :class:`RouteEvent`, so the router's behaviour over
time can be reconstructed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.decompose import Connection
from repro.grid.routing_grid import RoutingGrid
from repro.netlist.problem import RoutingProblem


@dataclass(frozen=True)
class RouteEvent:
    """One entry of the router's event trace."""

    step: int
    kind: str  # 'route' | 'weak' | 'strong' | 'reroute' | 'fail' | 'retry'
    # (also 'defer', 'restore', 'timeout')
    net: str
    detail: str = ""
    open_connections: int = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.step:>4}] {self.kind:<8} {self.net:<8} {self.detail}"


@dataclass
class RouteStats:
    """Aggregate counters accumulated during one routing run.

    The last three fields are the resilience telemetry added by the engine
    layer: ``timed_out`` records that the run was cut by its wall-clock
    deadline, ``deadline_s`` the budget it ran under, and ``attempt_log``
    one JSON-compatible record per supervised attempt (Mighty runs and
    fallback stages alike) when the run was driven by a
    :class:`~repro.engine.supervisor.RoutingEngine`.
    """

    connections: int = 0
    routed_connections: int = 0
    failed_connections: int = 0
    hard_routes: int = 0
    weak_modifications: int = 0
    weak_rejections: int = 0
    strong_modifications: int = 0
    ripped_connections: int = 0
    frozen_nets: int = 0
    iterations: int = 0
    searches: int = 0
    #: Nodes A* popped and relaxed, summed over every search.
    expansions: int = 0
    #: Nodes the backward searches from the targets settled before A*
    #: ran, summed over the hard and the conflict (soft) searches alike
    #: (:func:`repro.maze.astar.find_path_flat`).  The name is kept from
    #: the target-side flood those searches replaced.  Kept apart from
    #: ``expansions``, which counts A* work only.
    flood_visits: int = 0
    peak_journal_depth: int = 0
    #: Name of the search-kernel backend the run used (``pure`` /
    #: ``compiled``; see :mod:`repro.maze.kernels`).  All
    #: backends are bit-identical in counters and paths, so this is
    #: provenance for wall-clock numbers, not a behaviour knob.
    kernel_backend: str = ""
    elapsed_s: float = 0.0
    #: Per-phase wall split: where ``elapsed_s`` actually went.  Measured
    #: at the leaf operations so the four buckets are disjoint; whatever
    #: they do not cover (queue management, ordering, event trace) is the
    #: remainder against ``elapsed_s``.  ``phase_claims_s`` times grid
    #: commit/rip and the best-state copies.
    phase_search_s: float = 0.0
    phase_connectivity_s: float = 0.0
    phase_victims_s: float = 0.0
    phase_claims_s: float = 0.0
    timed_out: bool = False
    deadline_s: Optional[float] = None
    #: Set by the service layer when this result was served from the
    #: canonical-instance cache instead of being routed; the counters
    #: above then describe the cached run, not new work.
    cache_hit: bool = False
    #: Number of spatial shards the run was split into (0 when the
    #: shard-and-stitch pipeline did not route it — also when the
    #: partitioner declined, which the engine's shard attempt record notes
    #: as ``shards: 1``).  When > 1 the counters above are pipeline
    #: totals — shard work plus stitch work — and ``shard_log`` holds the
    #: per-shard split.
    shards: int = 0
    attempt_log: List[Dict] = field(default_factory=list)
    #: One JSON-compatible record per shard (plus a final ``stage:
    #: "stitch"`` record) when the run went through
    #: :func:`repro.core.shard.route_problem_sharded`: core/halo slabs,
    #: per-shard wall and search counters, and the kernel backend each
    #: shard worker resolved.
    shard_log: List[Dict] = field(default_factory=list)

    #: The scalar fields serialized by :meth:`as_dict`.  An explicit
    #: whitelist — NOT ``self.__dict__`` — so telemetry/benchmark JSON has
    #: a stable, flat schema; non-scalar fields (``attempt_log``) travel
    #: separately when a consumer wants them.
    SCALAR_FIELDS = (
        "connections",
        "routed_connections",
        "failed_connections",
        "hard_routes",
        "weak_modifications",
        "weak_rejections",
        "strong_modifications",
        "ripped_connections",
        "frozen_nets",
        "iterations",
        "searches",
        "expansions",
        "flood_visits",
        "peak_journal_depth",
        "kernel_backend",
        "elapsed_s",
        "phase_search_s",
        "phase_connectivity_s",
        "phase_victims_s",
        "phase_claims_s",
        "timed_out",
        "deadline_s",
        "cache_hit",
        "shards",
    )

    def as_dict(self) -> Dict[str, float]:
        """Whitelisted scalar view for report tables and JSON telemetry."""
        return {name: getattr(self, name) for name in self.SCALAR_FIELDS}


@dataclass
class RouteResult:
    """Everything a routing run produced.

    ``grid`` holds the final copper; feed it to
    :func:`repro.analysis.verify.verify_routing` for ground-truth checking
    and to :func:`repro.analysis.metrics.layout_metrics` for wirelength/via
    numbers.

    ``status`` is the graceful-degradation verdict: ``"complete"`` (every
    connection routed), ``"partial"`` (some copper committed — e.g. the
    run hit its deadline and returned its best snapshot), or ``"failed"``
    (nothing routed).  It defaults to ``"auto"``, which resolves from the
    connection states at construction time.
    """

    problem: RoutingProblem
    grid: RoutingGrid
    connections: List[Connection] = field(default_factory=list)
    stats: RouteStats = field(default_factory=RouteStats)
    events: List[RouteEvent] = field(default_factory=list)
    router: str = "mighty"
    status: str = "auto"

    def __post_init__(self) -> None:
        if self.status == "auto":
            if self.success:
                self.status = "complete"
            elif any(c.routed for c in self.connections):
                self.status = "partial"
            else:
                self.status = "failed"

    @property
    def failed(self) -> List[Connection]:
        """The connections left unrouted, in connection order."""
        return [c for c in self.connections if not c.routed]

    @property
    def success(self) -> bool:
        """True when every connection is electrically satisfied."""
        return all(c.routed for c in self.connections)

    @property
    def completion_rate(self) -> float:
        """Fraction of connections routed (1.0 on success)."""
        if not self.connections:
            return 1.0
        routed = sum(1 for c in self.connections if c.routed)
        return routed / len(self.connections)

    def connections_of(self, net_name: str) -> List[Connection]:
        """This run's connections belonging to ``net_name``."""
        return [c for c in self.connections if c.net_name == net_name]

    def event_counts(self) -> Dict[str, int]:
        """Histogram of event kinds (handy in tests and reports)."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def summary(self) -> str:
        """One-paragraph human-readable outcome."""
        state = "COMPLETE" if self.success else (
            f"INCOMPLETE ({len(self.failed)} failed)"
        )
        if self.stats.timed_out:
            state += " [deadline hit]"
        return (
            f"{self.router} on {self.problem.name}: {state}; "
            f"{self.stats.routed_connections}/{self.stats.connections} "
            f"connections, {self.stats.weak_modifications} weak, "
            f"{self.stats.strong_modifications} strong modifications, "
            f"{self.stats.iterations} iterations, "
            f"{self.stats.elapsed_s:.3f}s"
        )
