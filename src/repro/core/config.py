"""Router configuration.

Every knob the ablation experiments (E5, E6) or the engine's escalation
vary lives here, so one behaviour can be toggled at a time without touching
router code.  Values nothing varies are constants of :mod:`repro.core.router`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.maze.cost import CostModel

ORDERINGS = ("shortest", "longest", "input", "most_pins", "leftmost")


@dataclass(frozen=True)
class MightyConfig:
    """Tunable parameters of :class:`~repro.core.router.MightyRouter`.

    Attributes
    ----------
    cost:
        Edge cost model shared by all searches.
    enable_weak:
        Attempt weak modification (displace-and-immediately-reroute) for
        blocked connections.
    enable_strong:
        Attempt strong modification (rip up and re-queue victims) when weak
        modification fails.
    max_rips_per_net:
        Rip budget per *connection* of a net; a net whose accumulated rips
        reach ``max_rips_per_net * its connection count`` becomes frozen
        (never a victim again).  This bound is the termination guarantee.
    strong_victim_limit:
        Upper bound on victims a single strong modification may rip.
    max_chain_depth:
        A strong modification performed while rerouting a ripped victim
        deepens the rip *chain*; chains longer than this are cut.  Bounding
        the chain stops one blocked connection from cascading destruction
        across the whole region.
    ordering:
        Connection processing order; ``"shortest"`` (the paper's choice),
        ``"longest"``, ``"most_pins"`` or ``"input"``.
    retry_passes:
        Extra passes over connections that failed outright (no soft path);
        later rip-ups may have unblocked them.

    The router always keeps the most-complete state it has seen and
    restores it at the end if the final state is worse, so it never
    finishes with fewer routed connections than any intermediate point
    (in particular, never worse than the plain sequential maze pass).
    A search has no expansion cap: it ends at a path or at a proof that
    none exists (see :func:`~repro.maze.astar.find_path_flat`).

    The search-kernel backend is not a router knob: every search uses the
    process default (``REPRO_KERNEL``, see :mod:`repro.maze.kernels`).
    """

    cost: CostModel = field(default_factory=CostModel)
    enable_weak: bool = True
    enable_strong: bool = True
    max_rips_per_net: int = 32
    strong_victim_limit: int = 12
    max_chain_depth: int = 12
    ordering: str = "shortest"
    retry_passes: int = 4

    def __post_init__(self) -> None:
        if self.ordering not in ORDERINGS:
            raise ValueError(
                f"unknown ordering {self.ordering!r}; pick one of {ORDERINGS}"
            )
        if self.max_rips_per_net < 0:
            raise ValueError("max_rips_per_net must be non-negative")
        if self.strong_victim_limit < 0:
            raise ValueError("strong_victim_limit must be non-negative")
        if self.retry_passes < 0:
            raise ValueError("retry_passes must be non-negative")
        if self.max_chain_depth < 0:
            raise ValueError("max_chain_depth must be non-negative")

    def with_updates(self, **changes) -> "MightyConfig":
        """Functional update helper (``config.with_updates(enable_weak=False)``)."""
        return replace(self, **changes)

    @staticmethod
    def no_modification() -> "MightyConfig":
        """Plain sequential maze routing — the pre-Mighty baseline."""
        return MightyConfig(enable_weak=False, enable_strong=False)

    @staticmethod
    def weak_only() -> "MightyConfig":
        """Weak modification only (ablation arm of experiment E5)."""
        return MightyConfig(enable_weak=True, enable_strong=False)

    @staticmethod
    def strong_only() -> "MightyConfig":
        """Strong modification only (ablation arm of experiment E5)."""
        return MightyConfig(enable_weak=False, enable_strong=True)
