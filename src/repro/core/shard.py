"""Shard-and-stitch: intra-problem parallel routing of one large region.

The pipeline has four deterministic stages:

1. **Partition** — :func:`repro.core.decompose.partition_problem` slices the
   problem into halo-padded slabs along congestion-guided cut lines; nets
   whose bounding box fits no slab become *cross nets*.
2. **Shard routing** — every busy shard is routed as a standalone
   sub-problem (same absolute coordinates, foreign pins blocked), either
   in-process or on a process pool.  Results are consumed in shard-index
   order regardless of completion order, so ``workers=N`` is bit-identical
   to ``workers=1``.
3. **Merge** — shard paths are transplanted onto one fresh parent grid,
   one grid-journal transaction per net; a net whose copper conflicts in a
   halo overlap band is dropped whole (never half-committed), so no net's
   copper is left as a fragment.
4. **Stitch** — a single :class:`~repro.core.router.MightyRouter` run over
   the full fabric with the merged copper as ``pre_routed``.  Connections
   already satisfied by shard copper short-circuit; cross nets, dropped
   nets and shard failures are routed by the full three-tier machinery,
   which may rip shard copper like anything else — weak/strong
   modification *is* the boundary repairer.  A boundary-band
   improvement pass (:func:`~repro.core.improve.improve_routing` with
   ``only=``) then removes the detours the cuts forced.

The stitched result is an ordinary :class:`~repro.core.result.RouteResult`
whose stats carry pipeline totals plus a per-shard ``shard_log``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.config import MightyConfig
from repro.core.decompose import (
    Connection,
    ShardPlan,
    partition_problem,
    shard_subproblem,
)
from repro.core.improve import improve_routing
from repro.core.result import RouteResult
from repro.core.router import MightyRouter, route_problem
from repro.grid.path import GridPath
from repro.grid.routing_grid import GridError
from repro.netlist.problem import RoutingProblem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> core)
    from repro.engine.deadline import Deadline

#: Shard counters summed into the stitched result's stats, so the
#: pipeline total is comparable with a single-core run of the same
#: problem.  ``connections``/``routed_connections`` are deliberately
#: absent: those describe the stitch run itself.
_SUMMED_FIELDS = (
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
    "phase_search_s",
    "phase_connectivity_s",
    "phase_victims_s",
    "phase_claims_s",
)


def _route_shard_worker(
    sub_problem: RoutingProblem,
    config: MightyConfig,
    budget_s: Optional[float],
) -> Dict:
    """Route one shard in isolation (the process-pool work unit).

    Returns a picklable dict: committed paths per net plus the scalar
    stats, whose ``kernel_backend`` records the backend the worker ran.
    """
    deadline = None
    if budget_s is not None:
        from repro.engine.deadline import Deadline  # local: avoids cycle

        deadline = Deadline(budget_s)
    started = time.perf_counter()
    result = route_problem(sub_problem, config, deadline=deadline)
    paths: Dict[str, List[GridPath]] = {}
    for connection in result.connections:
        if connection.routed and connection.path is not None:
            paths.setdefault(connection.net_name, []).append(connection.path)
    return {
        "name": sub_problem.name,
        "paths": paths,
        "stats": result.stats.as_dict(),
        "success": result.success,
        "failed_nets": sorted({c.net_name for c in result.failed}),
        "wall_s": time.perf_counter() - started,
    }


def merge_shard_paths(
    problem: RoutingProblem,
    candidates: Sequence[Tuple[str, List[GridPath]]],
) -> Tuple[Dict[str, List[GridPath]], List[str]]:
    """Transplant shard copper onto one fresh parent grid, net by net.

    ``candidates`` is an ordered ``(net_name, paths)`` sequence (shard
    order, then each shard's net order).  Each net's paths are committed
    inside one grid-journal transaction: any conflict — possible only in a
    halo band both neighbours may route in — rolls the whole net back, so
    the merged grid never holds a fragment of a net.  Returns the accepted
    ``pre_routed`` mapping and the names of dropped nets (re-routed from
    scratch by the stitch pass).
    """
    grid = problem.build_grid()
    ids = problem.net_ids()
    pre_routed: Dict[str, List[GridPath]] = {}
    dropped: List[str] = []
    for net_name, paths in candidates:
        if not paths:
            continue
        net_id = ids[net_name]
        grid.begin_txn()
        try:
            for path in paths:
                grid.commit_path(net_id, path)
        except GridError:
            grid.rollback_txn()
            dropped.append(net_name)
        else:
            grid.commit_txn()
            pre_routed[net_name] = paths
    return pre_routed, dropped


def _boundary_scope(
    result: RouteResult, plan: ShardPlan
) -> List[Connection]:
    """Connections whose copper enters a cut band (the polish scope)."""
    band = plan.halo_width
    near = {
        coord
        for cut in plan.cuts
        for coord in range(cut - band, cut + band + 1)
    }
    # A flat id is ``(layer * height + y) * width + x``.
    width, height = result.problem.width, result.problem.height
    axis_is_x = plan.axis == "x"
    scope: List[Connection] = []
    for connection in result.connections:
        path = connection.path
        if path is None:
            continue
        ids = path.ids_on(width, height)
        if axis_is_x:
            coords = (index % width for index in ids)
        else:
            coords = (index // width % height for index in ids)
        if not near.isdisjoint(coords):
            scope.append(connection)
    return scope


def route_problem_sharded(
    problem: RoutingProblem,
    config: Optional[MightyConfig] = None,
    shards: int = 2,
    workers: Optional[int] = None,
    deadline: Optional["Deadline"] = None,
) -> Optional[RouteResult]:
    """Route ``problem`` via the shard-and-stitch pipeline.

    Returns None, having routed nothing, when ``shards <= 1`` or the
    partitioner judges the instance unshardable — too small, too tangled,
    or boundary-dominated; the caller routes the whole region then (as
    :class:`~repro.engine.RoutingEngine` does).  The result for a fixed
    ``shards`` value is deterministic and independent of ``workers``.

    ``workers`` defaults to one pool process per busy shard, capped at the
    CPU count; ``workers=1`` routes shards in-process with no pool at all.
    With a ``deadline``, every shard receives the budget remaining at
    fan-out (they run concurrently), and the stitch pass runs under the
    original deadline object.
    """
    pipeline_started = time.perf_counter()
    base = config or MightyConfig()
    plan = partition_problem(problem, shards) if shards > 1 else None
    if plan is None:
        return None
    subs = []
    for shard in plan.busy_shards:
        sub_problem = shard_subproblem(problem, plan, shard)
        if sub_problem is not None:
            subs.append((shard, sub_problem))
    if len(subs) < 2:
        return None

    budget_s = deadline.remaining() if deadline is not None else None
    if workers is None:
        workers = min(len(subs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_route_shard_worker, sub_problem, base, budget_s)
                for _, sub_problem in subs
            ]
            # Consume in submission (= shard-index) order, whatever the
            # completion order: the merge below must not depend on timing.
            outputs = [future.result() for future in futures]
    else:
        outputs = [
            _route_shard_worker(sub_problem, base, budget_s)
            for _, sub_problem in subs
        ]

    candidates: List[Tuple[str, List[GridPath]]] = []
    for (shard, _), out in zip(subs, outputs):
        for net_name in shard.net_names:
            paths = out["paths"].get(net_name)
            if paths:
                candidates.append((net_name, paths))
    pre_routed, dropped = merge_shard_paths(problem, candidates)

    stitch_started = time.perf_counter()
    router = MightyRouter(problem, base)
    result = router.route(pre_routed=pre_routed, deadline=deadline)
    stitch_wall = time.perf_counter() - stitch_started

    polish_record = None
    if result.success:
        scope = _boundary_scope(result, plan)
        if scope:
            polish_started = time.perf_counter()
            improvement = improve_routing(
                result,
                cost=base.cost,
                passes=1,
                only=scope,
            )
            polish_record = {
                "stage": "polish",
                "connections": len(scope),
                "rerouted": improvement.rerouted,
                "removed_redundant": improvement.removed_redundant,
                "cost_saved": improvement.cost_saved,
                "wall_s": round(time.perf_counter() - polish_started, 6),
            }

    stats = result.stats
    shard_log: List[Dict] = []
    for (shard, sub_problem), out in zip(subs, outputs):
        shard_stats = out["stats"]
        shard_log.append(
            {
                "shard": shard.index,
                "axis": shard.axis,
                "core": list(shard.core),
                "halo": list(shard.halo),
                "nets": len(shard.net_names),
                "connections": shard_stats["connections"],
                "routed": shard_stats["routed_connections"],
                "success": out["success"],
                "failed_nets": out["failed_nets"],
                "wall_s": round(out["wall_s"], 6),
                "searches": shard_stats["searches"],
                "expansions": shard_stats["expansions"],
                "iterations": shard_stats["iterations"],
                "kernel_backend": shard_stats["kernel_backend"],
            }
        )
        for name in _SUMMED_FIELDS:
            setattr(stats, name, getattr(stats, name) + shard_stats[name])
        stats.peak_journal_depth = max(
            stats.peak_journal_depth, shard_stats["peak_journal_depth"]
        )
        stats.timed_out = stats.timed_out or bool(shard_stats["timed_out"])
    shard_log.append(
        {
            "stage": "stitch",
            "cross_nets": len(plan.cross_nets),
            "dropped_nets": len(dropped),
            "pre_routed_nets": len(pre_routed),
            "wall_s": round(stitch_wall, 6),
            "kernel_backend": stats.kernel_backend,
        }
    )
    if polish_record is not None:
        shard_log.append(polish_record)
    stats.shards = len(plan.shards)
    stats.shard_log = shard_log
    stats.elapsed_s = time.perf_counter() - pipeline_started
    return result
