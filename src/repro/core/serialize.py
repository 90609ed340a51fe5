"""JSON export of routing results.

A :class:`~repro.core.result.RouteResult` carries live grid objects; this
module flattens everything downstream tooling needs — per-connection paths,
statistics, the event trace, per-net copper — into JSON-compatible
primitives, and can reload the wiring onto a fresh grid (e.g. to render or
verify a result produced elsewhere).

The same format doubles as the engine's *checkpoint*: a partial result
saved with :func:`save_checkpoint` can be reloaded with
:func:`load_checkpoint`, which returns the problem plus the routed paths in
the ``pre_routed`` shape that :meth:`repro.core.router.MightyRouter.route`
and :meth:`repro.engine.supervisor.RoutingEngine.route` accept — so a run
cut down by its deadline can be resumed instead of started over.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.result import RouteResult
from repro.grid.path import GridPath
from repro.grid.routing_grid import RoutingGrid
from repro.netlist.io import problem_from_dict, problem_to_dict
from repro.netlist.problem import RoutingProblem

PathLike = Union[str, Path]


def path_to_list(path: Optional[GridPath]) -> Optional[List[List[int]]]:
    """A path as ``[[x, y, layer], ...]`` (None for trivial paths)."""
    if path is None:
        return None
    return [[node.x, node.y, int(node.layer)] for node in path]


def path_from_list(data: Optional[List[List[int]]]) -> Optional[GridPath]:
    """Inverse of :func:`path_to_list`."""
    if data is None:
        return None
    return GridPath([(x, y, layer) for x, y, layer in data])


def result_to_dict(result: RouteResult) -> dict:
    """Flatten a routing result to JSON-compatible primitives.

    ``stats`` is the flat scalar whitelist of
    :meth:`~repro.core.result.RouteStats.as_dict`; the engine's
    per-attempt telemetry travels separately under ``attempt_log`` so a
    supervised run's cascade history survives the round trip.
    """
    return {
        "router": result.router,
        "success": result.success,
        "status": result.status,
        "problem": problem_to_dict(result.problem),
        "stats": result.stats.as_dict(),
        "attempt_log": list(result.stats.attempt_log),
        "connections": [
            {
                "net": connection.net_name,
                "source": [connection.source_pin.x, connection.source_pin.y,
                           int(connection.source_pin.layer)],
                "target": [connection.target_pin.x, connection.target_pin.y,
                           int(connection.target_pin.layer)],
                "routed": connection.routed,
                "rips": connection.rips,
                "path": path_to_list(connection.path),
            }
            for connection in result.connections
        ],
        "events": [
            {
                "step": event.step,
                "kind": event.kind,
                "net": event.net,
                "detail": event.detail,
                "open": event.open_connections,
            }
            for event in result.events
        ],
    }


def save_result(path: PathLike, result: RouteResult) -> None:
    """Write a result dump to disk."""
    Path(path).write_text(json.dumps(result_to_dict(result), indent=2))


def rebuild_grid(payload: dict) -> RoutingGrid:
    """Re-commit a dumped result's wiring onto a fresh grid.

    Returns the reconstructed grid; combine with the payload's problem and
    :func:`repro.analysis.verify.verify_routing` to re-check a foreign dump.
    """
    problem = problem_from_dict(payload["problem"])
    grid = problem.build_grid()
    ids = problem.net_ids()
    for entry in payload["connections"]:
        path = path_from_list(entry["path"])
        if path is not None:
            grid.commit_path(ids[entry["net"]], path)
    return grid


def load_result_grid(path: PathLike) -> tuple:
    """Read a dump and return ``(problem, grid)`` ready for verification."""
    payload = json.loads(Path(path).read_text())
    problem: RoutingProblem = problem_from_dict(payload["problem"])
    return problem, rebuild_grid(payload)


# ----------------------------------------------------------------------
# Engine checkpoints
# ----------------------------------------------------------------------
def routed_paths(payload: dict) -> Dict[str, List[GridPath]]:
    """Per-net committed paths of a dump, in ``pre_routed`` shape.

    Only connections that were both routed and carry a real path
    contribute (redundant connections routed through sibling copper have
    no path of their own and need none on resume).
    """
    paths: Dict[str, List[GridPath]] = {}
    for entry in payload["connections"]:
        if entry.get("routed") and entry.get("path"):
            paths.setdefault(entry["net"], []).append(
                path_from_list(entry["path"])
            )
    return paths


def save_checkpoint(path: PathLike, result: RouteResult) -> None:
    """Persist a (possibly partial) result as a resumable checkpoint."""
    save_result(path, result)


def load_checkpoint(
    path: PathLike,
) -> Tuple[RoutingProblem, Dict[str, List[GridPath]]]:
    """Read a checkpoint back as ``(problem, pre_routed)``.

    Feed both to a router or engine to resume::

        problem, pre_routed = load_checkpoint("partial.json")
        result = RoutingEngine().route(problem, pre_routed=pre_routed)
    """
    payload = json.loads(Path(path).read_text())
    return problem_from_dict(payload["problem"]), routed_paths(payload)
