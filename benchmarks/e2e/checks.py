"""Correctness and determinism checks, run after the timed phase.

Every request gets a fingerprint ``(status, routed, wirelength,
expansions)``; ``outputs_sha256`` digests the fingerprints in request
order.  A request fails when it raised, when its routing does not
verify, or when it differs from the first request for the same input.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from inputs import RoutePlan, Submission
from loads import Phase

Fingerprint = Tuple[str, int, int, int]


@dataclass
class Checked:
    fingerprints: List[Optional[Fingerprint]]
    failures: Dict[int, str]
    #: Router stats of the first request for each distinct input.
    distinct_stats: List[dict] = field(default_factory=list)
    routed: int = 0
    connections: int = 0
    #: Wire cells summed over distinct inputs.
    wirelength: int = 0

    @property
    def outputs_sha256(self) -> str:
        encoded = json.dumps(self.fingerprints, separators=(",", ":"))
        return hashlib.sha256(encoded.encode()).hexdigest()


def check_route(plan: RoutePlan, phase: Phase) -> Checked:
    """Verify every result with ``verify_result``; repeats must match."""
    from repro import layout_metrics, verify_result

    checked = Checked([], dict(phase.errors))
    first: Dict[int, Fingerprint] = {}
    for rid, (index, result) in enumerate(zip(plan.order, phase.outputs)):
        if result is None:
            checked.fingerprints.append(None)
            continue
        instance = plan.instances[index]
        problem = instance.problem
        if result.router.startswith("fallback-"):
            problem = result.problem  # a channel router may widen the channel
        report = verify_result(problem, result)
        stats = result.stats
        print_ = (result.status, stats.routed_connections,
                  layout_metrics(problem, result.grid).wire_cells,
                  stats.expansions)
        checked.fingerprints.append(print_)
        checked.routed += stats.routed_connections
        checked.connections += stats.connections
        if index not in first:
            first[index] = print_
            checked.distinct_stats.append(stats.as_dict())
            checked.wirelength += print_[2]
        if not report.ok:
            checked.failures[rid] = f"{instance.name}: {report.summary()}"
        elif print_ != first[index]:
            checked.failures[rid] = (
                f"{instance.name}: differs from its first route: {print_}")
    return checked


def check_service(rounds: Sequence[Sequence[Submission]],
                  phase: Phase) -> Checked:
    """Rebuild each distinct reply and verify it against the payload the
    client *submitted*, so a mis-rendered twin fails."""
    plan = [sub for round_ in rounds for sub in round_]
    checked = Checked([None] * len(plan), dict(phase.errors))
    first: Dict[int, Tuple[Fingerprint, Optional[str], dict]] = {}
    for rid, (sub, out) in enumerate(zip(plan, phase.outputs)):
        if isinstance(out, dict):
            first[sub.key] = verify_reply(sub.payload, out) + (out,)
    for rid, (sub, out) in enumerate(zip(plan, phase.outputs)):
        if rid in phase.errors:
            continue
        print_, error, result = first[sub.key]
        checked.fingerprints[rid] = print_
        checked.routed += print_[1]
        checked.connections += result["stats"]["connections"]
        if error is not None:
            checked.failures[rid] = error
        elif out is False:
            checked.failures[rid] = "differs from the first reply"
    for print_, _error, result in first.values():
        checked.distinct_stats.append(result["stats"])
        checked.wirelength += print_[2]
    return checked


def verify_reply(submitted: dict, result: dict):
    """``(fingerprint, error or None)`` of one reply payload."""
    from repro import layout_metrics, verify_routing
    from repro.core.serialize import rebuild_grid
    from repro.netlist.io import problem_from_dict

    stats = result["stats"]
    try:
        problem = problem_from_dict(submitted)
        grid = rebuild_grid(result)
        open_ok = () if result["success"] else {
            c["net"] for c in result["connections"] if not c["routed"]}
        report = verify_routing(problem, grid, allowed_open=open_ok)
        wirelength = layout_metrics(problem, grid).wire_cells
    except Exception as exc:  # a reply that cannot be rebuilt is wrong
        return ("error", 0, 0, 0), f"rebuild: {type(exc).__name__}: {exc}"
    print_ = (result["status"], stats["routed_connections"], wirelength,
              stats["expansions"])
    if result["problem"] != submitted:
        return print_, "reply names another problem than the submitted one"
    if not report.ok:
        return print_, f"verify: {report.summary()}"
    return print_, None
