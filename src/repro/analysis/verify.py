"""Independent verification of routed layouts.

The verifier re-derives everything from the problem statement and the final
grid — it trusts none of the router's bookkeeping.  Checks:

* **pins** — every pin node is owned by its net;
* **opens** — each net's pins lie in one connected component of its copper;
* **shorts** — no node is owned by a net not in the problem, and via cells
  own both layers (a via bridging two different nets is structurally
  impossible in :class:`~repro.grid.RoutingGrid`, but the verifier checks
  anyway so a future grid bug cannot hide);
* **obstacles / region** — blocked cells of a freshly-built reference grid
  are still blocked (nothing routed over an obstacle or off the region).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Collection, Dict, List

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> analysis)
    from repro.core.result import RouteResult

from repro.grid.routing_grid import FREE, OBSTACLE, RoutingGrid
from repro.netlist.problem import RoutingProblem


@dataclass
class VerificationReport:
    """Outcome of :func:`verify_routing`.

    ``waived_open`` lists nets that were found open but declared expected
    by the caller (a partial result's known failures); waived opens never
    fail the report, so a graceful-degradation outcome can be verified
    without false alarms while shorts and obstacle violations still can't
    hide.
    """

    ok: bool
    errors: List[str] = field(default_factory=list)
    connected_nets: Dict[str, bool] = field(default_factory=dict)
    waived_open: List[str] = field(default_factory=list)

    @property
    def open_nets(self) -> List[str]:
        """Nets whose pins are not all connected (waived ones included)."""
        return sorted(
            name for name, good in self.connected_nets.items() if not good
        )

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        """One-line human-readable verdict."""
        if self.ok:
            connected = sum(
                1 for good in self.connected_nets.values() if good
            )
            verdict = f"VERIFIED: {connected} nets connected"
            if self.waived_open:
                verdict += (
                    f" (partial: {len(self.waived_open)} known-open waived)"
                )
            return verdict
        return "FAILED: " + "; ".join(self.errors[:5]) + (
            f" (+{len(self.errors) - 5} more)" if len(self.errors) > 5 else ""
        )


def verify_routing(
    problem: RoutingProblem,
    grid: RoutingGrid,
    allowed_open: Collection[str] = (),
) -> VerificationReport:
    """Check ``grid`` against ``problem``; see module docstring for rules.

    ``allowed_open`` names nets whose disconnection is *expected* (the
    failures a partial result already reported); their opens are recorded
    in ``waived_open`` instead of failing the report.  Every structural
    rule — shorts, stolen pins, obstacle and region violations — still
    applies to the routed subset unconditionally.
    """
    errors: List[str] = []
    allowed = set(allowed_open)
    waived: List[str] = []
    occ = grid.occupancy()
    via = grid.via_map()
    n_nets = len(problem.nets)

    # --- structural sanity -------------------------------------------------
    bad_ids = np.unique(occ[(occ != FREE) & (occ != OBSTACLE)])
    for net_id in bad_ids.tolist():
        if not 1 <= net_id <= n_nets:
            errors.append(f"grid contains unknown net id {net_id}")
    ys, xs = np.nonzero(via)
    for y, x in zip(ys.tolist(), xs.tolist()):
        owner = int(via[y, x])
        if int(occ[0, y, x]) != owner or int(occ[1, y, x]) != owner:
            errors.append(
                f"via of net {owner} at ({x},{y}) lacks metal on both layers"
            )

    # --- obstacles and region ---------------------------------------------
    reference = problem.build_grid()
    ref_occ = reference.occupancy()
    blocked = ref_occ == OBSTACLE
    violated = blocked & (occ != OBSTACLE)
    if violated.any():
        layer, y, x = [int(v[0]) for v in np.nonzero(violated)]
        errors.append(
            f"blocked cell overwritten at ({x},{y}) layer {layer} "
            f"(+{int(violated.sum()) - 1} more)"
        )
    # Pins of the reference grid must be intact in the routed grid.
    ref_pin = reference.pin_map()
    pin_moved = (ref_pin != 0) & (occ != ref_pin)
    if pin_moved.any():
        layer, y, x = [int(v[0]) for v in np.nonzero(pin_moved)]
        errors.append(
            f"pin cell stolen at ({x},{y}) layer {layer} "
            f"(+{int(pin_moved.sum()) - 1} more)"
        )

    # --- connectivity -------------------------------------------------------
    # Force the incremental index to re-derive every net from the
    # occupancy/via arrays themselves: the verifier must not trust state
    # the router maintained, only the copper.  Each net's re-flood scans
    # the whole occupancy buffer once (numpy) to find its cells, so this
    # costs O(nets x area) in compares plus O(net copper) of unions.
    grid.refresh_connectivity()
    connected: Dict[str, bool] = {}
    for index, net in enumerate(problem.nets):
        net_id = index + 1
        if len(net.pins) < 2:
            connected[net.name] = True
            continue
        missing = [
            pin
            for pin in net.pins
            if grid.owner(tuple(pin.node)) != net_id
        ]
        if missing:
            errors.append(
                f"net {net.name!r} lost pin(s) at "
                f"{[(p.x, p.y) for p in missing]}"
            )
            connected[net.name] = False
            continue
        anchor = tuple(net.pins[0].node)
        good = all(
            grid.same_component(net_id, anchor, tuple(pin.node))
            for pin in net.pins
        )
        connected[net.name] = good
        if not good:
            if net.name in allowed:
                waived.append(net.name)
                continue
            stranded = [
                (pin.x, pin.y)
                for pin in net.pins
                if not grid.same_component(
                    net_id, anchor, tuple(pin.node)
                )
            ]
            errors.append(f"net {net.name!r} is open: stranded pins {stranded}")

    return VerificationReport(
        ok=not errors,
        errors=errors,
        connected_nets=connected,
        waived_open=sorted(waived),
    )


def verify_result(
    problem: RoutingProblem, result: "RouteResult"
) -> VerificationReport:
    """Verify a (possibly partial) :class:`~repro.core.result.RouteResult`.

    A complete result is held to the full rules.  A partial one — a run
    that hit its deadline or gave up on some connections — waives exactly
    the nets the router itself reported failed, so the routed subset is
    still ground-truth checked (shorts, obstacles, pins, connectivity of
    everything claimed routed) without raising false alarms for the known
    failures.
    """
    allowed: Collection[str] = ()
    if not result.success:
        allowed = {connection.net_name for connection in result.failed}
    return verify_routing(problem, result.grid, allowed_open=allowed)
