"""A greedy switchbox router (after Luk, INTEGRATION 1985).

Luk extended the Rivest-Fiduccia greedy channel sweep to switchboxes: the
left-edge pins seed the initial track contents, the sweep brings in
top/bottom pins column by column, and — the switchbox-specific ingredient —
every net with right-edge pins is *steered* toward its target rows so that
it arrives exactly there at the final column.  Unlike a channel there are no
extension columns: a net that cannot reach its targets in time fails.

This is the library's published-algorithm comparator for Table 2 (the
Mighty paper compares against [Luk85]); like the original it completes
most practical boxes but has no recovery mechanism, so congested instances
fail where the rip-up router succeeds.

The sweep keeps its rows in the channel sweep's
:class:`~repro.channels.greedy.SweepState` and lays its wires with the
channel routers' :func:`~repro.channels.base.lay_wires`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.verify import VerificationReport, verify_routing
from repro.channels.base import lay_wires
from repro.channels.greedy import SweepState
from repro.grid.routing_grid import RoutingGrid
from repro.netlist.problem import RoutingProblem
from repro.netlist.switchbox import SwitchboxSpec


@dataclass
class BoxResult:
    """Outcome of one switchbox-routing attempt."""

    spec: SwitchboxSpec
    success: bool
    router: str = "luk-greedy"
    reason: str = ""
    problem: Optional[RoutingProblem] = None
    grid: Optional[RoutingGrid] = None
    verification: Optional[VerificationReport] = None

    def summary(self) -> str:
        """One-line outcome."""
        verdict = "OK" if self.success else f"FAIL ({self.reason})"
        return f"{self.router} on {self.spec.name}: {verdict}"


class GreedySwitchboxRouter:
    """Greedy column sweep with steering toward right-edge targets."""

    name = "luk-greedy"

    def route(self, spec: SwitchboxSpec) -> BoxResult:
        """Sweep the box left to right; realise and verify on success."""
        plan = self._sweep(spec)
        if isinstance(plan, str):
            return BoxResult(spec=spec, success=False, reason=plan)
        return self._realize(spec, plan)

    # ------------------------------------------------------------------
    # The sweep
    # ------------------------------------------------------------------
    def _sweep(self, spec: SwitchboxSpec):
        state = SweepState(
            spec, range(spec.height), spec.height - 1, top_down=False
        )
        for row, net in enumerate(spec.left):
            if net:
                state.claim(row, net)
        for row, net in enumerate(spec.right):
            if net:
                state.targets[net].add(row)

        def distance(net: int, row: int) -> int:
            # A collapse keeps the row nearer the net's targets, else the
            # row nearer the middle.
            targets = state.targets[net]
            if targets:
                return min(abs(row - t) for t in targets)
            return abs(row - spec.height // 2)

        for column in range(spec.width):
            state.begin_column(column)
            error = self._bring_in(spec, state)
            if error:
                return error
            state.collapse(distance)
            if column == spec.width - 1:
                error = self._join_targets(state)
                if error:
                    return error
            else:
                self._steer(state)
                state.retire()
        leftover = [net for net, rows in state.held.items() if rows]
        if leftover:
            return f"nets {leftover} still hold rows at the right edge"
        return state

    def _bring_in(self, spec: SwitchboxSpec, state: SweepState):
        column = state.column
        top_row = state.top_row
        top, bottom = spec.top[column], spec.bottom[column]
        pins = [
            (shore, net) for shore, net in (("T", top), ("B", bottom)) if net
        ]
        if top and top == bottom:
            net = top
            if not state.v_free(0, top_row, net):
                return f"column {column} blocked for straight-through {net}"
            state.add_v(0, top_row, net)
            held = sorted(state.held[net])
            for row in held[:-1]:
                state.release(row)
            if not held and (
                state.last_pin[net] > column or state.targets[net]
            ):
                near = (
                    min(state.targets[net])
                    if state.targets[net]
                    else top_row // 2
                )
                row = min(
                    (r for r in state.slots if state.claimable(r)),
                    key=lambda r: (abs(r - near), r),
                    default=None,
                )
                if row is None:
                    return f"no free row for net {net} at column {column}"
                state.claim(row, net)
            return None
        if len(pins) == 1:
            shore, net = pins[0]
            if not state.place_pin(net, shore):
                return f"stuck at column {column} (net {net} {shore} pin)"
        elif pins:
            # joint selection so one pin's vertical cannot wall the other
            (shore_a, net_a), (shore_b, net_b) = pins
            options_b = state.pin_options(net_b, shore_b)
            best = None
            for ca in state.pin_options(net_a, shore_a):
                for cb in options_b:
                    if ca[1] == cb[1]:
                        continue
                    if not (ca[3] < cb[2] or cb[3] < ca[2]):
                        continue
                    key = tuple(x + y for x, y in zip(ca[0], cb[0]))
                    if best is None or key < best[0]:
                        best = (key, ca, cb)
            if best is None:
                return f"stuck at column {column} (pin pair)"
            state.connect(net_a, *best[1][1:])
            state.connect(net_b, *best[2][1:])
        return None

    def _steer(self, state: SweepState) -> None:
        """Move nets toward their right-edge target rows.

        Tries to *jump* straight onto the target row (the joining vertical
        legally crosses other trunks on the other layer — the greedy
        family's split/collapse crossing trick); when the target row is
        still occupied, drifts one row toward it instead.  A held target
        row is never abandoned.
        """
        for net in sorted(state.held):
            targets = state.targets[net]
            if not targets or not state.held[net]:
                continue
            for target in sorted(targets):
                if target in state.held[net]:
                    continue
                source = min(
                    state.held[net], key=lambda r: (abs(r - target), r)
                )
                step = 1 if target > source else -1
                landing = None
                for row in (target, source + step):
                    if row == source or row not in state.slots:
                        continue
                    if state.slot_net[row] == net:
                        landing = None
                        break
                    if not state.claimable(row):
                        continue
                    lo, hi = sorted((source, row))
                    if state.v_free(lo, hi, net):
                        landing = row
                        break
                if landing is None:
                    continue
                lo, hi = sorted((source, landing))
                state.claim(landing, net)
                state.add_v(lo, hi, net)
                if source not in targets:
                    state.release(source)

    def _join_targets(self, state: SweepState) -> Optional[str]:
        """Final column: connect every net to all its right-edge pins."""
        for net in sorted(state.held):
            targets = state.targets[net]
            rows = state.held[net]
            if not targets:
                for row in sorted(rows):
                    state.release(row)
                continue
            if not rows:
                return f"net {net} reached the right edge holding nothing"
            anchor = min(
                rows,
                key=lambda r: min(abs(r - t) for t in targets),
            )
            span = sorted(targets | {anchor})
            lo, hi = span[0], span[-1]
            if lo != hi:
                if not state.v_free(lo, hi, net):
                    return (
                        f"net {net} cannot join right-edge rows "
                        f"{sorted(targets)}"
                    )
                state.add_v(lo, hi, net)
            for row in sorted(rows):
                state.release(row)
        return None

    # ------------------------------------------------------------------
    # Realisation
    # ------------------------------------------------------------------
    def _realize(self, spec: SwitchboxSpec, state: SweepState) -> BoxResult:
        problem = spec.to_problem()
        ids = problem.net_ids()

        def net_id(number: int) -> int:
            return ids[spec.net_name(number)]

        grid, reason = lay_wires(
            problem,
            [(net_id(n), row, x0, x1) for n, row, x0, x1 in state.trunks],
            [(net_id(n), x, y0, y1) for n, x, y0, y1 in state.branches],
        )
        if reason:
            return BoxResult(
                spec=spec,
                success=False,
                reason=reason,
                problem=problem,
                grid=grid,
            )
        report = verify_routing(problem, grid)
        return BoxResult(
            spec=spec,
            success=report.ok,
            reason="" if report.ok else report.summary(),
            problem=problem,
            grid=grid,
            verification=report,
        )
