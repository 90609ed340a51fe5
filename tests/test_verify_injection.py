"""Failure-injection tests for the independent verifier.

The grid API makes shorts and pin theft unrepresentable, so these tests
corrupt the grid's stores directly (white-box) and check the verifier
still catches every class of violation — the whole point of verifying
independently of the bookkeeping.  The verifier must also leave the grid
it checks untouched, ignore the grid's connectivity queries, and reach
the same verdicts the open check built on those queries reached.
"""

from typing import List

import numpy as np
import pytest

from repro.analysis import VerificationReport, verify_routing
from repro.bench import bench_cases
from repro.core import route_problem
from repro.grid import FREE, OBSTACLE, Layer, RoutingGrid
from repro.grid.path import flat_id
from repro.netlist import Net, Pin, RoutingProblem
from repro.netlist.generators import random_switchbox
from repro.netlist.instances import small_switchbox


def poke(grid, node, owner, via=False):
    """Overwrite one occupancy cell (or, with ``via``, the via at the
    node's ``(x, y)``) in the grid's one store, bypassing its API."""
    x, y, _ = node
    if via:
        grid._via[y * grid.width + x] = owner
    else:
        grid._occ[flat_id(node, grid.width, grid.height)] = owner


def erase_net_wiring(grid, net_id):
    """Free every non-pin cell and every via of ``net_id``."""
    for node in grid.net_nodes(net_id):
        if grid.pin_owner(node) == FREE:
            poke(grid, node, FREE)
    for index, owner in enumerate(grid._via):
        if owner == net_id:
            x, y = index % grid.width, index // grid.width
            poke(grid, (x, y, 0), FREE, via=True)


def grid_state(grid):
    """Every store of ``grid`` and its cached components."""
    stores = (grid._occ, grid._via, grid._pin, grid._use, grid._vuse)
    return (
        [bytes(store) for store in stores],
        {
            net: {index: list(nodes) for index, nodes in members.items()}
            for net, members in grid._components.items()
        },
    )


def index_verdict(problem, grid, allowed_open=()) -> VerificationReport:
    """:func:`verify_routing` as it was when the grid's connectivity
    queries answered its open check: every cached component dropped by
    ``refresh_connectivity()``, then ``same_component`` asked per pin."""
    errors: List[str] = []
    waived: List[str] = []
    occ = grid.occupancy()
    via = grid.via_map()
    bad_ids = np.unique(occ[(occ != FREE) & (occ != OBSTACLE)])
    for net_id in bad_ids.tolist():
        if not 1 <= net_id <= len(problem.nets):
            errors.append(f"grid contains unknown net id {net_id}")
    ys, xs = np.nonzero(via)
    for y, x in zip(ys.tolist(), xs.tolist()):
        owner = int(via[y, x])
        if int(occ[0, y, x]) != owner or int(occ[1, y, x]) != owner:
            errors.append(
                f"via of net {owner} at ({x},{y}) lacks metal on both layers"
            )
    reference = problem.build_grid()
    violated = (reference.occupancy() == OBSTACLE) & (occ != OBSTACLE)
    if violated.any():
        layer, y, x = [int(v[0]) for v in np.nonzero(violated)]
        errors.append(
            f"blocked cell overwritten at ({x},{y}) layer {layer} "
            f"(+{int(violated.sum()) - 1} more)"
        )
    ref_pin = reference.pin_map()
    pin_moved = (ref_pin != 0) & (occ != ref_pin)
    if pin_moved.any():
        layer, y, x = [int(v[0]) for v in np.nonzero(pin_moved)]
        errors.append(
            f"pin cell stolen at ({x},{y}) layer {layer} "
            f"(+{int(pin_moved.sum()) - 1} more)"
        )
    grid.refresh_connectivity()
    connected = {}
    for index, net in enumerate(problem.nets):
        net_id = index + 1
        if len(net.pins) < 2:
            connected[net.name] = True
            continue
        missing = [
            pin for pin in net.pins if grid.owner(tuple(pin.node)) != net_id
        ]
        if missing:
            errors.append(
                f"net {net.name!r} lost pin(s) at "
                f"{[(p.x, p.y) for p in missing]}"
            )
            connected[net.name] = False
            continue
        anchor = tuple(net.pins[0].node)
        stranded = [
            (pin.x, pin.y)
            for pin in net.pins
            if not grid.same_component(net_id, anchor, tuple(pin.node))
        ]
        connected[net.name] = not stranded
        if stranded:
            if net.name in allowed_open:
                waived.append(net.name)
            else:
                errors.append(
                    f"net {net.name!r} is open: stranded pins {stranded}"
                )
    return VerificationReport(
        ok=not errors,
        errors=errors,
        connected_nets=connected,
        waived_open=sorted(waived),
    )


def cut_node(problem, grid):
    """``(net_id, node)``: a net's non-pin, via-free wire node whose
    erasure strands one of its pins, found with the BFS oracle."""
    for net_id, net in enumerate(problem.nets, start=1):
        for node in grid.net_nodes(net_id):
            if grid.pin_owner(node) or grid.via_owner(node.x, node.y):
                continue
            trial = grid.clone()
            poke(trial, node, FREE)
            anchor = tuple(net.pins[0].node)
            reached = trial.connected_component(net_id, anchor)
            if any(pin.node not in reached for pin in net.pins):
                return net_id, node
    raise AssertionError("no wire node is a cut")


@pytest.fixture
def routed():
    problem = small_switchbox().to_problem()
    result = route_problem(problem)
    assert result.success
    return problem, result.grid


class TestInjectedViolations:
    def test_clean_baseline(self, routed):
        problem, grid = routed
        assert verify_routing(problem, grid).ok

    def test_stolen_pin_detected(self, routed):
        problem, grid = routed
        pin = problem.nets[0].pins[0]
        other_id = problem.net_id(problem.nets[1].name)
        poke(grid, pin.node, other_id)  # corrupt
        report = verify_routing(problem, grid)
        assert not report.ok
        assert any("pin" in error for error in report.errors)

    def test_unknown_net_id_detected(self, routed):
        problem, grid = routed
        poke(grid, (2, 2, 0), 99)  # no such net
        report = verify_routing(problem, grid)
        assert not report.ok
        assert any("unknown net id" in error for error in report.errors)

    def test_floating_via_detected(self, routed):
        problem, grid = routed
        # a via whose metal is missing on one layer
        net_id = 1
        poke(grid, (3, 3, 0), net_id, via=True)
        poke(grid, (3, 3, 0), net_id)
        poke(grid, (3, 3, 1), FREE)
        report = verify_routing(problem, grid)
        assert not report.ok
        assert any("via" in error for error in report.errors)

    def test_via_without_metal_joins_nothing(self):
        """A via needs its net's metal on both layers to bridge them."""
        problem = RoutingProblem(
            2, 1, nets=[Net("a", (Pin(0, 0, Layer.HORIZONTAL), Pin(1, 0)))]
        )
        grid = problem.build_grid()
        poke(grid, (0, 0, 0), 1, via=True)
        report = verify_routing(problem, grid)
        assert report.errors[0].startswith("via of net 1 at (0,0) lacks")
        assert report.open_nets == ["a"]

    def test_obstacle_overwrite_detected(self):
        from repro.geometry import Rect
        from repro.netlist.problem import Obstacle

        problem = RoutingProblem(
            6,
            6,
            nets=[Net("a", (Pin(0, 0), Pin(5, 5)))],
            obstacles=[Obstacle(Rect(2, 2, 3, 3))],
        )
        result = route_problem(problem)
        grid = result.grid
        poke(grid, (2, 2, 0), 1)  # route over the obstacle
        report = verify_routing(problem, grid)
        assert not report.ok
        assert any("blocked cell" in error for error in report.errors)

    def test_severed_wire_detected(self):
        """Cutting a straight single-layer wire must open its net."""
        problem = RoutingProblem(
            7, 1, nets=[Net("a", (Pin(0, 0), Pin(6, 0)))]
        )
        result = route_problem(problem)
        assert result.success
        grid = result.grid
        (cut,) = [node for node in grid.net_nodes(1) if node.x == 3]
        poke(grid, cut, FREE)
        report = verify_routing(problem, grid)
        assert not report.ok
        assert "a" in report.open_nets

    def test_detour_written_into_occupancy_reconnects(self):
        """The verifier reads copper, not the grid's API history: a detour
        written straight into the occupancy store around a cut closes the
        net again."""
        problem = RoutingProblem(
            7, 2, nets=[Net("a", (Pin(0, 0), Pin(6, 0)))]
        )
        result = route_problem(problem)
        assert result.success
        grid = result.grid
        (cut,) = [n for n in grid.net_nodes(1) if (n.x, n.y) == (3, 0)]
        poke(grid, cut, FREE)
        assert verify_routing(problem, grid).open_nets == ["a"]
        for x in (2, 3, 4):
            poke(grid, (x, 1, cut.layer), 1)
        report = verify_routing(problem, grid)
        assert report.ok, report.errors
        assert report.open_nets == []

    def test_open_after_full_erase(self, routed):
        problem, grid = routed
        erase_net_wiring(grid, 1)
        report = verify_routing(problem, grid)
        assert not report.ok
        assert problem.nets[0].name in report.open_nets


class TestFaultHarnessCorruption:
    """The same violations delivered through the fault-injection harness."""

    def test_injected_claim_corruption_detected(self):
        from repro.testing import CORRUPT_OWNER, FaultInjector, FaultPlan

        problem = small_switchbox().to_problem()
        # commit #1 is later ripped up (the corruption goes with it); the
        # second committed path survives to the final grid on this box
        plan = FaultPlan(corrupt_claim_after=2)
        with FaultInjector(plan) as chaos:
            result = route_problem(problem)
        assert chaos.corrupted_nodes, "harness must have corrupted a cell"
        report = verify_routing(problem, result.grid)
        assert not report.ok
        assert any(str(CORRUPT_OWNER) in error for error in report.errors)

    def test_ripping_a_corrupted_path_is_refused_and_supervised(self):
        """Commit #5 on this box is later ripped: the rip refuses to write
        FREE over the corrupt cell, and the engine records the crash and
        routes again on its next attempt."""
        from repro.engine import EngineConfig, RoutingEngine
        from repro.grid import GridError
        from repro.testing import FaultInjector, FaultPlan

        problem = small_switchbox().to_problem()
        plan = FaultPlan(corrupt_claim_after=5)
        with pytest.raises(GridError, match="does not own"):
            with FaultInjector(plan):
                route_problem(problem)
        with FaultInjector(plan):
            result = RoutingEngine(EngineConfig(max_attempts=2)).route(problem)
        assert result.success
        first, second = result.stats.attempt_log
        assert first["error"].startswith("GridError: net")
        assert second["verified"] and not second["error"]

    def test_harness_restores_real_hooks(self):
        from repro.grid.routing_grid import RoutingGrid
        from repro.testing import FaultInjector, FaultPlan
        import repro.core.router as router_module

        real_search = router_module.find_path_flat
        real_commit = RoutingGrid.commit_path
        with FaultInjector(FaultPlan(fail_searches_after=1)):
            assert router_module.find_path_flat is not real_search
        assert router_module.find_path_flat is real_search
        assert RoutingGrid.commit_path is real_commit

    def test_harness_restores_on_exception(self):
        import repro.core.router as router_module
        from repro.testing import FaultInjector, FaultPlan

        real_search = router_module.find_path_flat
        with pytest.raises(RuntimeError):
            with FaultInjector(FaultPlan(fail_searches_after=1)):
                raise RuntimeError("boom")
        assert router_module.find_path_flat is real_search


class TestIndependence:
    """The verifier reads the copper alone: it writes nothing to the grid
    and believes nothing the grid's connectivity queries say."""

    def test_verify_leaves_the_grid_unchanged(self, routed):
        problem, grid = routed
        # Fill the grid's component cache, so dropping it would show.
        for net_id, net in enumerate(problem.nets, start=1):
            grid.component_nodes(net_id, tuple(net.pins[0].node))
        before = grid_state(grid)
        assert verify_routing(problem, grid).ok
        assert grid_state(grid) == before

    def test_cut_found_while_the_index_calls_everything_connected(
        self, monkeypatch
    ):
        problem = random_switchbox(14, 10, 10, seed=3, fill=0.6).to_problem()
        result = route_problem(problem)
        assert result.success
        grid = result.grid
        net_id, node = cut_node(problem, grid)
        poke(grid, node, FREE)
        monkeypatch.setattr(
            RoutingGrid, "same_component", lambda *args: True
        )
        monkeypatch.setattr(
            RoutingGrid,
            "component_nodes",
            lambda self, net_id, seed: self.net_nodes(net_id),
        )
        report = verify_routing(problem, grid)
        assert not report.ok
        assert report.open_nets == [problem.nets[net_id - 1].name]


class TestAgainstTheIndexVerdict:
    """On every benchmark case, as routed and with one wire node of every
    net erased, the labelling pass reaches the index-backed verdict."""

    @staticmethod
    def _assert_same_verdict(problem, grid, allowed):
        new = verify_routing(problem, grid, allowed_open=allowed)
        old = index_verdict(problem, grid, allowed_open=allowed)
        assert new.ok == old.ok
        assert new.connected_nets == old.connected_nets
        assert new.errors == old.errors
        assert new.waived_open == old.waived_open
        return new

    def test_bench_cases(self):
        opened = 0
        for case in bench_cases():
            problem = case.build()
            grid = route_problem(problem).grid
            allowed = {net.name for net in problem.nets[::2]}
            self._assert_same_verdict(problem, grid, allowed)
            cut = grid.clone()
            for net_id in range(1, len(problem.nets) + 1):
                wires = [
                    node
                    for node in grid.net_nodes(net_id)
                    if not grid.pin_owner(node)
                ]
                if wires:
                    poke(cut, wires[len(wires) // 2], FREE)
            report = self._assert_same_verdict(problem, cut, allowed)
            opened += len(report.open_nets)
        assert opened  # the erasures did cut nets open


class TestPartialVerification:
    """Partial results verify cleanly with known-open nets waived."""

    def test_allowed_open_waives_exactly_the_named_nets(self, routed):
        problem, grid = routed
        erase_net_wiring(grid, 1)
        name = problem.nets[0].name
        report = verify_routing(problem, grid, allowed_open=[name])
        assert report.ok
        assert report.waived_open == [name]
        assert name in report.open_nets  # still reported, just waived

    def test_waiver_does_not_hide_structural_damage(self, routed):
        problem, grid = routed
        pin = problem.nets[0].pins[0]
        other_id = problem.net_id(problem.nets[1].name)
        poke(grid, pin.node, other_id)
        report = verify_routing(
            problem, grid, allowed_open=[problem.nets[0].name]
        )
        assert not report.ok  # pin theft is never waivable

    def test_verify_result_waives_router_reported_failures(self):
        from repro.analysis import verify_result
        from repro.testing import FaultInjector, FaultPlan

        problem = small_switchbox().to_problem()
        with FaultInjector(FaultPlan(fail_searches_after=3)):
            result = route_problem(problem)
        assert not result.success
        report = verify_result(problem, result)
        assert report.ok
        assert set(report.waived_open) == {
            c.net_name for c in result.failed
        }
