"""Failure-injection tests for the independent verifier.

The grid API makes shorts and pin theft unrepresentable, so these tests
corrupt the grid's stores directly (white-box) and check the verifier
still catches every class of violation — the whole point of verifying
independently of the bookkeeping.
"""

import pytest

from repro.analysis import verify_routing
from repro.core import route_problem
from repro.grid import FREE
from repro.netlist import Net, Pin, RoutingProblem
from repro.netlist.instances import small_switchbox


def poke(grid, node, owner, via=False):
    """Overwrite one occupancy cell (or, with ``via``, the via at the
    node's ``(x, y)``) in the grid's one store, bypassing its API."""
    x, y, _ = node
    if via:
        grid._via[y * grid.width + x] = owner
    else:
        grid._occ[grid._flat_index(node)] = owner


def erase_net_wiring(grid, net_id):
    """Free every non-pin cell and every via of ``net_id``."""
    for node in grid.net_nodes(net_id):
        if grid.pin_owner(node) == FREE:
            poke(grid, node, FREE)
    for cell in grid.net_vias(net_id):
        poke(grid, (cell.x, cell.y, 0), FREE, via=True)


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

        real_find = router_module.find_path
        real_commit = RoutingGrid.commit_path
        with FaultInjector(FaultPlan(fail_searches_after=1)):
            assert router_module.find_path is not real_find
        assert router_module.find_path is real_find
        assert RoutingGrid.commit_path is real_commit

    def test_harness_restores_on_exception(self):
        import repro.core.router as router_module
        from repro.testing import FaultInjector, FaultPlan

        real_find = router_module.find_path
        with pytest.raises(RuntimeError):
            with FaultInjector(FaultPlan(fail_searches_after=1)):
                raise RuntimeError("boom")
        assert router_module.find_path is real_find


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
