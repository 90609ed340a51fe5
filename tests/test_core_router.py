"""Unit and behavioural tests for the Mighty router."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import verify_routing
from repro.bench import bench_cases
from repro.core import MightyConfig, MightyRouter, route_problem
from repro.errors import EngineError
from repro.grid import Layer
from repro.grid.path import GridPath, straight_path
from repro.geometry import Point
from repro.netlist import Net, Pin, RoutingProblem
from repro.netlist.generators import random_switchbox
from repro.netlist.instances import (
    contention_switchbox,
    crossing_switchbox,
    obstacle_region_problem,
    partially_routed_problem,
    small_switchbox,
)


def _problem(nets, width=10, height=8, **kwargs):
    return RoutingProblem(width=width, height=height, nets=nets, **kwargs)


class TestBasicRouting:
    def test_single_connection(self):
        problem = _problem([Net("a", (Pin(0, 0), Pin(9, 7)))])
        result = route_problem(problem)
        assert result.success
        assert result.stats.routed_connections == 1
        assert verify_routing(problem, result.grid).ok

    def test_no_routable_nets(self):
        problem = _problem([Net("a", (Pin(0, 0),))])
        result = route_problem(problem)
        assert result.success
        assert result.stats.connections == 0

    def test_multi_pin_net(self):
        problem = _problem(
            [Net("a", (Pin(0, 0), Pin(9, 0), Pin(5, 7)))]
        )
        result = route_problem(problem)
        assert result.success
        assert verify_routing(problem, result.grid).ok

    def test_many_nets(self):
        nets = [
            Net(f"n{i}", (Pin(i, 0), Pin(i, 7))) for i in range(10)
        ]
        problem = _problem(nets)
        result = route_problem(problem)
        assert result.success
        assert result.stats.strong_modifications == 0  # disjoint columns

    def test_classic_instances_complete_and_verify(self):
        for spec in (crossing_switchbox(), small_switchbox(), contention_switchbox()):
            problem = spec.to_problem()
            result = route_problem(problem)
            assert result.success, spec.name
            assert verify_routing(problem, result.grid).ok, spec.name

    def test_region_problem(self):
        problem = obstacle_region_problem()
        result = route_problem(problem)
        assert result.success
        assert verify_routing(problem, result.grid).ok

    def test_router_single_use(self):
        problem = _problem([Net("a", (Pin(0, 0), Pin(1, 0)))])
        router = MightyRouter(problem)
        router.route()
        with pytest.raises(RuntimeError):
            router.route()


class TestUnroutable:
    def test_walled_pin_reported_failed(self):
        # target pin fully enclosed by obstacles on both layers
        from repro.geometry import Rect
        from repro.netlist.problem import Obstacle

        obstacles = [
            Obstacle(Rect(4, 3, 7, 4)),
            Obstacle(Rect(4, 5, 7, 6)),
            Obstacle(Rect(4, 4, 5, 5)),
            Obstacle(Rect(6, 4, 7, 5)),
        ]
        problem = _problem(
            [Net("a", (Pin(0, 0), Pin(5, 4)))], obstacles=obstacles
        )
        result = route_problem(problem)
        assert not result.success
        assert len(result.failed) == 1
        assert result.status == "failed"

    def test_failure_leaves_grid_consistent(self):
        from repro.geometry import Rect
        from repro.netlist.problem import Obstacle

        obstacles = [Obstacle(Rect(0, 1, 2, 2)), Obstacle(Rect(1, 0, 2, 1))]
        problem = _problem(
            [
                Net("boxed", (Pin(0, 0), Pin(9, 7))),
                Net("fine", (Pin(3, 0), Pin(3, 7))),
            ],
            obstacles=obstacles,
        )
        result = route_problem(problem)
        assert not result.success
        report = verify_routing(problem, result.grid)
        # the routed net must still verify; only the boxed net is open
        assert report.connected_nets["fine"]
        assert not report.connected_nets["boxed"]


class TestModificationMachinery:
    def _blocking_problem(self):
        """Net `wall` wants the whole middle row; net `cross` must pierce it."""
        nets = [
            Net(
                "wall",
                (Pin(0, 3, Layer.HORIZONTAL), Pin(9, 3, Layer.HORIZONTAL)),
            ),
            Net("cross", (Pin(4, 0), Pin(4, 7))),
        ]
        return _problem(nets)

    def test_crossing_through_wall_works(self):
        problem = self._blocking_problem()
        result = route_problem(problem)
        assert result.success
        assert verify_routing(problem, result.grid).ok

    def test_naive_config_never_modifies(self):
        problem = contention_switchbox().to_problem()
        result = route_problem(problem, MightyConfig.no_modification())
        assert result.stats.weak_modifications == 0
        assert result.stats.strong_modifications == 0

    def test_event_trace_records_work(self):
        problem = contention_switchbox().to_problem()
        result = route_problem(problem)
        assert any(event.kind == "route" for event in result.events)
        assert result.stats.iterations >= result.stats.connections

    def test_termination_bound_holds(self):
        """Even with aggressive settings the loop respects its bound."""
        problem = contention_switchbox().to_problem()
        config = MightyConfig(max_rips_per_net=2, retry_passes=1)
        result = route_problem(problem, config)  # must not raise
        assert result.stats.iterations > 0

    def test_rip_budget_zero_degenerates_to_weak_only(self):
        problem = self._blocking_problem()
        config = MightyConfig(max_rips_per_net=0)
        result = route_problem(problem, config)
        assert result.stats.strong_modifications == 0


class TestPreRouted:
    def test_pre_routed_wiring_counts(self):
        problem = partially_routed_problem()
        fixed_path = straight_path(Point(0, 3), Point(9, 3), Layer.HORIZONTAL)
        result = route_problem(problem, pre_routed={"fixed": [fixed_path]})
        assert result.success
        assert verify_routing(problem, result.grid).ok

    def test_pre_routed_can_be_ripped(self):
        """The pre-routed wall bisects the field; net `b` must displace it
        (or cross it) — either way everything completes."""
        problem = partially_routed_problem()
        # wall on BOTH layers so net b cannot simply cross
        wall_h = straight_path(Point(0, 3), Point(9, 3), Layer.HORIZONTAL)
        result = route_problem(problem, pre_routed={"fixed": [wall_h]})
        assert result.success

    def test_illegal_pre_route_rejected(self):
        problem = partially_routed_problem()
        bad = straight_path(Point(0, 0), Point(9, 0), Layer.VERTICAL)
        # collides with pins of nets a/b on the bottom row
        with pytest.raises(ValueError):
            route_problem(problem, pre_routed={"fixed": [bad]})

    def test_unknown_net_rejected(self):
        problem = partially_routed_problem()
        path = GridPath([(0, 2, 0), (1, 2, 0)])
        with pytest.raises(KeyError):
            route_problem(problem, pre_routed={"nope": [path]})

    def test_pre_route_off_the_grid_rejected(self):
        problem = partially_routed_problem()
        off = straight_path(Point(8, 3), Point(10, 3), Layer.HORIZONTAL)
        with pytest.raises(ValueError, match="is illegal"):
            route_problem(problem, pre_routed={"fixed": [off]})

    def test_pre_routed_path_is_held_as_flat_ids(self):
        """A pre-routed path is converted once, on commit, so rips and
        victim lookups read its stored ids instead of rebuilding them."""
        problem = partially_routed_problem()
        fixed_path = straight_path(Point(0, 3), Point(9, 3), Layer.HORIZONTAL)
        router = MightyRouter(problem)
        (connection,) = router._commit_pre_routed({"fixed": [fixed_path]})
        shape = (problem.width, problem.height)
        assert connection.path.ids_on(*shape) is connection.path.ids_on(*shape)
        assert connection.path == fixed_path
        assert hash(connection.path) == hash(fixed_path)


class TestBestState:
    def test_result_not_worse_than_naive(self):
        """With best-state keeping, Mighty's completion is >= the plain
        sequential pass on the same problem."""
        from repro.netlist.generators import random_switchbox

        for seed in (3, 5):
            spec = random_switchbox(14, 10, 12, seed=seed, fill=0.8)
            problem = spec.to_problem()
            mighty = route_problem(problem, MightyConfig())
            naive = route_problem(
                spec.to_problem(), MightyConfig.no_modification()
            )
            assert (
                mighty.stats.routed_connections
                >= naive.stats.routed_connections
            )

    def test_restored_state_verifies(self):
        from repro.netlist.generators import random_switchbox

        spec = random_switchbox(14, 10, 12, seed=5, fill=0.9)
        problem = spec.to_problem()
        result = route_problem(problem)
        report = verify_routing(problem, result.grid)
        # whatever is routed must be electrically clean
        for connection in result.connections:
            if connection.routed:
                assert report.connected_nets.get(connection.net_name, True) or True
        assert not report.errors or not result.success


class TestStatsConsistency:
    def test_counts_add_up(self):
        problem = small_switchbox().to_problem()
        result = route_problem(problem)
        stats = result.stats
        assert stats.connections == len(result.connections)
        assert (
            stats.routed_connections + stats.failed_connections
            == stats.connections
        )
        assert stats.elapsed_s >= 0

    def test_summary_mentions_outcome(self):
        problem = small_switchbox().to_problem()
        result = route_problem(problem)
        assert "COMPLETE" in result.summary()


def _run_state(result):
    """Everything a run decides: copper, paths, counters and events."""
    grid = result.grid
    shape = (grid.width, grid.height)
    counters = {
        name: value
        for name, value in result.stats.as_dict().items()
        if name != "elapsed_s" and not name.startswith("phase_")
    }
    return (
        grid.occ_flat().tobytes(),
        grid.pin_flat().tobytes(),
        grid.via_map().tobytes(),
        [
            (c.net_name, c.routed,
             None if c.path is None else list(c.path.ids_on(*shape)))
            for c in result.connections
        ],
        counters,
        result.events,
    )


def _paused_then_resumed(problem, stall_limit):
    """``route(stall_limit=...)``, finished by a plain ``route()``."""
    router = MightyRouter(problem)
    result = router.route(stall_limit=stall_limit)
    if result is None:
        paused_at = router.stats.iterations
        result = router.route()
        assert result.stats.iterations >= paused_at
    return result


_SUITE = [c for c in bench_cases() if c.name != "scale-stitch-560"]


class TestStallPause:
    """A paused and resumed run equals an uninterrupted one exactly."""

    @pytest.mark.parametrize("case", _SUITE, ids=[c.name for c in _SUITE])
    def test_engine_suite_resumes_exactly(self, case):
        plain = MightyRouter(case.build()).route()
        assert plain is not None  # no limit: the call never pauses
        expected = _run_state(plain)
        # 30 per connection pauses fig-channel in its last retry pass.
        connections = plain.stats.connections
        for stall_limit in (0, 1, 3 * connections, 30 * connections):
            resumed = _paused_then_resumed(case.build(), stall_limit)
            assert _run_state(resumed) == expected, stall_limit

    def test_fig_channel_pauses_and_reports_its_work(self):
        case = next(c for c in _SUITE if c.name == "fig-channel")
        router = MightyRouter(case.build())
        assert router.route(stall_limit=105) is None
        stats = router.stats
        assert 105 < stats.iterations < 1592  # the full run takes 1592
        assert stats.connections == 35
        assert 0 < stats.routed_connections < 35
        # The stall condition still holds, so a limited call pauses again
        # at once, doing no work.
        iterations, expansions = stats.iterations, stats.expansions
        assert router.route(stall_limit=105) is None
        assert (stats.iterations, stats.expansions) == (iterations, expansions)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        nets=st.integers(3, 9),
        fill=st.floats(0.4, 0.9),
        stall_limit=st.integers(0, 30),
    )
    def test_small_switchboxes_resume_exactly(
        self, seed, nets, fill, stall_limit
    ):
        spec = random_switchbox(9, 7, nets, seed=seed, fill=fill)
        expected = _run_state(MightyRouter(spec.to_problem()).route())
        resumed = _paused_then_resumed(spec.to_problem(), stall_limit)
        assert _run_state(resumed) == expected

    def test_single_use_after_a_result(self):
        router = MightyRouter(small_switchbox().to_problem())
        while router.route(stall_limit=0) is None:
            pass
        with pytest.raises(EngineError):
            router.route()
        with pytest.raises(EngineError):
            router.route(stall_limit=0)

    def test_resume_refuses_pre_routed(self):
        problem = partially_routed_problem()
        fixed_path = straight_path(Point(0, 3), Point(9, 3), Layer.HORIZONTAL)
        router = MightyRouter(problem)
        # A limit of -1 pauses before the first iteration.
        assert router.route(
            pre_routed={"fixed": [fixed_path]}, stall_limit=-1
        ) is None
        with pytest.raises(EngineError, match="first route"):
            router.route(pre_routed={"fixed": [fixed_path]})
        # The refused call changed nothing: the run still resumes.
        assert router.route().success


def _recount_checked(router):
    """``router`` with every event checked against a recount.

    The router keeps a running routed count instead of scanning its
    connections; each event's ``open_connections`` must still equal a
    count of the connections not routed at the moment it is recorded.
    """
    record = router._record

    def checked(kind, net, detail=""):
        record(kind, net, detail)
        event = router._events[-1]
        open_now = sum(not c.routed for c in router._all_connections)
        assert event.open_connections == open_now, event

    router._record = checked
    return router


def _assert_final_count(result):
    routed = sum(c.routed for c in result.connections)
    assert result.stats.routed_connections == routed
    assert result.stats.failed_connections == len(result.failed)
    assert routed + len(result.failed) == result.stats.connections


_VARIANTS = {
    "mighty": MightyConfig,
    "weak-only": MightyConfig.weak_only,
    "strong-only": MightyConfig.strong_only,
    "no-modification": MightyConfig.no_modification,
}
_ALL_CASES = bench_cases()


class TestRoutedCount:
    """The running routed count equals a recount at every event."""

    @pytest.mark.parametrize("variant", list(_VARIANTS))
    @pytest.mark.parametrize(
        "case", _ALL_CASES, ids=[c.name for c in _ALL_CASES]
    )
    def test_events_match_a_recount(self, case, variant):
        router = MightyRouter(case.build(), _VARIANTS[variant]())
        result = _recount_checked(router).route()
        _assert_final_count(result)

    def test_fig_channel_paused_and_resumed(self):
        # Weak rejections undo rips and the run ends below its best, so
        # both the undo and the best-state restore move the count.
        case = next(c for c in _ALL_CASES if c.name == "fig-channel")
        router = _recount_checked(MightyRouter(case.build()))
        assert router.route(stall_limit=105) is None
        paused = router.stats
        assert paused.routed_connections == sum(
            c.routed for c in router._all_connections
        )
        result = router.route()
        _assert_final_count(result)
        assert result.stats.weak_rejections > 0
        assert [e.kind for e in result.events].count("restore") == 1
