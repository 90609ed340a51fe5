"""Chaos and resilience tests for the routing engine layer.

These tests use the deterministic fault-injection harness
(:mod:`repro.testing.faults`) to break the router on a precise schedule and
check the engine's contract: no exception ever escapes
:meth:`RoutingEngine.route`, the returned result is internally consistent,
and its routed subset passes independent verification.
"""

import pytest

from repro.analysis import verify_result
from repro.core import MightyConfig, MightyRouter, route_problem
from repro.core.config import ORDERINGS
from repro.engine import (
    Deadline,
    EngineConfig,
    RoutingEngine,
    escalated_config,
    escalation_schedule,
)
from repro.netlist.generators import random_channel, random_switchbox
from repro.netlist.instances import simple_channel, small_switchbox
from repro.netlist.net import Net, Pin
from repro.netlist.problem import RoutingProblem
from repro.testing import FaultInjector, FaultPlan, StepClock


@pytest.fixture
def box_problem():
    return small_switchbox().to_problem()


class TestDeadline:
    def test_unlimited_never_expires(self):
        deadline = Deadline()
        assert not deadline.expired()
        assert deadline.remaining() is None

    def test_zero_budget_expires_immediately(self):
        assert Deadline(0).expired()

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-1)

    def test_step_clock_is_deterministic(self):
        clock = StepClock(step=1.0)
        deadline = Deadline(2.0, clock=clock)
        assert not deadline.expired()  # elapsed 1.0
        assert deadline.expired()  # elapsed 2.0
        assert deadline.expired()  # stays expired


class TestRouterDeadline:
    def test_zero_deadline_skips_main_loop(self, box_problem):
        # regression: an already-expired deadline must be honored before
        # the first connection is popped, not after
        result = MightyRouter(box_problem, MightyConfig()).route(
            deadline=Deadline(0)
        )
        assert result.stats.iterations == 0
        assert result.stats.timed_out
        assert not result.success
        assert result.status in ("partial", "failed")

    def test_route_problem_threads_deadline(self, box_problem):
        result = route_problem(box_problem, deadline=Deadline(0))
        assert result.stats.timed_out
        assert result.stats.deadline_s == 0

    def test_generous_deadline_changes_nothing(self, box_problem):
        result = route_problem(box_problem, deadline=Deadline(300))
        assert result.success
        assert not result.stats.timed_out
        assert result.status == "complete"


class TestEscalationPolicy:
    def test_attempt_zero_is_base(self):
        base = MightyConfig()
        assert escalated_config(base, 0) is base

    def test_orderings_rotate_without_repeat(self):
        base = MightyConfig()
        seen = [
            escalated_config(base, n).ordering
            for n in range(len(ORDERINGS))
        ]
        assert sorted(seen) == sorted(ORDERINGS)

    def test_budgets_escalate_monotonically(self):
        base = MightyConfig()
        configs = list(escalation_schedule(base, 4))
        rips = [c.max_rips_per_net for c in configs]
        assert rips == sorted(rips) and rips[0] < rips[-1]

    def test_ablation_toggles_preserved(self):
        base = MightyConfig.weak_only()
        late = escalated_config(base, 3)
        assert late.enable_weak and not late.enable_strong

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            escalated_config(MightyConfig(), -1)


class TestEngineHappyPath:
    def test_routes_clean_problem(self, box_problem):
        result = RoutingEngine().route(box_problem)
        assert result.success
        assert result.status == "complete"
        assert len(result.stats.attempt_log) == 1
        assert result.stats.attempt_log[0]["verified"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(max_attempts=0)
        with pytest.raises(ValueError):
            EngineConfig(deadline_s=-1)


class TestEngineUnderChaos:
    def test_partial_result_is_verified(self, box_problem):
        # the searcher dies after 2 searches: whatever routed before the
        # fault must come back as a verified partial result, no exception
        plan = FaultPlan(fail_searches_after=3)
        engine = RoutingEngine(EngineConfig(max_attempts=1))
        with FaultInjector(plan) as chaos:
            result = engine.route(box_problem)
        assert chaos.failed_searches > 0
        assert not result.success
        assert result.status in ("partial", "failed")
        if result.stats.routed_connections:
            assert result.status == "partial"
        # the routed subset verifies cleanly with known-open nets waived
        report = verify_result(result.problem, result)
        assert report.ok
        assert report.waived_open == sorted(
            {c.net_name for c in result.failed}
        )

    def test_crashing_searches_become_telemetry(self, box_problem):
        plan = FaultPlan(fail_searches_after=1, raise_search_errors=True)
        engine = RoutingEngine(EngineConfig(max_attempts=2))
        with FaultInjector(plan):
            result = engine.route(box_problem)  # must not raise
        assert result.status == "failed"
        assert result.stats.routed_connections == 0
        assert len(result.stats.attempt_log) == 2
        for record in result.stats.attempt_log:
            assert "injected search fault" in record["error"]

    def test_retries_survive_intermittent_faults(self, box_problem):
        # every 7th search silently fails; the router's own retry passes
        # plus the engine's escalated attempts must still converge
        plan = FaultPlan(fail_searches_every=7)
        engine = RoutingEngine(EngineConfig(max_attempts=3))
        with FaultInjector(plan) as chaos:
            result = engine.route(box_problem)
        assert chaos.failed_searches > 0
        assert result.success
        assert verify_result(result.problem, result).ok

    def test_slowdown_trips_deadline(self, box_problem):
        plan = FaultPlan(slow_search_s=0.05)
        engine = RoutingEngine(
            EngineConfig(deadline_s=0.04, max_attempts=3)
        )
        with FaultInjector(plan):
            result = engine.route(box_problem)
        assert result.stats.timed_out
        assert result.stats.deadline_s == 0.04
        assert not result.success

    @pytest.mark.parametrize(
        "config, step",
        [(MightyConfig(), "weak"), (MightyConfig.strong_only(), "strong")],
    )
    def test_zero_victim_plan_commits_the_path(self, config, step):
        # Two connections in an open box.  The plan fails the second
        # connection's hard search, so its soft search finds a path that
        # crosses no other net: a plan with no victims.  The modification
        # step displaces nothing and commits that path.
        problem = RoutingProblem(
            width=8,
            height=6,
            nets=[
                Net("a", (Pin(0, 0), Pin(3, 0))),
                Net("b", (Pin(0, 5), Pin(7, 5))),
            ],
        )
        engine = RoutingEngine(EngineConfig(max_attempts=1), config)
        with FaultInjector(FaultPlan(fail_searches_every=2)) as chaos:
            result = engine.route(problem)
        assert chaos.failed_searches == 1
        assert result.success and result.status == "complete"
        assert verify_result(result.problem, result).ok
        assert result.stats.ripped_connections == 0
        assert [(e.kind, e.net) for e in result.events] == [
            ("route", "a"), (step, "b")
        ]


class TestFallbackCascade:
    def test_classical_fallback_rescues_channel(self):
        # Mighty is fully disabled by fault injection, but the greedy
        # fallback does not use the maze searcher and completes
        spec = simple_channel()
        tracks = 4
        problem = spec.to_problem(tracks)
        engine = RoutingEngine(EngineConfig(max_attempts=1))
        with FaultInjector(FaultPlan(fail_searches_after=1)):
            result = engine.route(
                problem, channel_spec=spec, tracks=tracks
            )
        assert result.success
        assert result.router.startswith("fallback-")
        assert result.status == "complete"
        # judged against the (possibly extended) problem it actually solved
        assert verify_result(result.problem, result).ok
        # The fallback's record is filled like the Mighty attempt's.
        mighty, greedy = result.stats.attempt_log
        assert greedy["stage"] == "fallback-greedy"
        assert set(greedy) == set(mighty)
        assert greedy["stop"] == "complete" and greedy["verified"] is True
        assert greedy["routed"] == greedy["connections"]
        assert greedy["routed"] == result.stats.connections > 0

    def test_fallback_without_a_layout_is_incomplete(self):
        # At one track neither channel router builds a layout.
        spec = simple_channel()
        engine = RoutingEngine(EngineConfig(max_attempts=1))
        with FaultInjector(FaultPlan(fail_searches_after=1)):
            result = engine.route(
                spec.to_problem(1), channel_spec=spec, tracks=1
            )
        assert not result.success
        greedy, yacr = result.stats.attempt_log[1:]
        assert (greedy["stage"], yacr["stage"]) == (
            "fallback-greedy",
            "fallback-yacr-lite",
        )
        for record in (greedy, yacr):
            assert record["stop"] == "incomplete"
            assert record["routed"] == 0
            assert record["connections"] == result.stats.connections
        assert greedy["error"].startswith("stuck at column")
        assert yacr["error"] == "no track packing"

    def test_unverified_channel_success_is_not_returned(self, monkeypatch):
        """A channel router that reports success on a layout failing
        verification is a rejected attempt, never the result."""
        from repro.channels.greedy import GreedyRouter
        from repro.channels.yacr_lite import YacrLiteRouter
        from repro.grid.path import GridPath
        from repro.grid.routing_grid import FREE

        real_route = GreedyRouter.route

        def shorted(self, spec, tracks):
            channel = real_route(GreedyRouter(), spec, tracks)
            assert channel.success
            # Copper of a net the problem does not have: every connection
            # is still joined, but the layout is not a legal routing.
            grid = channel.grid
            cell = list(grid.occ_flat()).index(FREE)
            stray = GridPath.from_ids([cell], grid.width, grid.height)
            grid.commit_path(len(channel.problem.nets) + 1, stray)
            channel.router = self.name
            return channel

        monkeypatch.setattr(GreedyRouter, "route", shorted)
        monkeypatch.setattr(YacrLiteRouter, "route", shorted)
        spec = simple_channel()
        engine = RoutingEngine(EngineConfig(max_attempts=1))
        with FaultInjector(FaultPlan(fail_searches_after=1)):
            result = engine.route(
                spec.to_problem(4), channel_spec=spec, tracks=4
            )
        assert result.status != "complete"
        assert not result.router.startswith("fallback-")
        fallbacks = result.stats.attempt_log[1:]
        assert len(fallbacks) == 2
        for record in fallbacks:
            assert record["verified"] is False
            assert "unknown net id" in record["error"]

    def test_no_fallback_without_channel_spec(self, box_problem):
        engine = RoutingEngine(EngineConfig(max_attempts=1))
        with FaultInjector(FaultPlan(fail_searches_after=1)):
            result = engine.route(box_problem)
        stages = [r["stage"] for r in result.stats.attempt_log]
        assert all(not s.startswith("fallback-") for s in stages)

    def test_no_fallback_for_a_channel_routed_without_its_spec(self):
        """A channel problem routed without its spec, as `repro route`
        without --deadline/--max-attempts and the daemon's workers route
        it, gets no fallback: the spec alone enables the cascade."""
        spec = simple_channel()
        engine = RoutingEngine(EngineConfig(max_attempts=1))
        with FaultInjector(FaultPlan(fail_searches_after=1)):
            result = engine.route(spec.to_problem(4))
        assert not result.success
        stages = [r["stage"] for r in result.stats.attempt_log]
        assert stages == ["mighty"]


class TestCheckpointResume:
    def test_checkpoint_round_trip(self, box_problem, tmp_path):
        from repro.core.serialize import load_checkpoint, save_checkpoint

        first = route_problem(box_problem)
        assert first.success
        dump = tmp_path / "checkpoint.json"
        save_checkpoint(dump, first)
        problem, pre_routed = load_checkpoint(dump)
        assert pre_routed  # every routed net carried over
        resumed = RoutingEngine().route(problem, pre_routed=pre_routed)
        assert resumed.success
        assert verify_result(problem, resumed).ok


def _fig_channel():
    spec = random_channel(28, 10, seed=23)
    return spec.to_problem(max(1, spec.density))


def _cold_channel(seed):
    spec = random_channel(28, 10, seed=seed)
    return spec.to_problem(max(1, spec.density) + 1)


def _cold_box(seed):
    return random_switchbox(14, 10, 10, seed=seed, fill=0.6).to_problem()


#: ``(id, problem builder, max_attempts, how the engine ends)``: a probe
#: completes, a resumed attempt completes, or nothing completes.
_SCHEDULE_CASES = [
    ("fig-channel", _fig_channel, 3, "probe"),
    ("chan-1008", lambda: _cold_channel(1008), 2, "probe"),
    ("rsb-1011", lambda: _cold_box(1011), 2, "probe"),
    # Both sit at one open connection for hundreds of iterations and
    # complete only in attempt 0's last retry pass.
    ("rsb-1003", lambda: _cold_box(1003), 2, "resume"),
    ("rsb-1018", lambda: _cold_box(1018), 2, "resume"),
    # Neither completes under any attempt: the engine does the plain
    # schedule's whole work (287,660 and 224,429 expansions).
    ("rsb-1008", lambda: _cold_box(1008), 2, "none"),
    ("rsb-1037", lambda: _cold_box(1037), 2, "none"),
]


def _plain_schedule(build, max_attempts):
    """Each scheduled configuration run to its end, up to the first
    complete one: the cascade as it ran before probes."""
    results = []
    for config in escalation_schedule(MightyConfig(), max_attempts):
        results.append(MightyRouter(build(), config).route())
        if results[-1].success:
            break
    return results


def _outcome(result):
    """The routing a result holds: copper, paths and counters."""
    grid = result.grid
    shape = (grid.width, grid.height)
    counters = {
        name: value
        for name, value in result.stats.as_dict().items()
        if name not in ("elapsed_s", "deadline_s")
        and not name.startswith("phase_")
    }
    return (
        grid.occ_flat().tobytes(),
        grid.via_map().tobytes(),
        [
            (c.net_name, c.routed,
             None if c.path is None else list(c.path.ids_on(*shape)))
            for c in result.connections
        ],
        counters,
    )


class TestProbeAndResume:
    """The engine probes each configuration under a stall limit and
    resumes paused attempts only if no probe completes."""

    @pytest.mark.parametrize(
        "build, max_attempts, ending",
        [case[1:] for case in _SCHEDULE_CASES],
        ids=[case[0] for case in _SCHEDULE_CASES],
    )
    def test_matches_the_plain_schedule(self, build, max_attempts, ending):
        plain = _plain_schedule(build, max_attempts)
        engine = RoutingEngine(EngineConfig(max_attempts=max_attempts))
        result = engine.route(build())
        log = result.stats.attempt_log
        # Complete exactly when some scheduled configuration completes.
        assert result.success == plain[-1].success
        assert verify_result(result.problem, result).ok
        if ending == "probe":
            assert result.success and log[-1]["stalled_at"] is None
            return
        if ending == "resume":
            assert result.success and log[-1]["stalled_at"] is not None
            expected = plain[-1]
        else:
            assert not result.success
            expected = max(
                plain, key=lambda r: r.stats.routed_connections
            )  # most routed, earliest on ties
            # Every attempt ran to its end: exactly the plain work.
            assert sum(rec["expansions"] for rec in log) == sum(
                r.stats.expansions for r in plain
            )
            assert sum(rec["iterations"] for rec in log) == sum(
                r.stats.iterations for r in plain
            )
        assert _outcome(result) == _outcome(expected)
        assert result.events == expected.events

    def test_fig_channel_records(self):
        result = RoutingEngine().route(_fig_channel())
        first, last = result.stats.attempt_log
        assert (first["attempt"], first["stop"]) == (0, "stalled")
        assert first["stalled_at"] == first["iterations"] > 0
        assert first["expansions"] > 0 and not first["verified"]
        assert (last["attempt"], last["stop"]) == (1, "complete")
        assert last["stalled_at"] is None and last["verified"]
        assert last["iterations"] == result.stats.iterations

    def test_resumed_winner_is_logged_last(self):
        result = RoutingEngine(EngineConfig(max_attempts=2)).route(
            _cold_box(1003)
        )
        log = result.stats.attempt_log
        assert [rec["attempt"] for rec in log] == [1, 0]
        assert log[0]["stop"] == "stalled"
        assert log[1]["stop"] == "complete"
        assert log[1]["iterations"] > log[1]["stalled_at"] > 0
        assert log[1]["iterations"] == result.stats.iterations

    @pytest.mark.parametrize(
        "build", [_fig_channel, lambda: _cold_box(1011)],
        ids=["fig-channel", "rsb-1011"],
    )
    def test_one_attempt_equals_route_problem(self, build):
        engine = RoutingEngine(EngineConfig(max_attempts=1))
        result = engine.route(build())
        expected = route_problem(build())
        assert _outcome(result) == _outcome(expected)
        (record,) = result.stats.attempt_log
        assert record["stalled_at"] is None
        assert record["stop"] in ("complete", "incomplete")

    def test_deadline_mid_probe_keeps_the_paused_best(self):
        # On a clock that advances one second per reading, probe 0 pauses
        # at iteration 173 and probe 1 runs out of time 30 iterations in.
        engine = RoutingEngine(
            EngineConfig(deadline_s=210), clock=StepClock(1.0)
        )
        result = engine.route(_fig_channel())
        first, second = result.stats.attempt_log
        assert first["stalled_at"] is not None
        assert first["stop"] == second["stop"] == "timeout"
        assert result.stats.timed_out and result.status == "partial"
        assert verify_result(result.problem, result).ok
        # Probe 0's best state up to its pause, restored by an expired
        # deadline.
        router = MightyRouter(_fig_channel())
        assert router.route(stall_limit=105) is None
        paused_best = router.route(deadline=Deadline(0))
        assert first["routed"] == paused_best.stats.routed_connections
        assert (
            result.stats.routed_connections
            >= paused_best.stats.routed_connections
            > second["routed"]
        )
