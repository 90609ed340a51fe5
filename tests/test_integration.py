"""End-to-end integration tests: spec -> router -> verifier -> metrics.

These are the "does the whole machine hang together" tests: every path goes
through the public API exactly as the examples and benchmarks do.
"""

from repro import (
    MightyConfig,
    layout_metrics,
    route_problem,
    verify_routing,
)
from repro.channels import (
    DoglegRouter,
    GreedyRouter,
    LeftEdgeRouter,
    MightyChannelRouter,
    YacrLiteRouter,
)
from repro.netlist.generators import (
    random_channel,
    random_region_problem,
    woven_switchbox,
)
from repro.netlist.instances import obstacle_region_problem
from repro.switchbox import minimum_routable_width


class TestChannelPipeline:
    def test_all_routers_agree_on_verification(self):
        spec = random_channel(
            20, 7, seed=21, target_density=4, allow_vcg_cycles=False
        )
        routers = [
            LeftEdgeRouter(),
            DoglegRouter(),
            GreedyRouter(),
            YacrLiteRouter(),
            MightyChannelRouter(),
        ]
        track_counts = {}
        for router in routers:
            result = router.route_min_tracks(spec)
            assert result.success, f"{router.name}: {result.reason}"
            assert result.verification is not None and result.verification.ok
            track_counts[router.name] = result.tracks
        # the rip-up router is never the worst
        assert track_counts["mighty"] <= max(track_counts.values())
        # nobody beats the density lower bound
        assert all(t >= spec.density for t in track_counts.values())

    def test_min_track_search_monotone(self):
        spec = random_channel(
            16, 6, seed=5, target_density=4, allow_vcg_cycles=False
        )
        router = LeftEdgeRouter()
        best = router.route_min_tracks(spec)
        assert best.success
        if best.tracks > spec.density:
            worse = router.route(spec, best.tracks - 1)
            assert not worse.success

    def test_tracks_used_never_exceeds_given(self):
        spec = random_channel(
            16, 6, seed=5, target_density=4, allow_vcg_cycles=False
        )
        result = MightyChannelRouter().route_min_tracks(spec)
        assert result.success
        assert result.tracks_used <= result.tracks


class TestSwitchboxPipeline:
    def test_route_verify_measure(self):
        spec = woven_switchbox(14, 10, 10, seed=6, tangle=0.5)
        problem = spec.to_problem()
        result = route_problem(problem, MightyConfig())
        assert result.success
        report = verify_routing(problem, result.grid)
        assert report.ok
        metrics = layout_metrics(problem, result.grid)
        assert metrics.wire_cells > 0
        assert metrics.via_count >= 0

    def test_width_sweep_end_to_end(self):
        spec = woven_switchbox(12, 9, 8, seed=2, tangle=0.4)
        outcome = minimum_routable_width(spec, MightyConfig())
        assert outcome.completed[0]  # the original box completes
        for result, done in zip(outcome.results, outcome.completed):
            if done:
                assert verify_routing(result.problem, result.grid).ok


class TestRegionPipeline:
    def test_irregular_region_with_interior_pins(self):
        problem = random_region_problem(seed=12, n_nets=6)
        result = route_problem(problem)
        report = verify_routing(problem, result.grid)
        if result.success:
            assert report.ok
        # whatever routed must be clean copper
        assert not [
            e for e in report.errors if "collid" in e or "stolen" in e
        ]

    def test_partial_routing_then_completion(self):
        """Pre-route one net, then let the router finish (and possibly
        rip the pre-route) — the 'partially routed areas' claim."""
        from repro.geometry import Point
        from repro.grid import Layer
        from repro.grid.path import straight_path
        from repro.netlist.instances import partially_routed_problem

        problem = partially_routed_problem()
        fixed = straight_path(Point(0, 3), Point(9, 3), Layer.HORIZONTAL)
        result = route_problem(problem, pre_routed={"fixed": [fixed]})
        assert result.success
        assert verify_routing(problem, result.grid).ok

    def test_obstacle_region_all_routers_verify(self):
        problem = obstacle_region_problem()
        for config in (
            MightyConfig(),
            MightyConfig.weak_only(),
            MightyConfig.strong_only(),
        ):
            result = route_problem(problem, config)
            assert result.success
            assert verify_routing(problem, result.grid).ok


class TestDeterminism:
    def test_same_seed_same_result(self):
        spec = woven_switchbox(12, 9, 8, seed=4, tangle=0.5)
        a = route_problem(spec.to_problem(), MightyConfig())
        b = route_problem(spec.to_problem(), MightyConfig())
        assert a.success == b.success
        assert a.stats.iterations == b.stats.iterations
        assert layout_metrics(spec.to_problem(), a.grid).wire_cells == (
            layout_metrics(spec.to_problem(), b.grid).wire_cells
        )

    def test_channel_router_deterministic(self):
        spec = random_channel(20, 7, seed=21, target_density=4)
        a = YacrLiteRouter().route_min_tracks(spec)
        b = YacrLiteRouter().route_min_tracks(spec)
        assert a.tracks == b.tracks
        assert a.tracks_used == b.tracks_used
