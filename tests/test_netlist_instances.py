"""Unit tests for the hand-authored classic-style instances."""

from repro.netlist.instances import (
    contention_switchbox,
    corner_turn_switchbox,
    crossing_switchbox,
    dogleg_channel,
    obstacle_region_problem,
    partially_routed_problem,
    simple_channel,
    small_switchbox,
    staircase_channel,
    straight_channel,
    terminal_intensive_switchbox,
    two_sided_congestion_channel,
    vcg_cycle_channel,
)


class TestChannels:
    def test_simple_channel_properties(self):
        spec = simple_channel()
        assert spec.density == 3
        assert not spec.has_vcg_cycle()
        assert spec.vcg_longest_path() == 5

    def test_straight_channel_is_trivial(self):
        spec = straight_channel()
        assert spec.density == 0
        assert spec.vcg_edges() == set()

    def test_vcg_cycle_channel_really_cycles(self):
        spec = vcg_cycle_channel()
        assert spec.has_vcg_cycle()
        assert spec.density == 2

    def test_dogleg_channel_shape(self):
        spec = dogleg_channel()
        assert spec.density == 2
        assert not spec.has_vcg_cycle()
        # the designed chain: 1 above 3, 3 above 2
        assert spec.vcg_edges() == {(1, 3), (3, 2)}
        # net 3 has an interior pin (three pins over three columns)
        assert len(spec.pins_of(3)) == 3


class TestNewChannels:
    def test_staircase_chain(self):
        spec = staircase_channel()
        assert not spec.has_vcg_cycle()
        assert spec.vcg_longest_path() == 5
        assert spec.density <= 3

    def test_staircase_left_edge_pays_the_chain(self):
        from repro.channels import LeftEdgeRouter, MightyChannelRouter

        spec = staircase_channel()
        lea = LeftEdgeRouter().route_min_tracks(spec)
        mighty = MightyChannelRouter().route_min_tracks(spec)
        assert lea.success and mighty.success
        assert lea.tracks == 5  # the chain depth
        assert mighty.tracks < lea.tracks

    def test_hump_profile_peaks_in_middle(self):
        spec = two_sided_congestion_channel()
        profile = spec.density_profile()
        middle = max(profile[2:6])
        assert middle == spec.density
        assert profile[0] < middle


class TestNewSwitchboxes:
    def test_terminal_intensive_fully_packed(self):
        spec = terminal_intensive_switchbox()
        assert spec.empty_columns() == []
        assert spec.pin_count == 2 * spec.width + 2 * spec.height

    def test_terminal_intensive_routes(self):
        from repro.core import route_problem

        problem = terminal_intensive_switchbox().to_problem()
        result = route_problem(problem)
        assert result.success

    def test_corner_turn_routes_and_uses_vias(self):
        from repro.analysis import layout_metrics
        from repro.core import route_problem

        problem = corner_turn_switchbox().to_problem()
        result = route_problem(problem)
        assert result.success
        metrics = layout_metrics(problem, result.grid)
        assert metrics.via_count >= 1  # corners force layer changes


class TestSwitchboxes:
    def test_all_lower_to_valid_problems(self):
        for spec in (small_switchbox(), crossing_switchbox(), contention_switchbox()):
            problem = spec.to_problem()
            assert problem.width == spec.width
            assert all(net.is_routable for net in problem.routable_nets)

    def test_crossing_needs_two_layers(self):
        spec = crossing_switchbox()
        # the two nets' bounding boxes overlap: they must cross somewhere
        problem = spec.to_problem()
        assert len(problem.nets) == 2


class TestRegionProblems:
    def test_obstacle_region_problem_valid(self):
        problem = obstacle_region_problem()
        assert problem.region is not None
        assert problem.region.is_connected()
        assert len(problem.obstacles) == 1

    def test_interior_pin_present(self):
        problem = obstacle_region_problem()
        b = next(net for net in problem.nets if net.name == "b")
        interior = [
            p
            for p in b.pins
            if 0 < p.x < problem.width - 1 and 0 < p.y < problem.height - 1
        ]
        assert interior

    def test_partially_routed_problem(self):
        problem = partially_routed_problem()
        assert {net.name for net in problem.nets} == {"fixed", "a", "b"}
