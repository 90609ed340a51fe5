"""Tests for the Luk-style greedy switchbox router."""

import pytest

from repro.netlist import SwitchboxSpec
from repro.netlist.generators import woven_switchbox
from repro.netlist.instances import crossing_switchbox, small_switchbox
from repro.switchbox.greedy_box import GreedySwitchboxRouter


@pytest.fixture
def router():
    return GreedySwitchboxRouter()


class TestEasyBoxes:
    def test_crossing_box(self, router):
        result = router.route(crossing_switchbox())
        assert result.success, result.reason
        assert result.verification is not None and result.verification.ok

    def test_small_box(self, router):
        result = router.route(small_switchbox())
        assert result.success, result.reason

    def test_left_to_right_net(self, router):
        spec = SwitchboxSpec(
            width=6, height=4,
            top=(0,) * 6, bottom=(0,) * 6,
            left=(0, 1, 0, 0), right=(0, 0, 1, 0),
            name="steer1",
        )
        result = router.route(spec)
        assert result.success, result.reason

    def test_steering_crossing_nets(self, router):
        """Two left-right nets that must swap rows."""
        spec = SwitchboxSpec(
            width=8, height=5,
            top=(0,) * 8, bottom=(0,) * 8,
            left=(0, 1, 0, 2, 0), right=(0, 2, 0, 1, 0),
            name="swap",
        )
        result = router.route(spec)
        assert result.success, result.reason

    def test_top_bottom_only(self, router):
        spec = SwitchboxSpec(
            width=6, height=5,
            top=(1, 0, 2, 0, 0, 0), bottom=(0, 1, 0, 2, 0, 0),
            left=(0,) * 5, right=(0,) * 5,
            name="tb",
        )
        result = router.route(spec)
        assert result.success, result.reason

    def test_multi_right_pins(self, router):
        spec = SwitchboxSpec(
            width=7, height=6,
            top=(0,) * 7, bottom=(0,) * 7,
            left=(0, 1, 0, 0, 0, 0), right=(0, 1, 0, 1, 0, 0),
            name="fanout",
        )
        result = router.route(spec)
        assert result.success, result.reason


class TestHonesty:
    def test_success_implies_verification(self, router):
        """Whenever the router claims success, the layout verifies."""
        for seed in range(1, 10):
            spec = woven_switchbox(12, 9, 8, seed=seed, tangle=0.4)
            result = router.route(spec)
            if result.success:
                assert result.verification is not None
                assert result.verification.ok

    def test_failures_carry_reasons(self, router):
        failures = 0
        for seed in range(1, 12):
            spec = woven_switchbox(14, 10, 12, seed=seed, tangle=0.6)
            result = router.route(spec)
            if not result.success:
                failures += 1
                assert result.reason
        # the point of the baseline: it does fail where rip-up would not
        assert failures >= 1

    def test_weaker_than_mighty(self, router):
        """The published comparison: the greedy baseline completes a strict
        subset of what the rip-up router completes."""
        from repro.core import MightyConfig, route_problem

        greedy_wins = mighty_wins = 0
        for seed in range(1, 8):
            spec = woven_switchbox(12, 9, 8, seed=seed, tangle=0.4)
            greedy = router.route(spec).success
            mighty = route_problem(spec.to_problem(), MightyConfig()).success
            greedy_wins += int(greedy and not mighty)
            mighty_wins += int(mighty and not greedy)
        assert greedy_wins == 0
        assert mighty_wins >= 1

    def test_summary(self, router):
        result = router.route(crossing_switchbox())
        assert "luk-greedy" in result.summary()
