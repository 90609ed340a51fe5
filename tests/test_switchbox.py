"""Tests for switchbox routing and the minimum-width sweep."""

from repro.analysis import verify_routing
from repro.core import MightyConfig, route_problem
from repro.engine.deadline import Deadline
from repro.netlist.generators import woven_switchbox
from repro.netlist.instances import crossing_switchbox, small_switchbox
from repro.switchbox import minimum_routable_width, shrinking_sequence
from repro.switchbox.sweep import STOP_AFTER_FAILURES
from repro.testing.faults import StepClock


class TestRouteSwitchbox:
    def test_small_box_completes(self):
        spec = small_switchbox()
        result = route_problem(spec.to_problem(), MightyConfig())
        assert result.success
        assert verify_routing(spec.to_problem(), result.grid).ok

    def test_naive_uses_no_modification(self):
        spec = small_switchbox()
        result = route_problem(
            spec.to_problem(), MightyConfig.no_modification()
        )
        assert result.stats.weak_modifications == 0
        assert result.stats.strong_modifications == 0

    def test_custom_config(self):
        spec = crossing_switchbox()
        result = route_problem(
            spec.to_problem(), MightyConfig(ordering="longest")
        )
        assert result.success

    def test_mighty_at_least_as_good_as_naive(self):
        for seed in (1, 2, 3):
            spec = woven_switchbox(12, 9, 10, seed=seed, tangle=0.5)
            mighty = route_problem(spec.to_problem(), MightyConfig())
            naive = route_problem(
                spec.to_problem(), MightyConfig.no_modification()
            )
            assert (
                mighty.stats.routed_connections
                >= naive.stats.routed_connections
            )

    def test_woven_boxes_complete(self):
        """Feasible-by-construction boxes must complete under rip-up."""
        for seed in (1, 2, 3, 4):
            spec = woven_switchbox(12, 9, 10, seed=seed, tangle=0.5)
            result = route_problem(spec.to_problem(), MightyConfig())
            assert result.success, spec.name
            assert verify_routing(spec.to_problem(), result.grid).ok


class TestShrinkingSequence:
    def test_first_is_original(self):
        spec = small_switchbox()
        sequence = shrinking_sequence(spec)
        assert sequence[0] is spec

    def test_monotone_widths(self):
        sequence = shrinking_sequence(small_switchbox())
        widths = [s.width for s in sequence]
        assert widths == sorted(widths, reverse=True)
        assert all(a - b == 1 for a, b in zip(widths, widths[1:]))

    def test_stops_when_no_empty_columns(self):
        sequence = shrinking_sequence(small_switchbox())
        assert not sequence[-1].empty_columns()

    def test_deterministic(self):
        a = shrinking_sequence(small_switchbox())
        b = shrinking_sequence(small_switchbox())
        assert [s.width for s in a] == [s.width for s in b]
        assert [s.top for s in a] == [s.top for s in b]

    def test_pins_preserved(self):
        for shrunk in shrinking_sequence(small_switchbox()):
            assert shrunk.pin_count == small_switchbox().pin_count


class TestMinimumWidthSweep:
    def test_outcome_structure(self):
        spec = woven_switchbox(12, 9, 8, seed=3, tangle=0.4)
        outcome = minimum_routable_width(spec, MightyConfig())
        assert outcome.router == "mighty"
        assert len(outcome.widths) == len(outcome.completed)
        assert outcome.widths[0] == spec.width

    def test_min_completed_width(self):
        spec = woven_switchbox(12, 9, 8, seed=3, tangle=0.4)
        outcome = minimum_routable_width(spec, MightyConfig())
        if any(outcome.completed):
            assert outcome.min_completed_width is not None
            assert outcome.min_completed_width <= spec.width
        else:
            assert outcome.min_completed_width is None

    def test_early_stop_after_failures(self):
        """The no-modification router fails widths before the sequence
        runs out; the first ``STOP_AFTER_FAILURES`` consecutive failures
        end the sweep."""
        spec = woven_switchbox(12, 9, 8, seed=3, tangle=0.4)
        outcome = minimum_routable_width(spec, MightyConfig.no_modification())
        done, k = outcome.completed, STOP_AFTER_FAILURES
        assert done[-k:] == [False] * k
        assert all(True in done[i:i + k] for i in range(len(done) - k))
        assert len(outcome.widths) < len(shrinking_sequence(spec))

    def test_expired_deadline_routes_nothing(self):
        # StepClock makes the 0-budget deadline expire deterministically.
        deadline = Deadline(0.0, clock=StepClock(1.0))
        spec = woven_switchbox(12, 9, 8, seed=3, tangle=0.4)
        outcome = minimum_routable_width(
            spec, MightyConfig(), deadline=deadline
        )
        assert outcome.widths == []
        assert outcome.min_completed_width is None

    def test_mighty_not_wider_than_naive(self):
        """The paper's shape: rip-up completes in a box at most as wide as
        the no-modification baseline needs."""
        spec = woven_switchbox(14, 10, 12, seed=8, tangle=0.4)
        mighty = minimum_routable_width(spec, MightyConfig())
        naive = minimum_routable_width(spec, MightyConfig.no_modification())
        if naive.min_completed_width is not None:
            assert mighty.min_completed_width is not None
            assert mighty.min_completed_width <= naive.min_completed_width
