"""Tests for the convergence-trace analysis."""

from repro.core import MightyConfig, route_problem
from repro.core.trace import convergence_series, modification_activity
from repro.netlist.generators import random_switchbox
from repro.netlist.instances import small_switchbox


def _easy_result():
    return route_problem(small_switchbox().to_problem())


def _hard_result():
    spec = random_switchbox(14, 10, 14, seed=5, fill=0.85)
    return route_problem(spec.to_problem())


class TestConvergenceSeries:
    def test_series_covers_events(self):
        result = _easy_result()
        series = convergence_series(result)
        assert len(series.points) == len(result.events)

    def test_complete_run_ends_at_zero_open(self):
        result = _easy_result()
        assert result.success
        assert convergence_series(result).final_open == 0

    def test_ripup_makes_progress_non_monotone(self):
        result = _hard_result()
        series = convergence_series(result)
        if result.stats.strong_modifications > 0:
            assert not series.strictly_monotone()
        assert series.peak_open >= series.final_open

    def test_subsampling(self):
        result = _hard_result()
        series = convergence_series(result)
        full = series.as_rows(stride=1)
        half = series.as_rows(stride=2)
        assert len(half) <= len(full) // 2 + 1
        assert half[0] == full[0]

    def test_empty_series(self):
        from repro.core.trace import ConvergenceSeries

        empty = ConvergenceSeries()
        assert empty.final_open == 0
        assert empty.peak_open == 0
        assert empty.strictly_monotone()


class TestActivity:
    def test_no_modification_run_has_no_activity(self):
        result = route_problem(
            small_switchbox().to_problem(), MightyConfig.no_modification()
        )
        activity = modification_activity(result)
        assert "weak" not in activity and "strong" not in activity

    def test_hard_run_records_strong_steps(self):
        result = _hard_result()
        activity = modification_activity(result)
        if result.stats.strong_modifications:
            assert len(activity["strong"]) == (
                result.stats.strong_modifications
            )
            assert activity["strong"] == sorted(activity["strong"])
