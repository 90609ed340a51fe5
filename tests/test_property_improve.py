"""Property-based tests for the improvement phase."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import layout_metrics, verify_routing
from repro.core import improve_routing, route_problem
from repro.netlist.generators import random_switchbox, woven_switchbox


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10_000))
def test_improvement_is_monotone_and_preserves_verification(seed):
    spec = woven_switchbox(12, 9, 9, seed=seed, tangle=0.5)
    problem = spec.to_problem()
    result = route_problem(problem)
    ok_before = verify_routing(problem, result.grid).ok
    stats = improve_routing(result, passes=2)
    assert stats.cost_after <= stats.cost_before
    if ok_before:
        assert verify_routing(problem, result.grid).ok


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_improvement_never_loses_connections(seed):
    spec = random_switchbox(12, 9, 10, seed=seed, fill=0.8)
    problem = spec.to_problem()
    result = route_problem(problem)
    routed_before = result.stats.routed_connections
    improve_routing(result, passes=2)
    routed_after = sum(1 for c in result.connections if c.routed)
    assert routed_after == routed_before


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_improvement_wire_never_grows(seed):
    spec = random_switchbox(12, 9, 10, seed=seed, fill=0.7)
    problem = spec.to_problem()
    result = route_problem(problem)
    before = layout_metrics(problem, result.grid)
    improve_routing(result, passes=2)
    after = layout_metrics(problem, result.grid)
    # Cost is monotone, but wire cells alone are not: with the default model
    # (step=1, via=4, wrong_way=2) removing one via funds up to four extra
    # wire steps at equal-or-lower cost, and a wrong-way -> with-grain trade
    # frees two more.  Bound the growth by what the via trades could have
    # paid for, plus a small wobble for wrong-way trades.
    vias_saved = max(0, before.via_count - after.via_count)
    assert after.wire_cells <= before.wire_cells + 4 * vias_saved + 2
