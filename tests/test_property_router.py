"""Property-based tests for the search and routing layers.

The central invariant: *whatever a router reports as routed must verify* —
for any generated problem, on any configuration.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import verify_routing
from repro.core import MightyConfig, route_problem
from repro.grid import RoutingGrid
from repro.maze import CostModel, find_path, lee_route
from repro.netlist.generators import random_channel, random_switchbox


# ----------------------------------------------------------------------
# Search properties
# ----------------------------------------------------------------------
coords = st.tuples(
    st.integers(0, 9), st.integers(0, 7), st.integers(0, 1)
)


@settings(max_examples=60, deadline=None)
@given(coords, coords)
def test_astar_equals_lee_under_uniform_cost(source, target):
    grid = RoutingGrid(10, 8)
    lee = lee_route(grid, 1, [source], [target])
    astar = find_path(grid, 1, [source], [target], cost=CostModel.uniform())
    assert lee is not None and astar.found
    assert astar.cost == len(lee) - 1


@settings(max_examples=60, deadline=None)
@given(coords, coords)
def test_astar_cost_lower_bounded_by_manhattan(source, target):
    grid = RoutingGrid(10, 8)
    result = find_path(grid, 1, [source], [target])
    assert result.found
    manhattan = abs(source[0] - target[0]) + abs(source[1] - target[1])
    assert result.cost >= manhattan


@settings(max_examples=40, deadline=None)
@given(coords, coords, st.integers(0, 6), st.integers(0, 6))
def test_astar_path_endpoints_and_legality(source, target, ox, oy):
    grid = RoutingGrid(10, 8)
    obstacle = (ox, oy)
    if obstacle != source[:2] and obstacle != target[:2]:
        grid.set_obstacle(ox, oy)
    result = find_path(grid, 1, [source], [target])
    if not result.found:
        return
    path = result.path
    assert tuple(path.start) == tuple(source)
    assert tuple(path.end) == tuple(target)
    # GridPath construction already guarantees step legality; check the
    # walk never enters the obstacle
    assert all((n.x, n.y) != obstacle or grid.owner(tuple(n)) != -1
               for n in path)


# ----------------------------------------------------------------------
# Whole-router properties
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_routed_switchboxes_always_verify(seed):
    spec = random_switchbox(10, 8, 6, seed=seed, fill=0.6)
    problem = spec.to_problem()
    result = route_problem(problem)
    report = verify_routing(problem, result.grid)
    if result.success:
        assert report.ok, report.errors
    # structural cleanliness holds even on failure
    assert not [e for e in report.errors if "collid" in e or "unknown" in e]


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_router_terminates_within_bound(seed):
    """The paper's theorem: the loop finishes (no RuntimeError) even on
    dense, probably-infeasible instances."""
    spec = random_switchbox(10, 8, 8, seed=seed, fill=0.9)
    problem = spec.to_problem()
    result = route_problem(
        problem, MightyConfig(max_rips_per_net=4, retry_passes=1)
    )
    assert result.stats.iterations >= 1


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_mighty_never_below_naive(seed):
    spec = random_switchbox(10, 8, 7, seed=seed, fill=0.75)
    mighty = route_problem(spec.to_problem(), MightyConfig())
    naive = route_problem(spec.to_problem(), MightyConfig.no_modification())
    assert (
        mighty.stats.routed_connections >= naive.stats.routed_connections
    )


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_channel_density_is_a_true_lower_bound(seed):
    """No router may ever beat the density bound."""
    from repro.channels import MightyChannelRouter

    spec = random_channel(14, 5, seed=seed, target_density=3)
    result = MightyChannelRouter().route_min_tracks(spec, max_extra=8)
    if result.success:
        assert result.tracks >= spec.density
