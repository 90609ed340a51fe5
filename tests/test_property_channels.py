"""Property-based tests on channel specs, analysis and realization."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels import LeftEdgeRouter, YacrLiteRouter
from repro.channels.left_edge import assign_tracks_left_edge
from repro.netlist.generators import random_channel


channels = st.builds(
    lambda cols, nets, seed, cycles: random_channel(
        12 + cols, 2 + nets % (4 + cols // 2), seed=seed,
        target_density=3 + nets % 4, allow_vcg_cycles=cycles,
    ),
    st.integers(0, 20),
    st.integers(0, 10),
    st.integers(0, 10_000),
    st.booleans(),
)


@settings(max_examples=40, deadline=None)
@given(channels)
def test_density_bounds(spec):
    """Density is bounded by the trunk-net count and is non-negative."""
    trunk_nets = sum(1 for lo, hi in spec.spans().values() if lo < hi)
    assert 0 <= spec.density <= trunk_nets


@settings(max_examples=40, deadline=None)
@given(channels)
def test_spans_cover_all_pins(spec):
    spans = spec.spans()
    for net in spec.net_numbers():
        lo, hi = spans[net]
        for column, _ in spec.pins_of(net):
            assert lo <= column <= hi


@settings(max_examples=40, deadline=None)
@given(channels)
def test_vcg_edges_are_between_real_nets(spec):
    nets = set(spec.net_numbers())
    for upper, lower in spec.vcg_edges():
        assert upper in nets and lower in nets
        assert upper != lower


@settings(max_examples=40, deadline=None)
@given(channels)
def test_cycle_free_generator_flag(spec):
    """When generated with allow_vcg_cycles=False the spec must be
    cycle-free (checked via the name encoding the flag is not possible,
    so regenerate both ways instead)."""
    # This property is checked directly on a fresh cycle-free instance:
    clean = random_channel(
        spec.n_columns, len(spec.net_numbers()), seed=1,
        target_density=max(2, spec.density), allow_vcg_cycles=False,
    )
    assert not clean.has_vcg_cycle()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_left_edge_respects_constraints_whenever_it_answers(seed):
    spec = random_channel(
        20, 6, seed=seed, target_density=4, allow_vcg_cycles=False
    )
    assignment, needed, _ = assign_tracks_left_edge(spec)
    assert assignment is not None  # cycle-free always assigns
    spans = spec.spans()
    # no overlap within a track
    by_track = {}
    for net, track in assignment.items():
        by_track.setdefault(track, []).append(spans[net])
    for intervals in by_track.values():
        intervals.sort()
        for (lo_a, hi_a), (lo_b, hi_b) in zip(intervals, intervals[1:]):
            assert hi_a < lo_b
    # vertical constraints respected
    for upper, lower in spec.vcg_edges():
        if upper in assignment and lower in assignment:
            assert assignment[upper] < assignment[lower]
    assert needed >= spec.density


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000))
def test_routed_channels_always_verify(seed):
    """Whatever a channel router claims as success must verify, and tracks
    used can never beat density."""
    spec = random_channel(16, 5, seed=seed, target_density=3)
    for router in (LeftEdgeRouter(), YacrLiteRouter()):
        result = router.route_min_tracks(spec, max_extra=8)
        if result.success:
            assert result.verification is not None and result.verification.ok
            assert result.tracks >= spec.density
