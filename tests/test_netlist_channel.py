"""Unit tests for channel specifications."""

import pytest

from repro.grid import Layer
from repro.netlist import ChannelSpec, ProblemError
from repro.netlist.generators import deutsch_class_channel, random_channel
from repro.netlist.instances import (
    dogleg_channel,
    simple_channel,
    staircase_channel,
    straight_channel,
    two_sided_congestion_channel,
    vcg_cycle_channel,
)

#: Every instance channel and channels of every generator; the last is
#: the channel ``deutsch_class_region()`` lowers.
CHANNELS = {
    "simple": simple_channel,
    "straight": straight_channel,
    "vcg-cycle": vcg_cycle_channel,
    "dogleg": dogleg_channel,
    "staircase": staircase_channel,
    "two-sided": two_sided_congestion_channel,
    "deutsch-class": deutsch_class_channel,
    "random-global": lambda: random_channel(14, 6, seed=3),
    "random-acyclic": lambda: random_channel(
        28, 10, seed=23, target_density=5, allow_vcg_cycles=False
    ),
    "deutsch-region": lambda: random_channel(
        560, 500, seed=11, fill=0.85, target_density=16
    ),
}


class TestConstruction:
    def test_basic(self):
        spec = ChannelSpec((1, 0, 2), (2, 1, 0))
        assert spec.n_columns == 3
        assert spec.net_numbers() == [1, 2]

    def test_rejects_length_mismatch(self):
        with pytest.raises(ProblemError):
            ChannelSpec((1, 2), (1,))

    def test_rejects_negative_net(self):
        with pytest.raises(ProblemError):
            ChannelSpec((1, -2), (0, 0))

    def test_rejects_empty(self):
        with pytest.raises(ProblemError):
            ChannelSpec((), ())


class TestAnalysis:
    def test_spans(self):
        spec = ChannelSpec((1, 0, 1, 2), (0, 2, 0, 0))
        assert spec.spans() == {1: (0, 2), 2: (1, 3)}

    def test_pins_of(self):
        spec = ChannelSpec((1, 0), (1, 1))
        assert sorted(spec.pins_of(1)) == [(0, "B"), (0, "T"), (1, "B")]

    def test_density_excludes_straight_through(self):
        spec = straight_channel()
        assert spec.density == 0

    def test_density_counts_covering_trunks(self):
        spec = ChannelSpec((1, 2, 0, 0), (0, 0, 1, 2))
        # nets 1:[0,2], 2:[1,3] -> columns 1 and 2 covered by both
        assert spec.density == 2

    def test_simple_channel_density(self):
        assert simple_channel().density == 3

    @pytest.mark.parametrize("name", sorted(CHANNELS))
    def test_density_is_the_densest_column(self, name):
        """The one-pass profile is every column's own count, and the
        density is its peak."""
        spec = CHANNELS[name]()
        profile = spec.density_profile()
        assert profile == [
            spec.column_density(c) for c in range(spec.n_columns)
        ]
        assert spec.density == max(profile)

    def test_profile_peak_is_density(self):
        spec = simple_channel()
        profile = spec.density_profile()
        assert max(profile) == spec.density
        assert len(profile) == spec.n_columns

    def test_empty_columns_zero(self):
        """A pinless column inside a span still carries its trunk; one
        outside every span carries none."""
        spec = ChannelSpec((1, 0, 0, 1, 0), (0, 0, 0, 0, 0))
        assert spec.density_profile() == [1, 1, 1, 1, 0]

    def test_vcg_edges(self):
        spec = ChannelSpec((1, 2), (2, 1))
        assert spec.vcg_edges() == {(1, 2), (2, 1)}

    def test_vcg_ignores_same_net_and_empty(self):
        spec = ChannelSpec((1, 0, 2), (1, 5, 0))
        assert spec.vcg_edges() == set()

    def test_cycle_detection(self):
        assert vcg_cycle_channel().has_vcg_cycle()
        assert not simple_channel().has_vcg_cycle()
        assert not dogleg_channel().has_vcg_cycle()

    def test_longest_path(self):
        # simple6 chain: 5 > 1 > 2 > 3 > 4
        assert simple_channel().vcg_longest_path() == 5
        assert vcg_cycle_channel().vcg_longest_path() == 0
        # no constraints at all: every net is its own chain of length 1
        assert straight_channel().vcg_longest_path() == 1


class TestLowering:
    def test_geometry(self):
        problem = simple_channel().to_problem(tracks=4)
        assert problem.width == 6
        assert problem.height == 6  # 4 tracks + 2 pin rows

    def test_pin_placement(self):
        spec = ChannelSpec((1, 0), (0, 1))
        problem = spec.to_problem(tracks=2)
        grid = problem.build_grid()
        assert grid.pin_owner((0, 3, int(Layer.VERTICAL))) == 1  # top row
        assert grid.pin_owner((1, 0, int(Layer.VERTICAL))) == 1  # bottom row

    def test_shores_blocked(self):
        spec = ChannelSpec((1, 0), (0, 1))
        grid = spec.to_problem(tracks=2).build_grid()
        # horizontal layer blocked on both shore rows everywhere
        assert grid.is_obstacle((0, 0, 0))
        assert grid.is_obstacle((1, 3, 0))
        # empty shore slots blocked on the vertical layer too
        assert grid.is_obstacle((1, 3, 1))
        assert grid.is_obstacle((0, 0, 1))
        # track rows free
        assert grid.is_free((0, 1, 0)) and grid.is_free((1, 2, 1))

    def test_requires_a_track(self):
        with pytest.raises(ProblemError):
            simple_channel().to_problem(tracks=0)

    def test_net_names(self):
        problem = ChannelSpec((7, 3), (3, 7)).to_problem(tracks=1)
        assert {net.name for net in problem.nets} == {"n3", "n7"}
        # ids follow sorted numeric order
        assert problem.net_id("n3") == 1
