"""Unit tests for the channel-router bridge (wires -> grid) and the
mechanisms the baselines share: the wire realization, the constrained
left-edge packer and the greedy sweep state."""

import pytest

from repro.channels import (
    DoglegRouter,
    HWire,
    LeftEdgeRouter,
    VWire,
    realize_wires,
    track_row,
)
from repro.channels.base import lay_wires
from repro.channels.greedy import SweepState
from repro.channels.left_edge import pack_left_edge
from repro.netlist import ChannelSpec, SwitchboxSpec
from repro.netlist.instances import simple_channel, straight_channel


class TestWireTypes:
    def test_hwire_validation(self):
        with pytest.raises(ValueError):
            HWire(net=1, track=1, x0=5, x1=2)
        with pytest.raises(ValueError):
            HWire(net=1, track=0, x0=0, x1=2)

    def test_vwire_validation(self):
        with pytest.raises(ValueError):
            VWire(net=1, x=0, y0=4, y1=2)

    def test_track_row_mapping(self):
        # 3 tracks: track 1 (top) on row 3, track 3 (bottom) on row 1
        assert track_row(3, 1) == 3
        assert track_row(3, 3) == 1
        with pytest.raises(ValueError):
            track_row(3, 4)
        with pytest.raises(ValueError):
            track_row(3, 0)


class TestRealize:
    def test_simple_straight_through(self):
        spec = straight_channel()
        vwires = [
            VWire(net, column, 0, 2)
            for column, net in enumerate(spec.top)
            if net
        ]
        result = realize_wires(spec, 1, [], vwires, router="test")
        assert result.success
        assert result.tracks_used <= 1

    def test_trunk_and_branches(self):
        spec = ChannelSpec((1, 0), (0, 1), name="diag")
        tracks = 2
        hwires = [HWire(1, 1, 0, 1)]
        row = track_row(tracks, 1)
        vwires = [VWire(1, 0, row, tracks + 1), VWire(1, 1, 0, row)]
        result = realize_wires(spec, tracks, hwires, vwires, router="test")
        assert result.success, result.reason
        assert result.tracks_used == 1

    def test_auto_via_inserted(self):
        spec = ChannelSpec((1, 0), (0, 1), name="diag")
        tracks = 2
        row = track_row(tracks, 1)
        result = realize_wires(
            spec,
            tracks,
            [HWire(1, 1, 0, 1)],
            [VWire(1, 0, row, tracks + 1), VWire(1, 1, 0, row)],
            router="test",
        )
        assert result.grid is not None
        # vias where the branches meet the trunk
        assert result.grid.via_owner(0, row) == 1
        assert result.grid.via_owner(1, row) == 1

    def test_illegal_overlap_reported_not_raised(self):
        spec = ChannelSpec((1, 2), (2, 1), name="clash")
        vwires = [VWire(1, 0, 0, 3), VWire(2, 0, 0, 3)]  # same column clash
        result = realize_wires(spec, 2, [], vwires, router="test")
        assert not result.success
        assert "illegal geometry" in result.reason

    def test_open_net_fails_verification(self):
        spec = simple_channel()
        result = realize_wires(spec, 3, [], [], router="test")  # no wires
        assert not result.success
        assert result.verification is not None
        assert result.verification.open_nets

    def test_summary_readable(self):
        spec = straight_channel()
        vwires = [
            VWire(net, column, 0, 2)
            for column, net in enumerate(spec.top)
            if net
        ]
        result = realize_wires(spec, 1, [], vwires, router="test")
        assert "test" in result.summary()
        assert "OK" in result.summary()


class TestLayWires:
    def test_via_where_a_left_pin_meets_a_bottom_pin(self):
        """Net 1's left pin (horizontal layer) and bottom pin (vertical
        layer) share the corner cell: one net on both layers is a via,
        with no wire laid."""
        box = SwitchboxSpec(
            width=3,
            height=3,
            top=(0, 0, 0),
            bottom=(1, 0, 2),
            left=(1, 0, 0),
            right=(2, 0, 0),
        )
        grid, reason = lay_wires(box.to_problem(), [], [])
        assert reason == ""
        assert grid.via_owner(0, 0) == 1
        # Net 2's bottom and right pins meet on the other corner.
        assert grid.via_owner(2, 0) == 2
        assert (grid.via_map() != 0).sum() == 2

    def test_first_collision_is_the_reason_and_no_via_is_laid(self):
        spec = ChannelSpec((1, 2), (2, 1), name="clash")
        problem = spec.to_problem(2)
        trunks = [(1, 2, 0, 1)]
        branches = [
            (1, 0, 2, 3),  # meets net 1's trunk: a via once all is laid
            (2, 0, 0, 2),  # first collision, with net 1's branch
            (2, 1, 0, 3),  # would collide with net 1's pin
        ]
        grid, reason = lay_wires(problem, trunks, branches)
        assert reason.startswith("illegal geometry: net 2 collides with 1")
        assert "(0, 2," in reason
        assert not grid.via_map().any()
        assert grid.owner((0, 2, 1)) == 1  # laid before the collision
        assert grid.owner((1, 1, 1)) == 0  # never laid


class TestPackLeftEdge:
    SPANS = {"a": (0, 3), "b": (1, 4), "c": (5, 6)}

    def test_cycle_returns_none_and_the_tracks_filled(self):
        """``c`` fills track 1; ``a`` and ``b`` must each lie above the
        other, so track 2 takes nothing."""
        above = {"a": {"b"}, "b": {"a"}, "c": set()}
        assignment, tracks = pack_left_edge(
            ["a", "b", "c"], self.SPANS.__getitem__, above
        )
        assert assignment is None
        assert tracks == 1

    def test_constraints_stack_tracks(self):
        above = {"a": set(), "b": {"a"}, "c": {"b"}}
        assignment, tracks = pack_left_edge(
            ["a", "b", "c"], self.SPANS.__getitem__, above
        )
        assert assignment == {"a": 1, "b": 2, "c": 3}
        assert tracks == 3

    def test_no_trunk_packs_to_an_empty_valid_assignment(self):
        assert pack_left_edge([], self.SPANS.__getitem__, {}) == ({}, 0)
        # Every net of straight_channel() is straight-through: no trunk,
        # and both left-edge routers still route it.
        for router in (LeftEdgeRouter(), DoglegRouter()):
            result = router.route(straight_channel(), 1)
            assert result.success, result.reason


class TestSweepState:
    def test_a_freed_slot_is_claimable_one_column_later(self):
        state = SweepState(ChannelSpec((7, 0), (0, 7)), range(1, 3), 3, True)
        state.claim(1, 7)
        state.begin_column(2)
        state.release(1)
        assert state.trunks == [(7, 1, 0, 2)]
        assert not state.claimable(1)
        assert state.claimable(2)
        state.begin_column(3)
        assert state.claimable(1)

    def test_v_free_ignores_the_nets_own_verticals(self):
        state = SweepState(ChannelSpec((1, 2), (2, 1)), range(4), 3, False)
        state.begin_column(5)
        state.add_v(0, 2, 1)
        assert state.branches == [(1, 5, 0, 2)]
        assert state.v_free(1, 3, 1)
        assert not state.v_free(2, 3, 2)
        assert state.v_free(3, 3, 2)
        state.begin_column(6)
        assert state.v_free(0, 3, 2)

    def test_retire_waits_for_the_last_pin_and_the_targets(self):
        box = SwitchboxSpec(
            width=3,
            height=3,
            top=(1, 3, 2),
            bottom=(0, 3, 0),
            left=(1, 2, 3),
            right=(0, 2, 0),
        )
        state = SweepState(box, range(3), 2, top_down=False)
        for row, net in enumerate(box.left):
            state.claim(row, net)
        state.targets[2].add(1)
        state.retire()  # column 0 holds net 1's last pin; net 3's is next
        assert state.held == {1: set(), 2: {1}, 3: {2}}
        assert state.trunks == [(1, 0, 0, 0)]
        state.begin_column(2)
        state.retire()  # net 2 still has a target row to reach
        assert state.held == {1: set(), 2: {1}, 3: set()}

    def test_slot_rows(self):
        spec = ChannelSpec((1, 0), (0, 1))
        channel = SweepState(spec, range(1, 4), 4, top_down=True)
        assert [channel.row(t) for t in channel.slots] == [3, 2, 1]
        box = SweepState(spec, range(4), 3, top_down=False)
        assert [box.row(r) for r in box.slots] == [0, 1, 2, 3]
