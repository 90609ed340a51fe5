"""Unit tests for layout metrics."""

from repro.analysis import channel_tracks_used, layout_metrics
from repro.geometry import Point
from repro.grid import GridPath, Layer
from repro.grid.path import straight_path
from repro.netlist import ChannelSpec, Net, Pin, RoutingProblem


def routed_pair():
    problem = RoutingProblem(
        8, 6, nets=[Net("a", (Pin(0, 0), Pin(7, 0)))], name="m"
    )
    grid = problem.build_grid()
    grid.commit_path(
        1,
        GridPath(
            [(0, 0, 1), (0, 0, 0)]
            + [(x, 0, 0) for x in range(1, 8)]
            + [(7, 0, 1)]
        ),
    )
    return problem, grid


class TestLayoutMetrics:
    def test_counts(self):
        problem, grid = routed_pair()
        metrics = layout_metrics(problem, grid)
        assert metrics.pin_cells == 2
        assert metrics.via_count == 2
        assert metrics.wire_cells == 8  # row cells on H (pins are separate)

    def test_per_net_cells(self):
        problem, grid = routed_pair()
        metrics = layout_metrics(problem, grid)
        assert metrics.per_net_cells == {"a": 10}

    def test_empty_grid(self):
        problem = RoutingProblem(4, 4, nets=[])
        metrics = layout_metrics(problem, problem.build_grid())
        assert metrics.wire_cells == 0
        assert metrics.via_count == 0

    def test_layer_split(self):
        problem, grid = routed_pair()
        metrics = layout_metrics(problem, grid)
        assert metrics.horizontal_cells == 8
        assert metrics.vertical_cells == 2


class TestChannelTrackMetrics:
    def _channel_layout(self):
        spec = ChannelSpec((1, 0, 0), (0, 0, 1), name="c")
        problem = spec.to_problem(tracks=3)
        grid = problem.build_grid()
        row = 2  # middle track
        grid.commit_path(
            1, straight_path(Point(0, row), Point(2, row), Layer.HORIZONTAL)
        )
        grid.commit_path(
            1, straight_path(Point(0, row), Point(0, 4), Layer.VERTICAL)
        )
        grid.commit_path(
            1, straight_path(Point(2, 0), Point(2, row), Layer.VERTICAL)
        )
        grid.commit_path(1, GridPath([(0, row, 0), (0, row, 1)]))
        grid.commit_path(1, GridPath([(2, row, 0), (2, row, 1)]))
        return problem, grid

    def test_tracks_used_counts_trunk_rows_only(self):
        problem, grid = self._channel_layout()
        assert channel_tracks_used(problem, grid) == 1

    def test_unwired_channel(self):
        spec = ChannelSpec((1, 0), (0, 1), name="c")
        problem = spec.to_problem(tracks=2)
        grid = problem.build_grid()
        assert channel_tracks_used(problem, grid) == 0
