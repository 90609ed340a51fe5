"""Unit tests for the text/JSON problem formats."""

import pytest

from repro.geometry import Rect
from repro.grid import Layer
from repro.netlist import Net, Pin, RoutingProblem
from repro.netlist.io import (
    FormatError,
    format_channel,
    format_switchbox,
    load_channel,
    load_problem,
    load_switchbox,
    parse_channel,
    parse_switchbox,
    problem_from_dict,
    problem_to_dict,
    save_channel,
    save_problem,
    save_switchbox,
)
from repro.netlist.instances import obstacle_region_problem, simple_channel, small_switchbox
from repro.netlist.problem import Obstacle


class TestChannelFormat:
    def test_round_trip(self):
        spec = simple_channel()
        assert parse_channel(format_channel(spec)) == spec

    def test_parse_with_comments_and_blanks(self):
        text = """
        # a channel
        name: demo   # trailing comment
        top: 1 0 2
        bottom: 2 1 0
        """
        spec = parse_channel(text)
        assert spec.name == "demo"
        assert spec.top == (1, 0, 2)

    def test_missing_field(self):
        with pytest.raises(FormatError):
            parse_channel("top: 1 2\n")

    def test_non_integer(self):
        with pytest.raises(FormatError):
            parse_channel("top: 1 x\nbottom: 0 0\n")

    def test_length_mismatch_surfaces_as_format_error(self):
        with pytest.raises(FormatError):
            parse_channel("top: 1 2 3\nbottom: 1 2\n")

    def test_duplicate_key(self):
        with pytest.raises(FormatError):
            parse_channel("top: 1\ntop: 2\nbottom: 0\n")

    def test_file_round_trip(self, tmp_path):
        spec = simple_channel()
        path = tmp_path / "chan.txt"
        save_channel(path, spec)
        assert load_channel(path) == spec


class TestSwitchboxFormat:
    def test_round_trip(self):
        spec = small_switchbox()
        assert parse_switchbox(format_switchbox(spec)) == spec

    def test_missing_side(self):
        text = "width: 3\nheight: 3\ntop: 0 0 0\nbottom: 0 0 0\nleft: 0 0 0\n"
        with pytest.raises(FormatError):
            parse_switchbox(text)

    def test_file_round_trip(self, tmp_path):
        spec = small_switchbox()
        path = tmp_path / "box.txt"
        save_switchbox(path, spec)
        assert load_switchbox(path) == spec


class TestProblemJson:
    def test_round_trip_simple(self):
        problem = RoutingProblem(
            6,
            5,
            nets=[Net("a", (Pin(0, 0), Pin(5, 4, Layer.HORIZONTAL)))],
            name="p",
        )
        rebuilt = problem_from_dict(problem_to_dict(problem))
        assert rebuilt.name == "p"
        assert rebuilt.width == 6 and rebuilt.height == 5
        assert rebuilt.nets[0].pins == problem.nets[0].pins

    def test_round_trip_with_region_and_obstacles(self):
        problem = obstacle_region_problem()
        rebuilt = problem_from_dict(problem_to_dict(problem))
        assert rebuilt.region == problem.region
        assert rebuilt.obstacles == problem.obstacles
        assert [n.name for n in rebuilt.nets] == [n.name for n in problem.nets]

    def test_layer_specific_obstacle(self):
        problem = RoutingProblem(
            4,
            4,
            nets=[Net("a", (Pin(0, 0),))],
            obstacles=[Obstacle(Rect(2, 2, 3, 3), Layer.HORIZONTAL)],
        )
        rebuilt = problem_from_dict(problem_to_dict(problem))
        assert rebuilt.obstacles[0].layer is Layer.HORIZONTAL

    def test_malformed_payload(self):
        with pytest.raises(FormatError):
            problem_from_dict({"width": 4})

    def test_file_round_trip(self, tmp_path):
        problem = obstacle_region_problem()
        path = tmp_path / "problem.json"
        save_problem(path, problem)
        rebuilt = load_problem(path)
        assert rebuilt.width == problem.width
        assert rebuilt.region == problem.region
