"""Tests for the ASCII and SVG renderers."""

from repro.core import route_problem
from repro.netlist.instances import (
    crossing_switchbox,
    obstacle_region_problem,
    small_switchbox,
)
from repro.viz import render_grid, svg_from_grid, svg_from_result
from repro.viz.ascii_art import net_label


class TestNetLabel:
    def test_sequence(self):
        assert net_label(1) == "a"
        assert net_label(26) == "z"
        assert net_label(27) == "A"

    def test_invalid(self):
        assert net_label(0) == "?"
        assert net_label(-3) == "?"

    def test_wraps(self):
        assert net_label(1) == net_label(63)


class TestAsciiRenderer:
    def test_dimensions(self):
        problem = crossing_switchbox().to_problem()
        grid = problem.build_grid()
        art = render_grid(problem, grid)
        lines = art.splitlines()
        assert len(lines) == problem.height
        assert all(len(line) == problem.width for line in lines)

    def test_unrouted_shows_pins_and_dots(self):
        problem = crossing_switchbox().to_problem()
        art = render_grid(problem, problem.build_grid())
        assert "a" in art and "b" in art
        assert "." in art
        assert "-" not in art and "|" not in art

    def test_routed_shows_wires(self):
        problem = crossing_switchbox().to_problem()
        result = route_problem(problem)
        art = render_grid(problem, result.grid)
        assert "-" in art or "|" in art or "+" in art

    def test_obstacles_rendered(self):
        problem = obstacle_region_problem()
        art = render_grid(problem, problem.build_grid())
        assert "#" in art


class TestSvgRenderer:
    def test_well_formed_document(self):
        problem = small_switchbox().to_problem()
        result = route_problem(problem)
        svg = svg_from_grid(problem, result.grid, title="demo")
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<rect") >= 1
        assert "<title>demo</title>" in svg

    def test_vias_drawn_as_circles(self):
        problem = small_switchbox().to_problem()
        result = route_problem(problem)
        svg = svg_from_grid(problem, result.grid)
        from repro.analysis import layout_metrics

        metrics = layout_metrics(problem, result.grid)
        assert svg.count("<circle") == metrics.via_count

    def test_from_result_mentions_outcome(self):
        problem = small_switchbox().to_problem()
        result = route_problem(problem)
        svg = svg_from_result(result)
        assert "complete" in svg

    def test_title_escaped(self):
        problem = small_switchbox().to_problem()
        grid = problem.build_grid()
        svg = svg_from_grid(problem, grid, title="a<b & c")
        assert "a&lt;b &amp; c" in svg
