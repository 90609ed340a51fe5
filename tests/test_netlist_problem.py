"""Unit tests for the general routing problem."""

import pytest

from repro.bench import bench_cases
from repro.core.decompose import decompose_problem
from repro.geometry import Rect, RectilinearRegion
from repro.grid import Layer
from repro.netlist import Net, Pin, ProblemError, RoutingProblem
from repro.netlist.problem import Obstacle


def two_net_problem():
    return RoutingProblem(
        width=6,
        height=5,
        nets=[
            Net("a", (Pin(0, 0), Pin(5, 4))),
            Net("b", (Pin(0, 4), Pin(5, 0))),
        ],
        name="t",
    )


class TestValidation:
    def test_valid_problem(self):
        problem = two_net_problem()
        assert problem.pin_count == 4

    def test_pin_outside_grid(self):
        with pytest.raises(ProblemError):
            RoutingProblem(4, 4, nets=[Net("a", (Pin(4, 0), Pin(0, 0)))])

    def test_grid_the_search_cannot_index(self):
        """The limit is the search's own: 2 * width * height nodes must
        fit the packed key's index field, which ``find_path_flat`` checks
        for grids built directly.  2 * 47 * 178481 is the largest node
        count that fits (INDEX_MASK = 2**24 - 1 is odd)."""
        from repro.maze.kernels.pure import INDEX_MASK

        assert 2 * 47 * 178481 == INDEX_MASK - 1
        RoutingProblem(47, 178481)
        with pytest.raises(ProblemError, match="search indexes"):
            RoutingProblem(47, 178482)

    def test_duplicate_net_names(self):
        with pytest.raises(ProblemError):
            RoutingProblem(
                4, 4, nets=[Net("a", (Pin(0, 0),)), Net("a", (Pin(1, 1),))]
            )

    def test_pin_collision_between_nets(self):
        with pytest.raises(ProblemError):
            RoutingProblem(
                4,
                4,
                nets=[
                    Net("a", (Pin(1, 1, Layer.VERTICAL),)),
                    Net("b", (Pin(1, 1, Layer.VERTICAL),)),
                ],
            )

    def test_same_cell_pins_on_different_layers_allowed(self):
        problem = RoutingProblem(
            4,
            4,
            nets=[
                Net("a", (Pin(1, 1, Layer.VERTICAL),)),
                Net("b", (Pin(1, 1, Layer.HORIZONTAL),)),
            ],
        )
        assert len(problem.nets) == 2

    def test_pin_on_obstacle(self):
        with pytest.raises(ProblemError):
            RoutingProblem(
                4,
                4,
                nets=[Net("a", (Pin(1, 1),))],
                obstacles=[Obstacle(Rect(0, 0, 2, 2))],
            )

    def test_pin_on_other_layer_of_obstacle_allowed(self):
        problem = RoutingProblem(
            4,
            4,
            nets=[Net("a", (Pin(1, 1, Layer.VERTICAL),))],
            obstacles=[Obstacle(Rect(0, 0, 2, 2), Layer.HORIZONTAL)],
        )
        assert problem.nets

    def test_pin_outside_region(self):
        region = RectilinearRegion([Rect(0, 0, 2, 2)])
        with pytest.raises(ProblemError):
            RoutingProblem(
                4, 4, nets=[Net("a", (Pin(3, 3),))], region=region
            )

    def test_bad_extents(self):
        with pytest.raises(ProblemError):
            RoutingProblem(0, 4)


class TestNetIds:
    def test_ids_follow_list_order(self):
        problem = two_net_problem()
        assert problem.net_id("a") == 1
        assert problem.net_id("b") == 2
        assert problem.net_ids() == {"a": 1, "b": 2}

    def test_net_by_id(self):
        problem = two_net_problem()
        assert problem.net_by_id(2).name == "b"
        with pytest.raises(KeyError):
            problem.net_by_id(3)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            two_net_problem().net_id("zzz")

    def test_routable_nets(self):
        problem = RoutingProblem(
            4,
            4,
            nets=[Net("a", (Pin(0, 0), Pin(1, 1))), Net("b", (Pin(2, 2),))],
        )
        assert [n.name for n in problem.routable_nets] == ["a"]


class TestConnectionCount:
    """``connection_count`` is the decomposition's size, by definition."""

    @pytest.mark.parametrize(
        "case", bench_cases(), ids=[c.name for c in bench_cases()]
    )
    def test_equals_the_decomposition_on_the_bench_suite(self, case):
        problem = case.build()
        assert problem.connection_count == len(decompose_problem(problem))

    def test_nets_with_fewer_than_two_pins_add_nothing(self):
        problem = RoutingProblem(
            6,
            4,
            nets=[
                Net("a", (Pin(0, 0), Pin(3, 1), Pin(5, 3))),
                Net("b", (Pin(2, 2),)),
                Net("c", ()),
            ],
        )
        assert problem.connection_count == 2
        assert len(decompose_problem(problem)) == 2


class TestBuildGrid:
    def test_pins_reserved(self):
        problem = two_net_problem()
        grid = problem.build_grid()
        assert grid.owner((0, 0, 1)) == 1
        assert grid.pin_owner((5, 0, 1)) == 2

    def test_obstacles_placed(self):
        problem = RoutingProblem(
            5,
            5,
            nets=[Net("a", (Pin(0, 0), Pin(4, 4)))],
            obstacles=[Obstacle(Rect(2, 2, 3, 3), Layer.HORIZONTAL)],
        )
        grid = problem.build_grid()
        assert grid.is_obstacle((2, 2, 0))
        assert grid.is_free((2, 2, 1))

    def test_fresh_grid_each_call(self):
        problem = two_net_problem()
        g1, g2 = problem.build_grid(), problem.build_grid()
        g1.commit_path(1, __import__("repro.grid", fromlist=["GridPath"]).GridPath([(2, 2, 0)]))
        assert g2.is_free((2, 2, 0))

    def test_region_blocked(self):
        region = RectilinearRegion([Rect(0, 0, 3, 3)])
        problem = RoutingProblem(
            5, 5, nets=[Net("a", (Pin(0, 0), Pin(2, 2)))], region=region
        )
        grid = problem.build_grid()
        assert grid.is_obstacle((4, 4, 0))
