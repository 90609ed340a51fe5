"""Differential parity suite for the pluggable search-kernel backends.

Every backend must be *bit-identical* to the ``pure`` reference: same
paths (not just same lengths), same costs, same expansion counts, same
conflict nodes, same exceptions.  These tests run the same queries
through every available backend and compare results field by field, and
they replay the wrapper-level bugfix regressions (layer validation,
target bounds validation, the ``exhausted`` flag) on each backend so a
fast kernel can never reintroduce a fixed bug.

The ``compiled`` backend needs a working C toolchain; when it cannot
build, its parametrized cases are skipped (the CI compiled leg forces it
via ``REPRO_KERNEL=compiled``, where an unavailable backend is a hard
error instead).
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point
from repro.grid import GridPath, Layer, RoutingGrid
from repro.grid.path import straight_path
from repro.maze import CostModel, find_path, lee_route
from repro.maze import kernels
from repro.maze.arena import SearchArena


def _backend_params():
    available = kernels.available_backends()
    params = []
    for name in kernels.BACKEND_NAMES:
        marks = []
        if name not in available:
            marks.append(
                pytest.mark.skip(reason=f"backend {name!r} unavailable")
            )
        params.append(pytest.param(name, marks=marks))
    return params


BACKENDS = _backend_params()
OTHERS = [p for p in BACKENDS if p.values[0] != "pure"]


@pytest.fixture
def grid():
    return RoutingGrid(10, 8)


def _assert_same_astar(a, b, label):
    assert a.found == b.found, label
    assert a.cost == b.cost, label
    assert a.expansions == b.expansions, label
    assert a.exhausted == b.exhausted, label
    assert a.conflict_nodes == b.conflict_nodes, label
    if a.found:
        assert list(a.path) == list(b.path), label


def _random_scene(rng, width, height):
    """A grid with random obstacles and foreign wires, plus a query."""
    grid = RoutingGrid(width, height)
    for _ in range(rng.randrange(0, width * height // 4)):
        x, y = rng.randrange(width), rng.randrange(height)
        if (x, y) in ((0, 0), (width - 1, height - 1)):
            continue
        try:
            if rng.random() < 0.5:
                grid.set_obstacle(x, y)
            else:
                grid.commit_path(
                    rng.randrange(2, 6),
                    GridPath([(x, y, rng.randrange(2))]),
                )
        except Exception:
            pass  # cell already taken — fine, scene stays random
    sources = [(0, 0, rng.randrange(2))]
    targets = [(width - 1, height - 1, rng.randrange(2))]
    return grid, sources, targets


#: Other nets' ids in the edge scenes.  The compiled kernel indexes its
#: frozen and penalty tables by net id; 40 and ``2**31 - 1`` lie past the
#: end of every table the scenes build.
FOREIGN_IDS = (2, 3, 4, 40, 2**31 - 1)


@st.composite
def edge_scenes(draw):
    """A degenerate scene and one query, for both searchers.

    The grid is one row, one column or one cell, with a few obstacles and
    other nets' wires and pins; or any small shape that is obstacle
    everywhere but the two endpoints.  Half the rows and columns are 32
    to 40 cells long and half the queries join their two ends, so step
    costs near ``2**28 / 40`` reach the packed-key g limit.
    """
    kind = draw(st.sampled_from(("row", "column", "cell", "walled")))
    span = st.integers(1, 8)
    if kind != "walled":
        span = span | st.integers(32, 40)
    width = 1 if kind in ("column", "cell") else draw(span)
    height = 1 if kind in ("row", "cell") else draw(span)
    layer = st.integers(0, 1)
    if draw(st.booleans()):
        source = (0, 0, draw(layer))
        target = (width - 1, height - 1, draw(layer))
    else:
        x, y = st.integers(0, width - 1), st.integers(0, height - 1)
        source = (draw(x), draw(y), draw(layer))
        target = (draw(x), draw(y), draw(layer))
    grid = RoutingGrid(width, height)
    others = [
        (x, y, z)
        for z in (0, 1)
        for y in range(height)
        for x in range(width)
        if (x, y, z) not in (source, target)
    ]
    if kind == "walled":
        fills = dict.fromkeys(others, "obstacle")
    elif others:
        fills = draw(
            st.dictionaries(
                st.sampled_from(others),
                st.sampled_from(("obstacle", "wire", "pin")),
                max_size=min(len(others) // 2, 6),
            )
        )
    else:
        fills = {}
    for (x, y, z), fill in fills.items():
        if fill == "obstacle":
            grid.set_obstacle(x, y, z)
        elif fill == "wire":
            owner = draw(st.sampled_from(FOREIGN_IDS))
            grid.commit_path(owner, GridPath([(x, y, z)]))
        else:
            grid.reserve_pin(draw(st.sampled_from(FOREIGN_IDS)), (x, y, z))
    query = dict(
        cost=CostModel(
            step_cost=draw(st.sampled_from((1, 3, 6882960, 2**23))),
            wrong_way_penalty=draw(st.sampled_from((0, 2))),
            via_cost=draw(st.sampled_from((1, 4))),
            conflict_penalty=draw(st.sampled_from((0, 50))),
        ),
        allow_conflicts=draw(st.booleans()),
        frozen_nets=frozenset(draw(st.sets(st.sampled_from((2, 3))))),
        net_penalties=draw(st.sampled_from((None, {4: 17}, {2: 1, 3: 9}))),
        max_expansions=draw(st.sampled_from((None, 2, 10_000))),
    )
    return grid, [source], [target], query


def _search_or_error(search, *args, **kwargs):
    """The search's result, or the message of the ``ValueError`` it raised."""
    try:
        return search(*args, **kwargs)
    except ValueError as exc:
        return str(exc)


class TestEdgeScenes:
    @pytest.mark.parametrize("other", OTHERS)
    @settings(max_examples=150, deadline=None)
    @given(scene=edge_scenes())
    def test_astar_parity(self, other, scene):
        grid, sources, targets, query = scene
        ref, got = (
            _search_or_error(
                find_path, grid, 1, sources, targets, kernel=name, **query
            )
            for name in ("pure", other)
        )
        if isinstance(ref, str):
            assert got == ref
        else:
            _assert_same_astar(ref, got, other)

    @pytest.mark.parametrize("other", OTHERS)
    @settings(max_examples=100, deadline=None)
    @given(scene=edge_scenes())
    def test_lee_parity(self, other, scene):
        grid, sources, targets, _ = scene
        ref = lee_route(grid, 1, sources, targets, kernel="pure")
        got = lee_route(grid, 1, sources, targets, kernel=other)
        assert (ref is None) == (got is None)
        if ref is not None:
            assert list(ref) == list(got)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_packed_key_g_limit(self, name):
        """39 steps of 6882960 cost 16 less than the g field holds; the
        32nd step of ``2**23`` reaches ``2**28`` and is refused."""
        grid = RoutingGrid(40, 3)
        ends = ([(0, 1, 0)], [(39, 1, 0)])
        result = find_path(
            grid, 1, *ends, cost=CostModel(step_cost=6882960), kernel=name
        )
        assert result.found
        assert result.cost == 268435440
        with pytest.raises(
            ValueError,
            match=re.escape(
                "path cost exceeds the packed-key g field "
                "(268435456 >= 268435456)"
            ),
        ):
            find_path(
                grid, 1, *ends, cost=CostModel(step_cost=2**23), kernel=name
            )


class TestAstarParity:
    @pytest.mark.parametrize("other", OTHERS)
    def test_randomized_differential(self, other):
        """Random scenes, cost models, and modes: all fields must match."""
        rng = random.Random(20260809)
        for case in range(40):
            width = rng.randrange(4, 14)
            height = rng.randrange(4, 12)
            grid, sources, targets = _random_scene(rng, width, height)
            model = CostModel(
                step_cost=rng.choice([1, 2]),
                wrong_way_penalty=rng.choice([0, 2, 7]),
                via_cost=rng.choice([1, 4, 9]),
                conflict_penalty=rng.choice([5, 50]),
            )
            kwargs = dict(
                cost=model,
                allow_conflicts=rng.random() < 0.5,
                frozen_nets=frozenset({3} if rng.random() < 0.3 else ()),
                net_penalties={4: 17} if rng.random() < 0.3 else None,
                max_expansions=rng.choice([None, 10, 10_000]),
            )
            ref = find_path(
                grid, 1, sources, targets, kernel="pure", **kwargs
            )
            got = find_path(
                grid, 1, sources, targets, kernel=other, **kwargs
            )
            _assert_same_astar(ref, got, f"case {case} vs {other}")

    @pytest.mark.parametrize("name", BACKENDS)
    def test_multi_source_multi_target(self, grid, name):
        grid.commit_path(
            1, straight_path(Point(0, 0), Point(0, 3), Layer.VERTICAL)
        )
        sources = [(0, y, 1) for y in range(4)]
        targets = [(9, y, 1) for y in range(4, 8)]
        ref = find_path(grid, 1, sources, targets, kernel="pure")
        got = find_path(grid, 1, sources, targets, kernel=name)
        _assert_same_astar(ref, got, name)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_conflict_nodes_match(self, grid, name):
        grid.commit_path(
            2, straight_path(Point(5, 0), Point(5, 7), Layer.VERTICAL)
        )
        grid.commit_path(
            2, straight_path(Point(5, 0), Point(5, 7), Layer.HORIZONTAL)
        )
        result = find_path(
            grid, 1, [(0, 0, 0)], [(9, 0, 0)],
            allow_conflicts=True, kernel=name,
        )
        assert result.found
        assert result.conflict_nodes
        assert all(grid.owner(n) == 2 for n in result.conflict_nodes)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_mixed_backends_share_an_arena(self, grid, name):
        """Alternating backends on one arena must stay correct: the
        generation stamp is shared between the list planes and the numpy
        mirror, so a stale label from one backend can never leak into the
        next search of another."""
        arena = SearchArena()
        for _ in range(3):
            a = find_path(
                grid, 1, [(0, 0, 0)], [(9, 7, 1)],
                arena=arena, kernel=name,
            )
            b = find_path(
                grid, 1, [(0, 0, 0)], [(9, 7, 1)],
                arena=arena, kernel="pure",
            )
            _assert_same_astar(a, b, name)


class TestLeeParity:
    @pytest.mark.parametrize("other", OTHERS)
    def test_randomized_differential(self, other):
        """Paths must be *identical node lists*, not merely equal length —
        the wavefront tie-breaking order is part of the contract."""
        rng = random.Random(987654)
        for case in range(40):
            width = rng.randrange(4, 14)
            height = rng.randrange(4, 12)
            grid, sources, targets = _random_scene(rng, width, height)
            if rng.random() < 0.4:  # exercise multi-source dedup order
                sources = sources + [(0, 0, 1), (0, 0, 0)]
            ref = lee_route(grid, 1, sources, targets, kernel="pure")
            got = lee_route(grid, 1, sources, targets, kernel=other)
            label = f"case {case} vs {other}"
            if ref is None:
                assert got is None, label
            else:
                assert got is not None, label
                assert list(ref) == list(got), label

    @pytest.mark.parametrize("name", BACKENDS)
    def test_source_is_target(self, grid, name):
        path = lee_route(grid, 1, [(3, 3, 0)], [(3, 3, 0)], kernel=name)
        assert path is not None and len(path) == 1

    @pytest.mark.parametrize("name", BACKENDS)
    def test_no_path(self, grid, name):
        for y in range(grid.height):
            grid.set_obstacle(5, y)
        assert (
            lee_route(grid, 1, [(0, 0, 0)], [(9, 0, 0)], kernel=name)
            is None
        )


class TestBugfixRegressionsEveryBackend:
    """The three wrapper-level fixes, replayed per backend.

    The fixes live in the wrappers, so these mostly guard against a
    future backend bypassing validation — but ``exhausted`` is computed
    *inside* each kernel and genuinely differs per backend.
    """

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("layer", [-1, 2, 7])
    def test_astar_rejects_bad_layer(self, grid, name, layer):
        with pytest.raises(ValueError, match="out of bounds"):
            find_path(grid, 1, [(0, 0, layer)], [(5, 5, 0)], kernel=name)
        with pytest.raises(ValueError, match="out of bounds"):
            find_path(grid, 1, [(0, 0, 0)], [(5, 5, layer)], kernel=name)

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("layer", [-1, 2, 7])
    def test_lee_rejects_bad_layer(self, grid, name, layer):
        with pytest.raises(ValueError, match="out of bounds"):
            lee_route(grid, 1, [(0, 0, layer)], [(5, 5, 0)], kernel=name)
        with pytest.raises(ValueError, match="out of bounds"):
            lee_route(grid, 1, [(0, 0, 0)], [(5, 5, layer)], kernel=name)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_targets_validated_not_silently_unreachable(self, grid, name):
        """An out-of-bounds target used to fold into a wrapped flat index
        and the search just reported no-path; now it is an input error."""
        with pytest.raises(ValueError, match="target"):
            find_path(grid, 1, [(0, 0, 0)], [(99, 0, 0)], kernel=name)
        with pytest.raises(ValueError, match="target"):
            find_path(grid, 1, [(0, 0, 0)], [(0, -3, 0)], kernel=name)
        with pytest.raises(ValueError, match="target"):
            lee_route(grid, 1, [(0, 0, 0)], [(99, 0, 0)], kernel=name)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_exhausted_distinguishes_budget_from_no_path(self, grid, name):
        tripped = find_path(
            grid, 1, [(0, 0, 0)], [(9, 7, 1)],
            max_expansions=3, kernel=name,
        )
        assert not tripped.found
        assert tripped.exhausted
        assert tripped.expansions == 4  # budget + the tripping expansion

        for y in range(grid.height):
            grid.set_obstacle(5, y)
        proven = find_path(grid, 1, [(0, 0, 0)], [(9, 0, 0)], kernel=name)
        assert not proven.found
        assert not proven.exhausted  # frontier drained: a *proven* no-path


class TestDispatch:
    def test_unknown_backend_rejected(self, grid):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            find_path(grid, 1, [(0, 0, 0)], [(5, 5, 0)], kernel="turbo")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            lee_route(grid, 1, [(0, 0, 0)], [(5, 5, 0)], kernel="turbo")

    def test_auto_prefers_compiled_else_pure(self):
        backend = kernels.resolve_kernel("auto")
        if "compiled" in kernels.available_backends():
            assert backend.name == "compiled"
        else:
            assert backend.name == "pure"

    def test_env_var_resolution(self, monkeypatch, grid):
        monkeypatch.setenv(kernels.ENV_VAR, "pure")
        kernels._reset_for_tests()
        try:
            assert kernels.active_backend().name == "pure"
            info = kernels.backend_info()
            assert info["active"] == "pure"
            assert info["active_source"] == f"env:{kernels.ENV_VAR}"
            # searches without a per-call kernel run the env's backend
            assert kernels.resolve_kernel(None).name == "pure"
            assert find_path(grid, 1, [(0, 0, 0)], [(5, 5, 0)]).found
        finally:
            kernels._reset_for_tests()

    def test_env_var_unknown_name_rejected(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "warp9")
        kernels._reset_for_tests()
        try:
            with pytest.raises(ValueError, match="REPRO_KERNEL"):
                kernels.active_backend()
        finally:
            kernels._reset_for_tests()

    def test_backend_info_shape(self):
        info = kernels.backend_info()
        assert set(info) == {
            "active", "active_source", "available", "env", "load_errors"
        }
        assert "pure" in info["available"]
