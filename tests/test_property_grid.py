"""Property-based tests (hypothesis) for the grid and geometry substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.grid import FREE, GridPath, RoutingGrid
from tests.bfs_oracle import connected_component


# ----------------------------------------------------------------------
# Geometry properties
# ----------------------------------------------------------------------
rects = st.builds(
    lambda x, y, w, h: Rect(x, y, x + w, y + h),
    st.integers(-10, 10),
    st.integers(-10, 10),
    st.integers(0, 12),
    st.integers(0, 12),
)


@given(rects, rects)
def test_rect_intersection_commutative(a, b):
    assert a.intersection(b) == b.intersection(a)


def _covers(outer, inner):
    """Every cell of ``inner`` lies inside ``outer``."""
    return inner.is_empty or (
        outer.x0 <= inner.x0 and outer.y0 <= inner.y0
        and inner.x1 <= outer.x1 and inner.y1 <= outer.y1
    )


@given(rects, rects)
def test_rect_intersection_within_bbox(a, b):
    overlap = a.intersection(b)
    if overlap is not None:
        assert _covers(a, overlap) and _covers(b, overlap)
    assert _covers(a.union_bbox(b), a)


# ----------------------------------------------------------------------
# Grid commit/rip properties
# ----------------------------------------------------------------------
def _walk(width, height, moves):
    """Build a legal self-avoiding-ish walk from a move list."""
    x, y, layer = width // 2, height // 2, 0
    nodes = [(x, y, layer)]
    seen = {(x, y, layer)}
    for move in moves:
        if move == 4:
            candidate = (x, y, 1 - layer)
        else:
            dx, dy = [(1, 0), (-1, 0), (0, 1), (0, -1)][move]
            candidate = (x + dx, y + dy, layer)
        cx, cy, _ = candidate
        if not (0 <= cx < width and 0 <= cy < height):
            continue
        if candidate in seen:
            continue
        nodes.append(candidate)
        seen.add(candidate)
        x, y, layer = candidate
    return GridPath(nodes)


walks = st.lists(st.integers(0, 4), min_size=0, max_size=40).map(
    lambda moves: _walk(12, 12, moves)
)


@settings(max_examples=60)
@given(walks)
def test_commit_then_rip_restores_grid(path):
    grid = RoutingGrid(12, 12)
    grid.commit_path(1, path)
    for node in path:
        assert grid.owner(tuple(node)) == 1
    grid.remove_path(1, path)
    assert all(
        grid.owner(tuple(node)) == FREE for node in path
    )
    assert grid.net_nodes(1) == []
    assert 1 not in grid._via
    assert not any(grid._use) and not any(grid._vuse)


@settings(max_examples=60)
@given(walks)
def test_committed_walk_is_connected(path):
    grid = RoutingGrid(12, 12)
    grid.commit_path(1, path)
    component = connected_component(grid, 1, tuple(path.start))
    assert {tuple(n) for n in path} <= {tuple(n) for n in component}


@settings(max_examples=60)
@given(walks, walks)
def test_double_commit_reference_counting(a, b):
    grid = RoutingGrid(12, 12)
    grid.commit_path(1, a)
    grid.commit_path(1, b)
    grid.remove_path(1, a)
    for node in b:
        assert grid.owner(tuple(node)) == 1
    grid.remove_path(1, b)
    assert grid.net_nodes(1) == []
    assert not any(grid._use) and not any(grid._vuse)


@settings(max_examples=40)
@given(walks)
def test_clone_restore_identity(path):
    grid = RoutingGrid(12, 12)
    grid.commit_path(1, path)
    snapshot = grid.clone()
    grid.remove_path(1, path)
    grid.restore(snapshot)
    assert grid.net_nodes(1) == snapshot.net_nodes(1)
    assert grid._use == snapshot._use and grid._vuse == snapshot._vuse
    for node in path:
        assert grid.owner(tuple(node)) == 1
