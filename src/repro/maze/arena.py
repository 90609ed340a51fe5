"""Reusable scratch memory for the flat search kernels.

The maze searchers are the hot loop of the whole library; the two costs
that dominated them were per-search allocation (fresh ``dict``/``set``
scratch per query, tuple nodes per expanded cell) and per-expansion
neighbour arithmetic.  This module removes both:

* :func:`neighbor_table` precomputes, once per grid shape, the successor
  moves of every node — one ``(succ, axis, x, y)`` tuple per move, so the
  kernel inner loop is a bare tuple unpack: no bounds checks, no divmods,
  no strided indexing;
* :class:`SearchArena` owns reusable cost/parent/stamp planes, recycled
  across searches with a generation counter (bump the generation instead
  of clearing — O(1) reset).  Planes are cached per grid shape, so one
  arena serves a whole minimum-width sweep of shrinking boxes.

Arenas are cheap to construct but not thread-safe; give each router (or
each thread) its own.  Kernels fall back to a thread-local default arena
when the caller does not pass one, so casual ``find_path`` calls stay
allocation-light too.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Tuple

#: Axis codes stored in the neighbour tables (index into a per-layer cost
#: row): 0 = x step, 1 = y step, 2 = via (layer change).
AXIS_X = 0
AXIS_Y = 1
AXIS_VIA = 2

#: Sentinel cost meaning "unreached" — larger than any reachable path cost.
INF = 1 << 60

#: Shapes cached globally for the (immutable) neighbour tables.  Bounded so
#: a long-lived process sweeping many geometries cannot grow without limit.
_MAX_CACHED_SHAPES = 64

_neighbor_tables: "OrderedDict[Tuple[int, int], Tuple[tuple, ...]]" = (
    OrderedDict()
)
_tables_lock = threading.Lock()


def neighbor_table(width: int, height: int) -> Tuple[tuple, ...]:
    """Per-node successor table for a ``width x height`` two-layer grid.

    ``table[index]`` is a tuple of ``(succ_index, axis, succ_x, succ_y)``
    move tuples — every in-bounds Manhattan neighbour on the same layer
    plus the via move to the other layer.  Node indexing is C-order:
    ``index = (layer*height + y)*width + x``.  The per-move tuples let the
    search kernels iterate with a single unpack per move.

    Tables are immutable and cached per shape (bounded LRU), so every
    arena, searcher and thread shares one copy.
    """
    key = (width, height)
    with _tables_lock:
        table = _neighbor_tables.get(key)
        if table is not None:
            _neighbor_tables.move_to_end(key)
            return table
    table = _build_neighbor_table(width, height)
    with _tables_lock:
        _neighbor_tables[key] = table
        _neighbor_tables.move_to_end(key)
        while len(_neighbor_tables) > _MAX_CACHED_SHAPES:
            _neighbor_tables.popitem(last=False)
    return table


def _build_neighbor_table(width: int, height: int) -> Tuple[tuple, ...]:
    plane = width * height
    entries: List[tuple] = []
    for layer in (0, 1):
        base_layer = layer * plane
        via_offset = plane if layer == 0 else -plane
        for y in range(height):
            row = base_layer + y * width
            for x in range(width):
                index = row + x
                moves: List[tuple] = []
                if x + 1 < width:
                    moves.append((index + 1, AXIS_X, x + 1, y))
                if x > 0:
                    moves.append((index - 1, AXIS_X, x - 1, y))
                if y + 1 < height:
                    moves.append((index + width, AXIS_Y, x, y + 1))
                if y > 0:
                    moves.append((index - width, AXIS_Y, x, y - 1))
                moves.append((index + via_offset, AXIS_VIA, x, y))
                entries.append(tuple(moves))
    return tuple(entries)


class _NumpyPlanes:
    """Typed scratch planes for the compiled kernel.

    Same generation-stamp discipline as the plain-list planes (the
    generation counter itself lives on the owning :class:`_Planes`, so
    mixing backends across searches stays safe: every search gets a fresh
    generation no matter which stamp storage the previous one wrote).

    ``target`` is a zeroed uint8 mask plane; kernels that use it must
    restore it to all-zero before returning (set/clear the few target
    indices, not a full memset).  ``path_buf`` is an int32 buffer big
    enough for any simple path (one entry per node).
    """

    __slots__ = ("best", "parent", "stamp", "target", "path_buf")

    def __init__(self, n_nodes: int) -> None:
        import numpy as np

        self.best = np.zeros(n_nodes, dtype=np.int64)
        self.parent = np.full(n_nodes, -1, dtype=np.int32)
        self.stamp = np.zeros(n_nodes, dtype=np.int64)
        self.target = np.zeros(n_nodes, dtype=np.uint8)
        self.path_buf = np.empty(n_nodes, dtype=np.int32)


class _Planes:
    """Mutable scratch planes for one grid shape."""

    __slots__ = ("best", "parent", "stamp", "generation", "_numpy")

    def __init__(self, n_nodes: int) -> None:
        self.best: List[int] = [INF] * n_nodes
        self.parent: List[int] = [-1] * n_nodes
        self.stamp: List[int] = [0] * n_nodes
        self.generation = 0
        self._numpy = None

    def next_generation(self) -> int:
        """O(1) reset: values are valid only where ``stamp == generation``."""
        self.generation += 1
        return self.generation

    def numpy_planes(self) -> "_NumpyPlanes":
        """Lazily-allocated typed planes (compiled kernel only)."""
        if self._numpy is None:
            self._numpy = _NumpyPlanes(len(self.best))
        return self._numpy


class SearchArena:
    """Per-router scratch arena: reusable planes keyed by grid shape.

    One arena amortises plane allocation across every search a router (or
    a whole sweep of routers over related geometries) performs.  Not
    thread-safe — a plane is reused by the very next search.
    """

    __slots__ = ("_planes", "searches_served")

    def __init__(self) -> None:
        self._planes: Dict[Tuple[int, int], _Planes] = {}
        self.searches_served = 0

    def planes(self, width: int, height: int) -> _Planes:
        """Scratch planes for a ``width x height`` two-layer grid."""
        key = (width, height)
        planes = self._planes.get(key)
        if planes is None:
            planes = _Planes(2 * width * height)
            self._planes[key] = planes
        self.searches_served += 1
        return planes


_thread_local = threading.local()


def default_arena() -> SearchArena:
    """The calling thread's shared fallback arena."""
    arena = getattr(_thread_local, "arena", None)
    if arena is None:
        arena = SearchArena()
        _thread_local.arena = arena
    return arena
