"""Search scratch for the flat kernels.

The maze searchers are the hot loop of the whole library; the two costs
that dominated them were per-search allocation (fresh ``dict``/``set``
scratch per query, tuple nodes per expanded cell) and per-expansion
neighbour arithmetic.  This module removes both:

* :func:`neighbor_table` precomputes, once per grid shape, the successor
  moves of every node — one ``(succ, axis, x, y)`` tuple per move, so the
  kernel inner loop is a bare tuple unpack: no bounds checks, no divmods,
  no strided indexing;
* :func:`thread_planes` gives every search on a thread the thread's one
  set of cost/parent/stamp planes, recycled across searches with a
  generation counter (bump the generation instead of clearing — O(1)
  reset).

Searches on one thread never overlap, so every router on the thread can
share its planes and the compiled A* kernel's call block: each search
takes a fresh generation, and the compiled backend leaves its target
mask all zero after every search.  Other threads get planes of their
own.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.maze.kernels.pure import FLOOD_CAP, SETTLE_CAP

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
    searcher and thread shares one copy.
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


#: Slots of the compiled A* kernel's call block, one int64 each, in the
#: order of ``BLK_*`` in ``_kernels.c``.  :class:`_CPlanes` writes the
#: slots before :data:`QUERY_SLOT` once; the compiled backend writes the
#: query's slots, from :data:`QUERY_SLOT` on, before each search.
BLOCK_SLOTS = (
    "best", "parent", "stamp", "excess", "target", "path", "out",
    "settle_cap", "flood_cap",
    "occ", "pin", "width", "height", "net_id", "allow_conflicts",
    "frozen", "frozen_len", "penalties", "pen_len", "row0", "row1",
    "base_penalty", "sources", "n_sources", "targets", "n_targets", "gen",
)
QUERY_SLOT = BLOCK_SLOTS.index("occ")


class _CPlanes:
    """Typed scratch planes for the compiled kernel, addressed once.

    Same generation-stamp discipline as the pure kernel's lists; the
    generation counter lives on the owning :class:`_Planes`.

    Every buffer is an ``array`` whose address is taken here, once per
    plane set, so a kernel call hands C plain ints and builds no plane
    of its own.  ``block`` is the A* kernel's call block
    (:data:`BLOCK_SLOTS`): its first slots hold the planes' addresses,
    :data:`~repro.maze.kernels.pure.SETTLE_CAP` and
    :data:`~repro.maze.kernels.pure.FLOOD_CAP`, written here; a search
    writes the rest and passes ``block_addr``, so the block belongs to
    the thread as the planes do.  ``target`` is a zeroed byte mask;
    kernels that use it must restore it to all-zero before returning
    (set/clear the few target indices, not a full memset).  ``excess``
    holds the keys of the A* kernel's backward search, read only where
    that search marked the target mask.  ``path`` is an int32 buffer big
    enough for any simple path (one entry per node), which the backward
    search also uses to list the nodes it marked, and ``out`` receives
    the kernel's scalar results.  :meth:`cost_rows` keeps the int64
    axis-cost rows of every cost table searched on these planes.
    """

    __slots__ = (
        "parent_addr", "stamp_addr", "target", "target_addr", "path",
        "path_addr", "out", "out_addr", "block", "block_addr", "_buffers",
        "_rows",
    )

    def __init__(self, n_nodes: int) -> None:
        best = array("q", bytes(8 * n_nodes))
        parent = array("i", [-1]) * n_nodes
        stamp = array("q", bytes(8 * n_nodes))
        excess = array("q", bytes(8 * n_nodes))
        self.target = array("B", bytes(n_nodes))
        self.path = array("i", bytes(4 * n_nodes))
        self.out = array("q", bytes(8 * 4))
        self._buffers = (best, parent, stamp, excess)
        self.parent_addr = parent.buffer_info()[0]
        self.stamp_addr = stamp.buffer_info()[0]
        self.target_addr = self.target.buffer_info()[0]
        self.path_addr = self.path.buffer_info()[0]
        self.out_addr = self.out.buffer_info()[0]
        self.block = array("q", bytes(8 * len(BLOCK_SLOTS)))
        self.block[:QUERY_SLOT] = array("q", (
            best.buffer_info()[0], self.parent_addr, self.stamp_addr,
            excess.buffer_info()[0], self.target_addr, self.path_addr,
            self.out_addr, SETTLE_CAP, FLOOD_CAP,
        ))
        self.block_addr = self.block.buffer_info()[0]
        self._rows: Dict[tuple, Tuple[int, int, tuple]] = {}

    def cost_rows(self, table: tuple) -> Tuple[int, int]:
        """Addresses of int64 copies of ``table``'s two per-layer rows."""
        entry = self._rows.get(table)
        if entry is None:
            rows = (array("q", table[0]), array("q", table[1]))
            entry = (rows[0].buffer_info()[0], rows[1].buffer_info()[0], rows)
            self._rows[table] = entry
        return entry[0], entry[1]


class _Planes:
    """Scratch planes for one grid shape.

    Each backend's planes are built on its first search: the pure
    kernel's ``(best, parent, stamp)`` lists, the compiled kernel's
    :class:`_CPlanes`.  Both share one generation counter, so a search
    never reads a label another backend's search left behind.
    """

    __slots__ = ("shape", "generation", "_lists", "_c")

    def __init__(self, width: int, height: int) -> None:
        self.shape = (width, height)
        self.generation = 0
        self._lists: Optional[Tuple[List[int], List[int], List[int]]] = None
        self._c: Optional[_CPlanes] = None

    def next_generation(self) -> int:
        """O(1) reset: values are valid only where ``stamp == generation``."""
        self.generation += 1
        return self.generation

    def lists(self) -> Tuple[List[int], List[int], List[int]]:
        """The pure kernel's ``(best, parent, stamp)`` planes."""
        if self._lists is None:
            n_nodes = 2 * self.shape[0] * self.shape[1]
            self._lists = ([INF] * n_nodes, [-1] * n_nodes, [0] * n_nodes)
        return self._lists

    def c_planes(self) -> _CPlanes:
        """The compiled kernel's typed planes."""
        if self._c is None:
            self._c = _CPlanes(2 * self.shape[0] * self.shape[1])
        return self._c


_thread_local = threading.local()


def thread_planes(width: int, height: int) -> _Planes:
    """The calling thread's planes for a ``width x height`` grid.

    A thread holds one plane set; asking for another shape replaces it.
    """
    planes = getattr(_thread_local, "planes", None)
    if planes is None or planes.shape != (width, height):
        planes = _thread_local.planes = _Planes(width, height)
    return planes
