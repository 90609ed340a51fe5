"""Occupancy bookkeeping for the two-layer routing fabric.

The grid is the single source of truth about who owns which copper.  Every
router in the library — Mighty, the channel baselines, the naive maze
switchbox router — commits its result through :meth:`RoutingGrid.commit_path`
so that one verifier and one metrics module can judge them all.

Rip-up support is the delicate part: two connections of the *same* net may
legitimately share cells (a later connection is allowed to run along copper
laid by an earlier one), so the grid keeps a per-net reference count for
every node and via.  Ripping one connection only frees cells whose count
drops to zero.

Occupancy, pin ownership and vias are each stored exactly once, as a flat
C-order ``array('i')`` buffer indexed like :meth:`RoutingGrid._flat_index`
(``(layer * H + y) * W + x``; vias ``y * W + x``).  Every reader shares
that one buffer: the pure-python kernels and the connectivity index index
it directly (``occ_flat()``/``pin_flat()``), the compiled kernel passes its
address to C without a copy, and the bulk consumers — verifier, metrics,
rendering, compaction — get read-only numpy views over it
(``occupancy()``/``pin_map()``/``via_map()``).  A mutation is one write.

Undo comes in two granularities.  :meth:`clone`/:meth:`restore` snapshot
the whole grid — O(area), used sparingly for the router's coarse
best-state bookmark.  :meth:`begin_txn`/:meth:`commit_txn`/
:meth:`rollback_txn` journal only the cells a transaction actually touches,
so undoing one failed modification attempt costs O(path length), which is
what keeps the rip-up inner loop cheap.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.geometry.region import RectilinearRegion
from repro.grid.connectivity import _J_DIRTY, _J_UF, ConnectivityIndex
from repro.grid.layers import Layer
from repro.grid.path import GridNode, GridPath

FREE = 0
OBSTACLE = -1

# Journal entry tags (first tuple element of every journal record).
# Tags 5 and 6 (union-find and dirty-flag undo records) are defined by
# ``repro.grid.connectivity`` and handled in :meth:`rollback_txn`.
_J_OCC = 0   # (tag, flat_index, old_owner)
_J_VIA = 1   # (tag, flat_index, old_owner)
_J_PIN = 2   # (tag, flat_index, old_owner)
_J_USE = 3   # (tag, net_id, node, old_count)
_J_VUSE = 4  # (tag, net_id, cell, old_count)


class GridError(RuntimeError):
    """Raised when a commit/rip request is inconsistent with the grid."""


def _copy_usage(table: Dict[int, Counter]) -> Dict[int, Counter]:
    """Cheap deep copy of a usage table.

    ``Counter.copy()`` is a plain dict copy (C speed), unlike
    ``Counter(c)`` which re-counts every key; empty counters — common
    after heavy rip-up — are dropped entirely instead of copied.
    """
    return defaultdict(
        Counter, {net: usage.copy() for net, usage in table.items() if usage}
    )


class RoutingGrid:
    """A ``width x height`` two-layer routing grid.

    Parameters
    ----------
    width, height:
        Grid extents; cells are addressed ``0 <= x < width``,
        ``0 <= y < height``.
    region:
        Optional rectilinear routable region.  Cells outside it become
        obstacles on both layers.  The region's bounding box must fit within
        the grid and use non-negative coordinates.
    """

    def __init__(
        self,
        width: int,
        height: int,
        region: Optional[RectilinearRegion] = None,
    ) -> None:
        if width <= 0 or height <= 0:
            raise ValueError(f"grid extents must be positive, got {width}x{height}")
        self.width = width
        self.height = height
        plane = width * height
        self._occ = array("i", [FREE]) * (2 * plane)
        self._via = array("i", [FREE]) * plane
        self._pin = array("i", [FREE]) * (2 * plane)
        self._usage: Dict[int, Counter] = defaultdict(Counter)
        self._via_usage: Dict[int, Counter] = defaultdict(Counter)
        self._journal: Optional[list] = None
        self._journal_peak = 0
        if region is not None:
            bbox = region.bbox
            if bbox.x0 < 0 or bbox.y0 < 0 or bbox.x1 > width or bbox.y1 > height:
                raise ValueError(
                    f"region bbox {bbox} does not fit a {width}x{height} grid"
                )
            blocked = ~np.pad(
                region.mask(),
                (
                    (bbox.y0, height - bbox.y1),
                    (bbox.x0, width - bbox.x1),
                ),
                constant_values=False,
            )
            occ = np.frombuffer(self._occ, dtype=np.intc)
            occ.reshape(2, height, width)[:, blocked] = OBSTACLE
        self._connectivity = ConnectivityIndex(len(self._occ))

    # ------------------------------------------------------------------
    # Pickling (process-pool workers ship grids across processes)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Drop the connectivity index; it is rebuilt, all-dirty, on load."""
        if self._journal is not None:
            raise GridError("cannot pickle a grid with an open transaction")
        state = self.__dict__.copy()
        del state["_connectivity"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._connectivity = ConnectivityIndex(len(self._occ))
        self._connectivity.invalidate_all(self)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def in_bounds(self, x: int, y: int) -> bool:
        """True when ``(x, y)`` addresses a cell of the grid."""
        return 0 <= x < self.width and 0 <= y < self.height

    def owner(self, node: Tuple[int, int, int]) -> int:
        """Net id occupying ``node`` (``FREE`` or ``OBSTACLE`` otherwise)."""
        x, y, layer = node
        if not self.in_bounds(x, y):
            return OBSTACLE
        return self._occ[(layer * self.height + y) * self.width + x]

    def via_owner(self, x: int, y: int) -> int:
        """Net id of the via at ``(x, y)``, or ``FREE``."""
        return self._via[y * self.width + x]

    def pin_owner(self, node: Tuple[int, int, int]) -> int:
        """Net id whose pin sits at ``node``, or ``FREE``."""
        x, y, layer = node
        if not self.in_bounds(x, y):
            return FREE
        return self._pin[(layer * self.height + y) * self.width + x]

    def is_free(self, node: Tuple[int, int, int]) -> bool:
        """True when ``node`` is unoccupied and not an obstacle."""
        return self.owner(node) == FREE

    def is_obstacle(self, node: Tuple[int, int, int]) -> bool:
        """True when ``node`` is a hard obstacle (or out of bounds)."""
        return self.owner(node) == OBSTACLE

    def net_nodes(self, net_id: int) -> List[GridNode]:
        """All nodes currently owned by ``net_id`` (pins included)."""
        return sorted(self._usage.get(net_id, Counter()))

    def net_vias(self, net_id: int) -> List[Point]:
        """All via cells currently owned by ``net_id``."""
        return sorted(self._via_usage.get(net_id, Counter()))

    def net_ids(self) -> List[int]:
        """Ids of nets that currently own at least one node."""
        return sorted(n for n, usage in self._usage.items() if usage)

    @staticmethod
    def _view(store: array, shape: Tuple[int, ...]) -> np.ndarray:
        """Read-only numpy view (no copy) over one of the flat stores."""
        view = np.frombuffer(store, dtype=np.intc).reshape(shape)
        view.flags.writeable = False
        return view

    def occupancy(self) -> np.ndarray:
        """Read-only occupancy view of shape ``(2, height, width)``.

        Exposed for the bulk consumers (verifier, metrics, rendering); it
        aliases the grid's one occupancy store, so later mutations show
        through.  The search kernels use :meth:`occ_flat`.
        """
        return self._view(self._occ, (2, self.height, self.width))

    def pin_map(self) -> np.ndarray:
        """Read-only pin-ownership view of shape ``(2, height, width)``."""
        return self._view(self._pin, (2, self.height, self.width))

    def via_map(self) -> np.ndarray:
        """Read-only via-ownership view of shape ``(height, width)``."""
        return self._view(self._via, (self.height, self.width))

    def occ_flat(self) -> array:
        """The occupancy store itself: flat ``array('i')``, C-order
        ``(layer, y, x)``.

        The search kernels index it per cell (pure python) or pass its
        address to C (``buffer_info()[0]``).  Callers MUST treat it as
        read-only; only grid mutations write it.
        """
        return self._occ

    def pin_flat(self) -> array:
        """The pin-ownership store, flat C-order ``(layer, y, x)``; read-only."""
        return self._pin

    # ------------------------------------------------------------------
    # Change journal (transactions)
    # ------------------------------------------------------------------
    def begin_txn(self) -> None:
        """Start recording changes for a cheap :meth:`rollback_txn`.

        Transactions do not nest: the single caller that needs undo (the
        router's all-or-nothing weak modification) is not reentrant, and
        refusing nesting catches leaked transactions early.
        """
        if self._journal is not None:
            raise GridError("transaction already open (no nesting)")
        self._journal = []

    def commit_txn(self) -> None:
        """Keep every change since :meth:`begin_txn`; drop the journal."""
        if self._journal is None:
            raise GridError("no open transaction to commit")
        self._journal_peak = max(self._journal_peak, len(self._journal))
        self._journal = None

    def rollback_txn(self) -> None:
        """Undo every change since :meth:`begin_txn`, newest first.

        Cost is proportional to the number of journaled cell touches —
        O(path length) per undone attempt — not to the grid area.
        """
        journal = self._journal
        if journal is None:
            raise GridError("no open transaction to roll back")
        self._journal_peak = max(self._journal_peak, len(journal))
        self._journal = None  # undo writes below must not be re-journaled
        occ, pin, via = self._occ, self._pin, self._via
        connectivity = self._connectivity
        connectivity.drop_caches()
        for entry in reversed(journal):
            tag = entry[0]
            if tag == _J_OCC:
                _, index, old = entry
                occ[index] = old
            elif tag == _J_USE:
                _, net_id, key, old = entry
                usage = self._usage[net_id]
                if old:
                    usage[key] = old
                else:
                    usage.pop(key, None)
            elif tag == _J_UF:
                _, index, old_parent, old_rank = entry
                connectivity.undo_uf(index, old_parent, old_rank)
            elif tag == _J_DIRTY:
                _, net_id, was_dirty = entry
                connectivity.undo_dirty(net_id, was_dirty)
            elif tag == _J_VIA:
                _, index, old = entry
                via[index] = old
            elif tag == _J_VUSE:
                _, net_id, key, old = entry
                usage = self._via_usage[net_id]
                if old:
                    usage[key] = old
                else:
                    usage.pop(key, None)
            else:  # _J_PIN
                _, index, old = entry
                pin[index] = old

    @property
    def in_txn(self) -> bool:
        """True while a transaction is open."""
        return self._journal is not None

    @property
    def journal_depth(self) -> int:
        """Entries recorded by the currently open transaction (0 if none)."""
        return len(self._journal) if self._journal is not None else 0

    @property
    def journal_peak_depth(self) -> int:
        """Largest journal any transaction on this grid ever reached."""
        return self._journal_peak

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def _flat_index(self, node: Tuple[int, int, int]) -> int:
        """Flat C-order id of ``(x, y, layer)``; the one place the
        ``(layer * H + y) * W + x`` arithmetic lives."""
        x, y, layer = node
        return (layer * self.height + y) * self.width + x

    def _path_indices(self, path: GridPath) -> List[Tuple[int, GridNode]]:
        """``(flat_index, node)`` pairs for every node of ``path``.

        Computed once per commit/rip and shared by the occupancy, pin and
        usage updates (and the connectivity hooks) instead of re-deriving
        the index per table.
        """
        height, width = self.height, self.width
        return [
            ((node.layer * height + node.y) * width + node.x, node)
            for node in path
        ]

    def set_obstacle(
        self, x: int, y: int, layer: Optional[Layer] = None
    ) -> None:
        """Turn a cell (on one layer, or both when ``layer is None``) into a
        hard obstacle.  The cell must currently be free."""
        layers: Iterable[int] = (0, 1) if layer is None else (int(layer),)
        for l in layers:
            index = (l * self.height + y) * self.width + x
            current = self._occ[index]
            if current not in (FREE, OBSTACLE):
                raise GridError(
                    f"cannot place obstacle over net {current} at ({x},{y},{l})"
                )
            if self._journal is not None:
                self._journal.append((_J_OCC, index, current))
            self._occ[index] = OBSTACLE

    def reserve_pin(self, net_id: int, node: Tuple[int, int, int]) -> None:
        """Permanently claim ``node`` for ``net_id`` as a pin.

        Pin nodes are never freed by rip-up, and the maze searcher treats
        other nets' pins as impassable even during weak/strong modification
        (pins cannot be pushed aside).
        """
        self._check_net_id(net_id)
        x, y, layer = node
        current = self.owner(node)
        if current not in (FREE, net_id):
            raise GridError(
                f"pin of net {net_id} collides with {current} at {tuple(node)}"
            )
        key = GridNode(x, y, Layer(layer))
        index = self._flat_index((x, y, int(layer)))
        usage = self._usage[net_id]
        if self._journal is not None:
            self._journal.append((_J_OCC, index, self._occ[index]))
            self._journal.append((_J_PIN, index, self._pin[index]))
            self._journal.append((_J_USE, net_id, key, usage.get(key, 0)))
        self._occ[index] = net_id
        self._pin[index] = net_id
        usage[key] += 1
        if current == FREE:
            self._connectivity.note_node_added(self, net_id, index, x, y)

    def commit_path(self, net_id: int, path: GridPath) -> None:
        """Claim every node and via of ``path`` for ``net_id``.

        Every node must be free or already owned by ``net_id``; every via
        cell must be via-free or already a via of ``net_id``.  The check is
        performed in full before any mutation, so a failed commit leaves the
        grid untouched.
        """
        self._check_net_id(net_id)
        occ = self._occ
        width = self.width
        indexed = self._path_indices(path)
        for index, node in indexed:
            current = occ[index]
            if current != FREE and current != net_id:
                raise GridError(
                    f"net {net_id} collides with {current} at {tuple(node)}"
                )
        via_cells = path.via_cells()
        for cell in via_cells:
            current = self.via_owner(cell.x, cell.y)
            if current not in (FREE, net_id):
                raise GridError(
                    f"via of net {net_id} collides with {current} at {tuple(cell)}"
                )
        journal = self._journal
        usage = self._usage[net_id]
        connectivity = self._connectivity
        for index, node in indexed:
            if journal is not None:
                journal.append((_J_OCC, index, occ[index]))
                journal.append((_J_USE, net_id, node, usage.get(node, 0)))
            was_free = occ[index] == FREE
            occ[index] = net_id
            usage[node] += 1
            if was_free:
                connectivity.note_node_added(
                    self, net_id, index, node.x, node.y
                )
        via = self._via
        via_usage = self._via_usage[net_id]
        for cell in via_cells:
            index = cell.y * width + cell.x
            if journal is not None:
                journal.append((_J_VIA, index, via[index]))
                journal.append((_J_VUSE, net_id, cell, via_usage.get(cell, 0)))
            was_free = via[index] == FREE
            via[index] = net_id
            via_usage[cell] += 1
            if was_free:
                connectivity.note_via_added(self, net_id, cell.x, cell.y)

    def remove_path(self, net_id: int, path: GridPath) -> None:
        """Release ``path``'s claim; frees cells whose count drops to zero.

        Pin nodes keep their standing pin reference and therefore survive.
        """
        usage = self._usage[net_id]
        indexed = self._path_indices(path)
        for index, node in indexed:
            if usage[node] <= 0:
                raise GridError(
                    f"net {net_id} does not own {tuple(node)}; cannot rip"
                )
        width = self.width
        journal = self._journal
        occ = self._occ
        freed = False
        for index, node in indexed:
            if journal is not None:
                journal.append((_J_USE, net_id, node, usage[node]))
            usage[node] -= 1
            if usage[node] == 0:
                del usage[node]
                if journal is not None:
                    journal.append((_J_OCC, index, occ[index]))
                occ[index] = FREE
                freed = True
        via_usage = self._via_usage[net_id]
        via = self._via
        for cell in path.via_cells():
            if via_usage[cell] <= 0:
                raise GridError(
                    f"net {net_id} does not own via at {tuple(cell)}; cannot rip"
                )
            if journal is not None:
                journal.append((_J_VUSE, net_id, cell, via_usage[cell]))
            via_usage[cell] -= 1
            if via_usage[cell] == 0:
                del via_usage[cell]
                index = cell.y * width + cell.x
                if journal is not None:
                    journal.append((_J_VIA, index, via[index]))
                via[index] = FREE
                freed = True
        if freed:
            # A union-find cannot split: mark the net for a scoped
            # re-flood on its next connectivity query.
            self._connectivity.note_removed(self, net_id)

    # ------------------------------------------------------------------
    # Snapshots (the coarse, whole-grid undo; transactions are the cheap one)
    # ------------------------------------------------------------------
    def clone(self) -> "RoutingGrid":
        """Deep copy of the grid, usable as an undo point.

        O(area); the router uses this only for its coarse best-state
        bookmark.  Per-attempt undo goes through the O(path) transaction
        journal instead.
        """
        copy = RoutingGrid.__new__(RoutingGrid)
        copy.width = self.width
        copy.height = self.height
        copy._occ = self._occ[:]
        copy._via = self._via[:]
        copy._pin = self._pin[:]
        copy._usage = _copy_usage(self._usage)
        copy._via_usage = _copy_usage(self._via_usage)
        copy._journal = None
        copy._journal_peak = 0
        # A fresh index marked all-dirty is cheaper than copying the live
        # structure; snapshots are queried rarely (if ever) before mutation.
        copy._connectivity = ConnectivityIndex(len(copy._occ))
        copy._connectivity.invalidate_all(copy)
        return copy

    def restore(self, snapshot: "RoutingGrid") -> None:
        """Reset this grid to the state captured by :meth:`clone`."""
        if (snapshot.width, snapshot.height) != (self.width, self.height):
            raise GridError("snapshot geometry mismatch")
        if self._journal is not None:
            raise GridError("cannot restore() while a transaction is open")
        # Equal-length slice assignment copies in place, so buffers handed
        # out earlier (numpy views, kernel addresses) stay valid.
        self._occ[:] = snapshot._occ
        self._via[:] = snapshot._via
        self._pin[:] = snapshot._pin
        self._usage = _copy_usage(snapshot._usage)
        self._via_usage = _copy_usage(snapshot._via_usage)
        self._connectivity.invalidate_all(self)

    # ------------------------------------------------------------------
    # Connectivity (incremental index; BFS oracle kept for reference)
    # ------------------------------------------------------------------
    def same_component(
        self,
        net_id: int,
        a: Tuple[int, int, int],
        b: Tuple[int, int, int],
    ) -> bool:
        """True when ``a`` and ``b`` are both owned by ``net_id`` and
        connected through its copper.

        Answered by the incremental connectivity index: O(log component)
        after at most one scoped re-flood of the net's copper — never a
        whole-grid flood.  Agrees with :meth:`connected_component`
        membership on every honestly-maintained grid (the differential
        tests assert this bit-for-bit).
        """
        ax, ay, _ = a
        bx, by, _ = b
        if not (self.in_bounds(ax, ay) and self.in_bounds(bx, by)):
            return False
        ia = self._flat_index(a)
        ib = self._flat_index(b)
        occ = self._occ
        if occ[ia] != net_id or occ[ib] != net_id:
            return False
        return self._connectivity.same_component(self, net_id, ia, ib)

    def component_nodes(
        self, net_id: int, seed: Tuple[int, int, int]
    ) -> List[GridNode]:
        """Nodes of the ``net_id`` component containing ``seed``, as a
        cached flat list (empty when ``seed`` is not owned by the net).

        The list is shared with the index's cache: treat it as read-only.
        Use :meth:`connected_component` when a mutable set is wanted.
        """
        x, y, _ = seed
        if not self.in_bounds(x, y):
            return []
        idx = self._flat_index(seed)
        if self._occ[idx] != net_id:
            return []
        return self._connectivity.component_nodes(self, net_id, idx)

    def refresh_connectivity(self, net_id: Optional[int] = None) -> None:
        """Force the index to re-derive from the occupancy/via arrays.

        With ``net_id`` one net is invalidated, otherwise every net.  The
        independent verifier calls this before its connectivity checks so
        its queries re-flood from the copper itself instead of trusting
        incrementally-maintained state.
        """
        if net_id is None:
            self._connectivity.invalidate_all(self)
        else:
            self._connectivity.invalidate(net_id)

    @property
    def connectivity_index(self) -> ConnectivityIndex:
        """The live index (exposed for tests and diagnostics)."""
        return self._connectivity

    def connected_component(
        self, net_id: int, seed: Tuple[int, int, int]
    ) -> Set[GridNode]:
        """Nodes of ``net_id`` reachable from ``seed`` through its copper.

        Adjacency is a unit wire step on the same layer, or a layer change at
        a cell where the net owns a via.

        This is the from-scratch BFS reference implementation — O(component)
        per call.  Hot paths (router, improvement pass, verifier) use the
        incremental index via :meth:`same_component`/:meth:`component_nodes`;
        the BFS remains the oracle the differential tests compare against.
        """
        seed_node = GridNode(seed[0], seed[1], Layer(seed[2]))
        if self.owner(seed_node) != net_id:
            return set()
        seen = {seed_node}
        stack = [seed_node]
        while stack:
            node = stack.pop()
            candidates = [
                GridNode(node.x + 1, node.y, node.layer),
                GridNode(node.x - 1, node.y, node.layer),
                GridNode(node.x, node.y + 1, node.layer),
                GridNode(node.x, node.y - 1, node.layer),
            ]
            if (
                self.in_bounds(node.x, node.y)
                and self.via_owner(node.x, node.y) == net_id
            ):
                candidates.append(GridNode(node.x, node.y, node.layer.other))
            for cand in candidates:
                if cand not in seen and self.owner(cand) == net_id:
                    seen.add(cand)
                    stack.append(cand)
        return seen

    @staticmethod
    def _check_net_id(net_id: int) -> None:
        if net_id <= 0:
            raise ValueError(f"net ids must be positive, got {net_id}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        nets = len([n for n in self._usage if self._usage[n]])
        return f"RoutingGrid({self.width}x{self.height}, nets={nets})"

    def iter_nodes(self) -> Iterator[GridNode]:
        """Yield every grid node (both layers, row-major)."""
        for layer in (Layer.HORIZONTAL, Layer.VERTICAL):
            for y in range(self.height):
                for x in range(self.width):
                    yield GridNode(x, y, layer)
