"""Occupancy bookkeeping for the two-layer routing fabric.

The grid is the single source of truth about who owns which copper.  Every
router in the library — Mighty, the channel baselines, the naive maze
switchbox router — commits its result through :meth:`RoutingGrid.commit_path`
so that one verifier and one metrics module can judge them all.

Rip-up support is the delicate part: two connections of the *same* net may
legitimately share cells (a later connection is allowed to run along copper
laid by an earlier one), so the grid keeps a reference count for every node
and via.  Ripping one connection only frees cells whose count drops to zero.

Occupancy, pin ownership, vias and the two reference counts are each
stored exactly once, as a flat C-order ``array('i')`` buffer indexed like
:meth:`RoutingGrid._flat_index` (``(layer * H + y) * W + x``; vias and
their counts ``y * W + x``).  A count belongs to whichever net the cell's
occupancy or via entry names, so ownership itself is recorded once.  Every
reader shares the one buffer: the pure-python kernels and the connectivity
index index it directly (``occ_flat()``/``pin_flat()``), the compiled
kernel passes its address to C without a copy, and the bulk consumers —
verifier, metrics, rendering, compaction — get read-only numpy views over
it (``occupancy()``/``pin_map()``/``via_map()``).  A net's cells are found
by one numpy scan of the buffer.

Undo comes in two granularities.  :meth:`clone`/:meth:`restore` copy the
five buffers — O(area), used sparingly for the router's coarse best-state
bookmark.  :meth:`begin_txn`/:meth:`commit_txn`/:meth:`rollback_txn`
journal only the cells a transaction actually touches, so undoing one
failed modification attempt costs O(path length), which is what keeps the
rip-up inner loop cheap.  Every journal record is ``(store, key, old)``:
the buffer, list or dict written, the index or key, and the value it held.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.geometry.region import RectilinearRegion
from repro.grid.connectivity import ConnectivityIndex
from repro.grid.layers import Layer
from repro.grid.path import GridNode, GridPath

FREE = 0
OBSTACLE = -1

_LAYERS = tuple(Layer)


class GridError(RuntimeError):
    """Raised when a commit/rip request is inconsistent with the grid."""


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
        self._use = array("i", [0]) * (2 * plane)
        self._vuse = array("i", [0]) * plane
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
        return sorted(map(self._node, self._owned(self._occ, net_id)))

    def net_vias(self, net_id: int) -> List[Point]:
        """All via cells currently owned by ``net_id``."""
        width = self.width
        return sorted(
            Point(index % width, index // width)
            for index in self._owned(self._via, net_id)
        )

    def net_ids(self) -> List[int]:
        """Ids of nets that currently own at least one node."""
        occ = np.frombuffer(self._occ, dtype=np.intc)
        return np.unique(occ[occ > 0]).tolist()

    @staticmethod
    def _owned(store: array, net_id: int) -> List[int]:
        """Ascending flat indices of the ``store`` cells ``net_id`` owns."""
        view = np.frombuffer(store, dtype=np.intc)
        return np.flatnonzero(view == net_id).tolist()

    def _node(self, index: int) -> GridNode:
        """The node at flat occupancy index ``index``."""
        plane = self.width * self.height
        y, x = divmod(index % plane, self.width)
        return GridNode(x, y, _LAYERS[index // plane])

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
        self._journal = None
        self._connectivity.drop_caches()
        for store, key, old in reversed(journal):
            store[key] = old

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

        Computed once per commit/rip and shared by the occupancy and count
        updates (and the connectivity hooks) instead of re-deriving the
        index per buffer.
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
                self._journal.append((self._occ, index, current))
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
        index = self._flat_index((x, y, int(layer)))
        if self._journal is not None:
            for store in (self._occ, self._pin, self._use):
                self._journal.append((store, index, store[index]))
        self._occ[index] = net_id
        self._pin[index] = net_id
        self._use[index] += 1
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
        use = self._use
        connectivity = self._connectivity
        for index, node in indexed:
            if journal is not None:
                journal.append((occ, index, occ[index]))
                journal.append((use, index, use[index]))
            was_free = occ[index] == FREE
            occ[index] = net_id
            use[index] += 1
            if was_free:
                connectivity.note_node_added(
                    self, net_id, index, node.x, node.y
                )
        via, vuse = self._via, self._vuse
        for cell in via_cells:
            index = cell.y * width + cell.x
            if journal is not None:
                journal.append((via, index, via[index]))
                journal.append((vuse, index, vuse[index]))
            was_free = via[index] == FREE
            via[index] = net_id
            vuse[index] += 1
            if was_free:
                connectivity.note_via_added(self, net_id, cell.x, cell.y)

    def remove_path(self, net_id: int, path: GridPath) -> None:
        """Release ``path``'s claim; frees cells whose count drops to zero.

        Every node and via cell must be owned by ``net_id`` with a live
        count.  The check is performed in full before any mutation, so a
        refused rip leaves the grid untouched.  Pin nodes keep their
        standing pin reference and therefore survive.
        """
        occ, use = self._occ, self._use
        via, vuse = self._via, self._vuse
        width = self.width
        indexed = self._path_indices(path)
        for index, node in indexed:
            if occ[index] != net_id or use[index] <= 0:
                raise GridError(
                    f"net {net_id} does not own {tuple(node)}; cannot rip"
                )
        via_indexed = [
            (cell.y * width + cell.x, cell) for cell in path.via_cells()
        ]
        for index, cell in via_indexed:
            if via[index] != net_id or vuse[index] <= 0:
                raise GridError(
                    f"net {net_id} does not own via at {tuple(cell)}; cannot rip"
                )
        freed = self._release(occ, use, indexed)
        freed = self._release(via, vuse, via_indexed) or freed
        if freed:
            # A union-find cannot split: mark the net for a scoped
            # re-flood on its next connectivity query.
            self._connectivity.note_removed(self, net_id)

    def _release(self, store: array, counts: array, indexed: list) -> bool:
        """Drop one reference per ``(index, cell)`` pair; free the cells
        whose count reaches zero.  Returns whether any cell was freed."""
        journal = self._journal
        freed = False
        for index, _ in indexed:
            if journal is not None:
                journal.append((counts, index, counts[index]))
            counts[index] -= 1
            if counts[index] == 0:
                if journal is not None:
                    journal.append((store, index, store[index]))
                store[index] = FREE
                freed = True
        return freed

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
        copy._use = self._use[:]
        copy._vuse = self._vuse[:]
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
        self._use[:] = snapshot._use
        self._vuse[:] = snapshot._vuse
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
        after at most one re-flood of the net.  A re-flood scans the whole
        occupancy buffer once (numpy) to find the net's cells and unions
        only those.  Agrees with :meth:`connected_component`
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

    def refresh_connectivity(self) -> None:
        """Force the index to re-derive every net from the occupancy/via
        buffers.

        Nothing in the library calls this.  It stays because the
        end-to-end benchmark's tracer (``benchmarks/e2e/tracer.py``) binds
        it by name; it can go once the tracer stops binding names.
        """
        self._connectivity.invalidate_all(self)

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
        per call.  Hot paths (router, improvement pass) use the incremental
        index via :meth:`same_component`/:meth:`component_nodes`; the BFS
        remains the oracle the differential tests compare both the index
        and the verifier's copper labels against.
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
        nets = len(self.net_ids())
        return f"RoutingGrid({self.width}x{self.height}, nets={nets})"
