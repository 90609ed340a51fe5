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
stored exactly once, as a flat C-order ``array('i')`` buffer indexed by
flat id (:func:`~repro.grid.path.flat_id`, ``(layer * H + y) * W + x``;
vias and their counts ``y * W + x``).  Every node query converts through
that one checked helper, and a via query checks its cell, so a node or
cell outside the grid, a node's layer included, reads as off the grid
rather than wrapping onto another cell.  A count belongs to whichever net
the cell's occupancy or via entry names, so ownership itself is recorded
once.  Every reader shares the one buffer: the pure-python kernels and
the connectivity flood index it directly (``occ_flat()``/``pin_flat()``),
the compiled kernel passes its address to C without a copy, and the bulk
consumers — verifier, metrics and the renderers — get read-only numpy
views over it (``occupancy()``/``pin_map()``/``via_map()``).  A net's
cells are found by one numpy scan of the buffer.

Undo comes in two granularities.  :meth:`clone`/:meth:`restore` copy the
five buffers — O(area), used sparingly for the router's coarse best-state
bookmark.  :meth:`begin_txn`/:meth:`commit_txn`/:meth:`rollback_txn`
journal only the cells a transaction actually touches, so undoing one
failed modification attempt costs O(path length), which is what keeps the
rip-up inner loop cheap.  Every journal record is ``(store, key, old)``:
the buffer written, the index, and the value it held.

Paths built from flat ids (the router's) are committed and ripped by
their ids directly; a path built from nodes is converted once per call.

Connectivity queries flood a net's copper over the flat stores from the
queried node and cache the component, an ascending list of flat ids,
under each of its members.  The router, the improvement phase, YACR-lite
and the woven generators read those lists directly
(:meth:`RoutingGrid.component_ids`); :meth:`RoutingGrid.component_nodes`
is their node view.  A write that can change a net's components drops
that net's cache entry; rollback, restore and unpickling drop them all,
so the journal records copper only.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.region import RectilinearRegion
from repro.grid.layers import Layer
from repro.grid.path import GridNode, GridPath, PathError, flat_id, node_at

FREE = 0
OBSTACLE = -1


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
        #: ``{net_id: {flat id: component}}``; every member of a cached
        #: component maps to the one shared ascending list of flat ids.
        self._components: Dict[int, Dict[int, List[int]]] = {}
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

    # ------------------------------------------------------------------
    # Pickling (process-pool workers ship grids across processes)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle the stores; the copy starts with no cached components."""
        if self._journal is not None:
            raise GridError("cannot pickle a grid with an open transaction")
        state = self.__dict__.copy()
        state["_components"] = {}
        return state

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def in_bounds(self, x: int, y: int) -> bool:
        """True when ``(x, y)`` addresses a cell of the grid."""
        return 0 <= x < self.width and 0 <= y < self.height

    def owner(self, node: Tuple[int, int, int]) -> int:
        """Net id occupying ``node`` (``FREE`` or ``OBSTACLE`` otherwise)."""
        index = flat_id(node, self.width, self.height)
        return OBSTACLE if index is None else self._occ[index]

    def via_owner(self, x: int, y: int) -> int:
        """Net id of the via at ``(x, y)``, or ``FREE`` (off the grid too)."""
        if self.in_bounds(x, y):
            return self._via[y * self.width + x]
        return FREE

    def pin_owner(self, node: Tuple[int, int, int]) -> int:
        """Net id whose pin sits at ``node``, or ``FREE``."""
        index = flat_id(node, self.width, self.height)
        return FREE if index is None else self._pin[index]

    def is_free(self, node: Tuple[int, int, int]) -> bool:
        """True when ``node`` is unoccupied and not an obstacle."""
        return self.owner(node) == FREE

    def net_nodes(self, net_id: int) -> List[GridNode]:
        """All nodes currently owned by ``net_id`` (pins included)."""
        occ = np.frombuffer(self._occ, dtype=np.intc)
        return sorted(map(self._node, np.flatnonzero(occ == net_id).tolist()))

    def net_ids(self) -> List[int]:
        """Ids of nets that currently own at least one node."""
        occ = np.frombuffer(self._occ, dtype=np.intc)
        return np.unique(occ[occ > 0]).tolist()

    def _node(self, index: int) -> GridNode:
        """The node at flat id ``index``."""
        return node_at(index, self.width, self.height)

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
        self._components.clear()
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
    def _path_ids(self, path: GridPath) -> Sequence[int]:
        """Flat ids of ``path``'s nodes on this grid: the path's own ids
        when it was built from them for this shape."""
        try:
            return path.ids_on(self.width, self.height)
        except PathError as exc:
            raise GridError(str(exc)) from None

    def _via_cells(self, ids: Sequence[int]) -> List[int]:
        """Cell index ``y * W + x`` of every layer change along ``ids``."""
        plane = self.width * self.height
        return [
            a % plane
            for a, b in zip(ids, ids[1:])
            if (a < plane) != (b < plane)
        ]

    def set_obstacle(
        self, x: int, y: int, layer: Optional[Layer] = None
    ) -> None:
        """Turn a cell (on one layer, or both when ``layer is None``) into a
        hard obstacle.  The cell must currently be free."""
        layers: Iterable[int] = (0, 1) if layer is None else (int(layer),)
        for l in layers:
            index = flat_id((x, y, l), self.width, self.height)
            if index is None:
                raise GridError(f"obstacle at ({x},{y},{l}) is off the grid")
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
        index = flat_id(node, self.width, self.height)
        current = OBSTACLE if index is None else self._occ[index]
        if current not in (FREE, net_id):
            raise GridError(
                f"pin of net {net_id} collides with {current} at {tuple(node)}"
            )
        if self._journal is not None:
            for store in (self._occ, self._pin, self._use):
                self._journal.append((store, index, store[index]))
        self._occ[index] = net_id
        self._pin[index] = net_id
        self._use[index] += 1
        self._components.pop(net_id, None)

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
        ids = self._path_ids(path)
        for index in ids:
            current = occ[index]
            if current != FREE and current != net_id:
                raise GridError(
                    f"net {net_id} collides with {current} at "
                    f"{tuple(self._node(index))}"
                )
        via_cells = self._via_cells(ids)
        via = self._via
        for cell in via_cells:
            current = via[cell]
            if current != FREE and current != net_id:
                raise GridError(
                    f"via of net {net_id} collides with {current} at "
                    f"{(cell % width, cell // width)}"
                )
        self._components.pop(net_id, None)
        journal = self._journal
        use = self._use
        for index in ids:
            if journal is not None:
                journal.append((occ, index, occ[index]))
                journal.append((use, index, use[index]))
            occ[index] = net_id
            use[index] += 1
        vuse = self._vuse
        for cell in via_cells:
            if journal is not None:
                journal.append((via, cell, via[cell]))
                journal.append((vuse, cell, vuse[cell]))
            via[cell] = net_id
            vuse[cell] += 1

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
        ids = self._path_ids(path)
        for index in ids:
            if occ[index] != net_id or use[index] <= 0:
                raise GridError(
                    f"net {net_id} does not own {tuple(self._node(index))}; "
                    "cannot rip"
                )
        via_cells = self._via_cells(ids)
        for cell in via_cells:
            if via[cell] != net_id or vuse[cell] <= 0:
                raise GridError(
                    f"net {net_id} does not own via at "
                    f"{(cell % width, cell // width)}; cannot rip"
                )
        freed = self._release(occ, use, ids)
        freed = self._release(via, vuse, via_cells) or freed
        if freed:
            self._components.pop(net_id, None)

    def _release(
        self, store: array, counts: array, indices: Sequence[int]
    ) -> bool:
        """Drop one reference per index; free the cells whose count
        reaches zero.  Returns whether any cell was freed."""
        journal = self._journal
        freed = False
        for index in indices:
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
        copy._components = {}
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
        self._components.clear()

    # ------------------------------------------------------------------
    # Connectivity (cached floods)
    # ------------------------------------------------------------------
    def same_component(
        self,
        net_id: int,
        a: Tuple[int, int, int],
        b: Tuple[int, int, int],
    ) -> bool:
        """True when ``a`` and ``b`` are both owned by ``net_id`` and
        connected through its copper.

        The node form of :meth:`same_component_ids`.
        """
        ia = flat_id(a, self.width, self.height)
        ib = flat_id(b, self.width, self.height)
        if ia is None or ib is None:
            return False
        return self.same_component_ids(net_id, ia, ib)

    def same_component_ids(self, net_id: int, a: int, b: int) -> bool:
        """True when flat nodes ``a`` and ``b`` are both owned by
        ``net_id`` and connected through its copper.

        Floods ``a``'s component on a cache miss, O(component), and then
        looks ``b`` up among its cached members.
        """
        occ = self._occ
        if not (0 <= a < len(occ) and 0 <= b < len(occ)):
            return False
        if occ[a] != net_id or occ[b] != net_id:
            return False
        component = self._component(net_id, a)
        return self._components[net_id].get(b) is component

    def component_nodes(
        self, net_id: int, seed: Tuple[int, int, int]
    ) -> List[GridNode]:
        """Nodes of the ``net_id`` component containing ``seed``, in
        ascending flat order (empty when ``seed`` is not owned by the net).

        A node view of :meth:`component_ids`, built on every call.
        """
        index = flat_id(seed, self.width, self.height)
        if index is None:
            return []
        return [self._node(i) for i in self.component_ids(net_id, index)]

    def component_ids(self, net_id: int, seed: int) -> List[int]:
        """Ascending flat ids of the ``net_id`` component containing flat
        node ``seed`` (empty when the net does not own ``seed``).

        The list is the component cache's own: treat it as read-only.
        """
        occ = self._occ
        if not 0 <= seed < len(occ) or occ[seed] != net_id:
            return []
        return self._component(net_id, seed)

    def refresh_connectivity(self) -> None:
        """Drop every cached component, so the next queries flood the
        occupancy/via stores afresh.

        Nothing in the library calls this.  It stays because the
        end-to-end benchmark's tracer (``benchmarks/e2e/tracer.py``) binds
        it by name; it can go once the tracer stops binding names.
        """
        self._components.clear()

    def _component(self, net_id: int, seed: int) -> List[int]:
        """The cached component of owned flat node ``seed``; on a miss,
        flood it and cache it under every member.

        Adjacency is a unit step on one layer, or a layer change where
        the net owns the cell's via: the same as the from-scratch BFS
        that the tests hold every answer to (``tests/bfs_oracle.py``).
        """
        members = self._components.setdefault(net_id, {})
        component = members.get(seed)
        if component is not None:
            return component
        occ, via = self._occ, self._via
        width = self.width
        plane = width * self.height
        seen = {seed}
        stack = [seed]
        while stack:
            idx = stack.pop()
            cell = idx % plane
            x = cell % width
            for near in (
                idx + 1 if x + 1 < width else -1,
                idx - 1 if x else -1,
                idx + width if cell + width < plane else -1,
                idx - width if cell >= width else -1,
                (idx + plane if idx < plane else cell)
                if via[cell] == net_id
                else -1,
            ):
                if near >= 0 and near not in seen and occ[near] == net_id:
                    seen.add(near)
                    stack.append(near)
        component = sorted(seen)
        members.update(dict.fromkeys(component, component))
        return component

    @staticmethod
    def _check_net_id(net_id: int) -> None:
        if net_id <= 0:
            raise ValueError(f"net ids must be positive, got {net_id}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        nets = len(self.net_ids())
        return f"RoutingGrid({self.width}x{self.height}, nets={nets})"
