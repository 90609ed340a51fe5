"""Incremental per-net connectivity index for :class:`RoutingGrid`.

Profiling after the flat-array kernel work (PR 3) showed the router's wall
time dominated not by search but by its own bookkeeping — above all the
``connected_component`` BFS flood that every routing attempt, cascade
check and improvement step re-ran from scratch over a net's whole copper.
This module replaces those floods with an index that is maintained
*incrementally* by the grid's mutations and answers connectivity queries
in near-constant time on the hot path.

Design
------
The index is a **union-find over flat node ids** (``idx = (layer * H + y)
* W + x``), union-by-rank and — deliberately — *no path compression*:
every structural write is a single ``parent``/``rank`` cell assignment,
which makes the whole structure journalable through the grid's existing
``begin_txn``/``commit_txn``/``rollback_txn`` machinery.  Each write
inside a transaction appends the same ``(store, key, old)`` record as the
occupancy writes — the store being ``_parent``, ``_rank`` or the
``{net_id: bool}`` dirty map — so rolling back a failed weak-modification
attempt restores the index bit-for-bit along with the copper.

* **Additions are incremental.**  When a cell transitions ``FREE -> net``
  (``commit_path``/``reserve_pin``) the new node is activated as a
  singleton and unioned with its already-owned neighbours; a new via
  unions the two layers of its cell.  O(alpha-ish) per cell.
* **Removals invalidate.**  A union-find cannot split, so freeing any
  node or via of a net marks the net *dirty*; the next query re-floods
  that net's copper (one numpy scan of the whole occupancy buffer finds
  its cells, then O(net size) unions), rebuilding ``parent``/``rank`` from
  the grid's ground truth.  Between removals — the common case while the
  router lays copper — queries never flood.
* **Queries are cached.**  ``component_nodes`` groups a clean net's nodes
  by root once and caches the flat lists until the net changes, so the
  router's repeated "give me the source component" calls are dictionary
  hits.

Invariant (checked by ``tests/test_grid_connectivity.py`` differentially
against the BFS oracle, including under fault-injected rollback storms):
for every net not marked dirty, two owned nodes share a union-find root
iff they are connected through the net's copper exactly as
:meth:`RoutingGrid.connected_component` would report.  Dirty nets hold no
promise until the next query re-floods them.

The re-flood takes the net's cells and their adjacency from the
occupancy/via buffers alone, so :func:`RoutingGrid.refresh_connectivity`
+ queries re-derive connectivity from the copper itself — copper written
straight into the buffers included — which is what lets the independent
verifier use the index without trusting incremental history.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.grid.path import GridNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.grid.routing_grid import RoutingGrid


class ConnectivityIndex:
    """Rollback-capable union-find over a grid's flat node ids.

    Owned by exactly one :class:`RoutingGrid`; the grid calls the
    ``note_*`` hooks from its mutation methods and forwards
    ``component_nodes``/``same_component`` queries here.  All undo records
    go into the grid's open journal, if any.

    The index keeps no reference to its grid: every call that reads the
    copper takes the grid as its first argument.  A stored back-reference
    would make grid and index a reference cycle, and then no grid would
    be freed before a full cyclic garbage-collection pass.
    """

    __slots__ = ("_parent", "_rank", "_dirty", "_cache")

    def __init__(self, size: int) -> None:
        self._parent: List[int] = list(range(size))
        self._rank: List[int] = [0] * size
        #: ``True`` for nets whose structure is stale (a removal may have
        #: split them); a missing net counts as ``False``.
        self._dirty: Dict[int, bool] = {}
        #: Per-net ``{root: [GridNode, ...]}`` component lists; entries are
        #: dropped on any mutation touching the net.
        self._cache: Dict[int, Dict[int, List[GridNode]]] = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def find(self, idx: int) -> int:
        """Root of ``idx``'s tree (no path compression, by design)."""
        parent = self._parent
        while parent[idx] != idx:
            idx = parent[idx]
        return idx

    def same_component(
        self, grid: "RoutingGrid", net_id: int, a: int, b: int
    ) -> bool:
        """Whether flat nodes ``a`` and ``b`` share ``net_id`` copper.

        Callers must have checked that both nodes are owned by ``net_id``.
        """
        if self._dirty.get(net_id):
            self._reflood(grid, net_id)
        return self.find(a) == self.find(b)

    def component_nodes(
        self, grid: "RoutingGrid", net_id: int, seed: int
    ) -> List[GridNode]:
        """Cached flat list of the component containing flat node ``seed``.

        The returned list is shared with the cache — callers must treat it
        as read-only.  ``seed`` must be owned by ``net_id``.
        """
        if self._dirty.get(net_id):
            self._reflood(grid, net_id)
        groups = self._cache.get(net_id)
        if groups is None:
            groups = self._gather(grid, net_id)
            self._cache[net_id] = groups
        return groups.get(self.find(seed), [])

    def is_dirty(self, net_id: int) -> bool:
        """True when ``net_id`` awaits a re-flood (exposed for tests)."""
        return self._dirty.get(net_id, False)

    # ------------------------------------------------------------------
    # Mutation hooks (called by RoutingGrid)
    # ------------------------------------------------------------------
    def note_node_added(
        self, grid: "RoutingGrid", net_id: int, idx: int, x: int, y: int
    ) -> None:
        """A cell just transitioned ``FREE -> net_id`` at flat id ``idx``."""
        self._cache.pop(net_id, None)
        if self._dirty.get(net_id):
            return  # the pending re-flood will pick the node up
        journal = grid._journal
        self._make_singleton(idx, journal)
        occ = grid._occ
        width, height = grid.width, grid.height
        if x + 1 < width and occ[idx + 1] == net_id:
            self._union(idx, idx + 1, journal)
        if x > 0 and occ[idx - 1] == net_id:
            self._union(idx, idx - 1, journal)
        if y + 1 < height and occ[idx + width] == net_id:
            self._union(idx, idx + width, journal)
        if y > 0 and occ[idx - width] == net_id:
            self._union(idx, idx - width, journal)
        if grid._via[y * width + x] == net_id:
            plane = width * height
            other = idx + plane if idx < plane else idx - plane
            if occ[other] == net_id:
                self._union(idx, other, journal)

    def note_via_added(
        self, grid: "RoutingGrid", net_id: int, x: int, y: int
    ) -> None:
        """A via of ``net_id`` appeared at ``(x, y)``: bridge the layers."""
        self._cache.pop(net_id, None)
        if self._dirty.get(net_id):
            return
        width = grid.width
        idx0 = y * width + x
        plane = width * grid.height
        occ = grid._occ
        if occ[idx0] == net_id and occ[idx0 + plane] == net_id:
            self._union(idx0, idx0 + plane, grid._journal)

    def note_removed(self, grid: "RoutingGrid", net_id: int) -> None:
        """A node or via of ``net_id`` was freed: the component may split."""
        self._cache.pop(net_id, None)
        if self._dirty.get(net_id):
            return
        if grid._journal is not None:
            grid._journal.append((self._dirty, net_id, False))
        self._dirty[net_id] = True

    def drop_caches(self) -> None:
        """Forget every cached component list (rollback/restore path)."""
        self._cache.clear()

    def invalidate_all(self, grid: "RoutingGrid") -> None:
        """Mark every net with copper dirty; next queries re-derive from
        the occupancy/via buffers alone (restore/unpickle/verifier path)."""
        self._dirty = dict.fromkeys(grid.net_ids(), True)
        self._cache.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _make_singleton(self, idx: int, journal) -> None:
        """Reset ``idx`` to a rank-0 root of its own."""
        parent, rank = self._parent, self._rank
        if journal is not None:
            journal.append((parent, idx, parent[idx]))
            journal.append((rank, idx, rank[idx]))
        parent[idx] = idx
        rank[idx] = 0

    def _union(self, a: int, b: int, journal) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        parent, rank = self._parent, self._rank
        if rank[ra] < rank[rb]:
            ra, rb = rb, ra
        if journal is not None:
            journal.append((parent, rb, parent[rb]))
        parent[rb] = ra
        if rank[ra] == rank[rb]:
            if journal is not None:
                journal.append((rank, ra, rank[ra]))
            rank[ra] += 1

    def _reflood(self, grid: "RoutingGrid", net_id: int) -> None:
        """Rebuild ``net_id``'s structure from the grid's ground truth.

        The net's cells come from one numpy scan of the whole occupancy
        buffer (O(grid)); the union work is O(net copper).
        """
        journal = grid._journal
        occ = grid._occ
        via = grid._via
        width = grid.width
        plane = grid.height * width
        nodes = grid._owned(occ, net_id)
        for idx in nodes:
            self._make_singleton(idx, journal)
        union = self._union
        for idx in nodes:
            if (idx + 1) % width and occ[idx + 1] == net_id:
                union(idx, idx + 1, journal)
            if idx % plane + width < plane and occ[idx + width] == net_id:
                union(idx, idx + width, journal)
            if (
                idx < plane
                and via[idx] == net_id
                and occ[idx + plane] == net_id
            ):
                union(idx, idx + plane, journal)
        if journal is not None:
            journal.append((self._dirty, net_id, True))
        self._dirty[net_id] = False
        self._cache.pop(net_id, None)

    def _gather(
        self, grid: "RoutingGrid", net_id: int
    ) -> Dict[int, List[GridNode]]:
        """Group the net's owned nodes by component root."""
        find = self.find
        groups: Dict[int, List[GridNode]] = {}
        for idx in grid._owned(grid._occ, net_id):
            node = grid._node(idx)
            root = find(idx)
            bucket = groups.get(root)
            if bucket is None:
                groups[root] = bucket = [node]
            else:
                bucket.append(node)
        return groups
