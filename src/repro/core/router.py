"""The Mighty rip-up-and-reroute router.

The control loop implements the paper's three-tier strategy:

1. route the connection through free fabric (hard search);
2. *weak modification* — displace a small number of blocking connections,
   but only if each one can immediately be rerouted (all-or-nothing, undone
   on failure via the grid's O(path-length) change journal);
3. *strong modification* — rip the blocking connections out, commit the
   blocked connection, and re-queue the victims.

Two invariants make the router sound and finite:

* **Connection invariant** — a connection marked ``routed`` always has its
  two endpoint pins in one connected component of its net's copper.  Ripping
  a connection can orphan *siblings* of the same net that routed through its
  copper, so every rip triggers a cascade check that un-routes (and
  re-queues) any sibling whose endpoints came apart.  With the invariant
  held for every connection, whole-net connectivity follows from the MST
  decomposition.
* **Termination invariant** — every strong modification charges the victims'
  nets against a finite rip budget; a net at budget is *frozen* and can
  never be a victim again, so the number of strong modifications is bounded
  (the paper's finite-time theorem).  The loop carries an explicit iteration
  guard that raises if the bound is ever exceeded.
"""

from __future__ import annotations

import time
from collections import deque
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.config import MightyConfig
from repro.errors import EngineError
from repro.core.decompose import Connection, decompose_problem
from repro.core.ordering import order_connections
from repro.core.result import RouteEvent, RouteResult, RouteStats
from repro.grid.layers import Layer
from repro.grid.path import GridPath, PathError, flat_id
from repro.grid.routing_grid import GridError, RoutingGrid
from repro.maze.arena import SearchArena
from repro.maze.astar import SearchResult, find_path_flat

# Not called here; the end-to-end benchmark's tracer binds it by name.
from repro.maze.astar import find_path  # noqa: F401
from repro.maze.kernels import active_backend
from repro.netlist.net import Pin
from repro.netlist.problem import RoutingProblem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> router)
    from repro.engine.deadline import Deadline

#: Extra per-cell conflict penalty a soft search pays for each past rip of
#: the cell's net.  Escalation is what makes the rip-up loop converge
#: instead of thrashing: a net that keeps being ripped becomes an
#: increasingly expensive victim, steering later searches elsewhere.
RIP_ESCALATION = 10

#: Weak modification only fires when the plan displaces at most this many
#: victim connections (keeps "weak" genuinely local, as in the paper's
#: segment-pushing step).
WEAK_VICTIM_LIMIT = 3

#: A chain-cut connection is *deferred* (re-queued at the back at depth
#: zero) at most this many times per pass before it is declared failed
#: and left to the retry passes.
MAX_DEFERRALS = 3


class MightyRouter:
    """Route a :class:`RoutingProblem` with rip-up and reroute.

    A router instance is single-use: construct, call :meth:`route`, inspect
    the returned :class:`~repro.core.result.RouteResult`.  A run given a
    ``stall_limit`` may pause instead; calling :meth:`route` again resumes
    it where it stopped.
    """

    def __init__(
        self,
        problem: RoutingProblem,
        config: Optional[MightyConfig] = None,
    ) -> None:
        self.problem = problem
        self.config = config or MightyConfig()
        self._grid: RoutingGrid = problem.build_grid()
        # Scratch planes shared by every search this router issues.
        self._arena = SearchArena()
        self._net_connections: Dict[int, List[Connection]] = {}
        self._net_rips: Dict[int, int] = {}
        self._budgets: Dict[int, int] = {}
        self._frozen: Set[int] = set()
        self._events: List[RouteEvent] = []
        self._stats = RouteStats()
        self._step = 0
        # Connections whose ``routed`` flag is set; every flip goes
        # through ``_set_routed``, so no event or iteration recounts.
        self._routed_count = 0
        # Set while a call runs and once one has returned a result (or
        # raised); cleared only by a pause, so only a pause is resumable.
        self._used = False
        # The control loop's state, kept here so a paused run resumes
        # exactly where it stopped; ``_queue`` is None until the first call.
        self._queue: Optional[Deque[Connection]] = None
        self._failed: List[Connection] = []
        self._retries_left = 0
        self._max_iterations = 0
        self._best_routed = -1
        # Iteration at which the routed count last reached a new best.
        self._best_iteration = 0
        self._best_snapshot = None
        # True while the *current* state is the best seen and no copy of
        # it has been taken yet; see ``_note_best_state``.
        self._best_pending = False
        self._all_connections: List[Connection] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def route(
        self,
        pre_routed: Optional[Dict[str, List[GridPath]]] = None,
        deadline: Optional["Deadline"] = None,
        stall_limit: Optional[int] = None,
    ) -> Optional[RouteResult]:
        """Run the router and return the result, or ``None`` on a pause.

        ``pre_routed`` maps net names to already-committed paths ("partially
        routed areas" in the paper's terms); pre-routed wiring is registered
        as ordinary connections, so the router may rip it up like anything
        else.

        ``deadline`` is an optional wall-clock budget
        (:class:`~repro.engine.deadline.Deadline`, duck-typed on
        ``expired()``).  An expired deadline never raises here: the control
        loop stops before the next connection, the best snapshot seen is
        restored, and the result comes back with ``status="partial"`` and
        ``stats.timed_out`` set — graceful degradation is the engine
        layer's contract.  A zero-second deadline returns without entering
        the control loop at all.

        ``stall_limit`` pauses a run that has stopped converging: once more
        than ``stall_limit`` iterations have passed since the routed count
        last reached a new best, the call returns ``None`` before popping
        the next connection, keeping all its state.  The next call resumes
        the run (``pre_routed`` may only be given to the first call), so a
        paused and resumed run yields the same paths, counters and events
        as an uninterrupted one, and ``stats.elapsed_s`` sums the calls.
        Without a limit the call never returns ``None``.
        """
        if self._used:
            raise EngineError(
                "MightyRouter instances are single-use",
                context={"problem": self.problem.name},
            )
        if self._queue is not None and pre_routed is not None:
            raise EngineError(
                "pre_routed can only be given to the first route() call",
                context={"problem": self.problem.name},
            )
        self._used = True
        started = time.perf_counter()
        if self._queue is None:
            self._start(pre_routed or {})
        queue, failed = self._queue, self._failed

        while queue or (failed and self._retries_left > 0):
            if deadline is not None and deadline.expired():
                self._stats.timed_out = True
                self._record(
                    "timeout",
                    "*",
                    f"deadline hit after {self._stats.iterations} iterations",
                )
                break
            if (
                stall_limit is not None
                and self._stats.iterations - self._best_iteration
                > stall_limit
            ):
                self._used = False
                self._stats.elapsed_s += time.perf_counter() - started
                return None
            if not queue:
                self._retries_left -= 1
                # Fresh rip budgets for the retry pass: the landscape has
                # changed, so frozen nets deserve another chance.  The pass
                # count is bounded, so termination is unaffected.
                self._net_rips.clear()
                self._frozen.clear()
                retry_batch = order_connections(failed, self.config.ordering)
                failed.clear()
                for connection in retry_batch:
                    connection.chain_depth = 0
                    connection.deferrals = 0
                    self._record("retry", connection.net_name)
                queue.extend(retry_batch)
            connection = queue.popleft()
            self._step += 1
            self._stats.iterations += 1
            if self._stats.iterations > self._max_iterations:
                raise EngineError(
                    "termination invariant violated: iteration bound "
                    f"{self._max_iterations} exceeded",
                    context={
                        "iterations": self._stats.iterations,
                        "bound": self._max_iterations,
                        "problem": self.problem.name,
                    },
                )
            if connection.routed:
                continue
            if not self._route_connection(connection, queue):
                failed.append(connection)
                self._record("fail", connection.net_name)
            self._note_best_state()

        self._restore_best_state()
        self._stats.routed_connections = self._routed_count
        self._stats.failed_connections = (
            self._stats.connections - self._stats.routed_connections
        )
        self._stats.frozen_nets = len(self._frozen)
        self._stats.peak_journal_depth = self._grid.journal_peak_depth
        self._stats.kernel_backend = active_backend().name
        self._stats.elapsed_s += time.perf_counter() - started
        if deadline is not None:
            self._stats.deadline_s = deadline.budget_s
        return RouteResult(
            problem=self.problem,
            grid=self._grid,
            connections=self._all_connections,
            stats=self._stats,
            events=self._events,
            router=router_tag(self.config),
        )

    @property
    def stats(self) -> RouteStats:
        """The run's counters so far; while paused, its work up to the pause.

        ``iterations`` is then the iteration at which it paused, and
        ``routed_connections`` the routed count at that point.
        """
        return self._stats

    def _start(self, pre_routed: Dict[str, List[GridPath]]) -> None:
        """Commit ``pre_routed``, decompose the rest and fill the queue."""
        fixed = self._commit_pre_routed(pre_routed)
        connections = decompose_problem(self.problem)
        all_connections = connections + fixed
        self._all_connections = all_connections
        width, height = self._grid.width, self._grid.height
        for seq, connection in enumerate(all_connections):
            connection.seq = seq
            connection.source_id = flat_id(
                connection.source_node, width, height
            )
            connection.target_id = flat_id(
                connection.target_node, width, height
            )
            self._net_connections.setdefault(connection.net_id, []).append(
                connection
            )
        self._budgets = {
            net_id: self.config.max_rips_per_net * len(conns)
            for net_id, conns in self._net_connections.items()
        }
        self._stats.connections = len(all_connections)
        self._queue = deque(
            order_connections(connections, self.config.ordering)
        )
        self._retries_left = self.config.retry_passes
        self._max_iterations = self._iteration_bound(len(self._queue))

    # ------------------------------------------------------------------
    # Connection routing
    # ------------------------------------------------------------------
    def _route_connection(
        self, connection: Connection, queue: Deque[Connection]
    ) -> bool:
        ends = self._endpoints(connection)
        if ends is None:
            self._stats.hard_routes += 1
            self._record("route", connection.net_name, "already connected")
            return True

        hard = self._search(connection, *ends)
        if hard.found:
            self._commit(connection, hard.path)
            self._stats.hard_routes += 1
            self._record("route", connection.net_name, f"cost={hard.cost}")
            return True

        if not (self.config.enable_weak or self.config.enable_strong):
            return False

        soft = self._search(
            connection,
            *ends,
            allow_conflicts=True,
            frozen_nets=frozenset(self._frozen),
            net_penalties={
                frozen_net: rips * RIP_ESCALATION
                for frozen_net, rips in self._net_rips.items()
            },
        )
        if not soft.found:
            return False
        victims = self._victims_of(soft.conflict_ids)
        if victims is None:
            return False
        if self.config.enable_weak and len(victims) <= WEAK_VICTIM_LIMIT:
            if self._try_weak(connection, soft.path, victims):
                return True

        if (
            self.config.enable_strong
            and len(victims) <= self.config.strong_victim_limit
        ):
            if connection.chain_depth >= self.config.max_chain_depth:
                # Cut the chain — but a cut is a *deferral*, not a failure:
                # the connection rejoins the back of the queue at depth 0.
                # Deferrals are budget-bounded, and every eventual strong
                # modification still burns rip budget, so termination holds.
                if connection.deferrals < MAX_DEFERRALS:
                    connection.deferrals += 1
                    connection.chain_depth = 0
                    queue.append(connection)
                    self._record("defer", connection.net_name)
                    return True
                return False
            self._do_strong(connection, soft.path, victims, queue)
            return True
        return False

    def _endpoints(self, connection: Connection) -> Optional[tuple]:
        """The two components a search for ``connection`` must join; None
        when they are one, and the connection is then routed pathless."""
        net_id, grid = connection.net_id, self._grid
        source, target = connection.source_id, connection.target_id
        tick = time.perf_counter()
        ends = None
        if not grid.same_component_ids(net_id, source, target):
            ends = (
                grid.component_ids(net_id, source),
                grid.component_ids(net_id, target),
            )
        self._stats.phase_connectivity_s += time.perf_counter() - tick
        if ends is None:
            connection.path = None
            self._set_routed(connection, True)
        return ends

    def _search(
        self,
        connection: Connection,
        sources: List[int],
        targets: List[int],
        **soft,
    ) -> SearchResult:
        """One counted, timed search joining ``sources`` to ``targets``;
        ``soft`` holds the conflict-tolerant search's extra arguments."""
        self._stats.searches += 1
        tick = time.perf_counter()
        # Looked up at call time: fault injection swaps the module binding.
        result = find_path_flat(
            self._grid,
            connection.net_id,
            sources,
            targets,
            cost=self.config.cost,
            arena=self._arena,
            **soft,
        )
        self._stats.phase_search_s += time.perf_counter() - tick
        self._stats.expansions += result.expansions
        self._stats.flood_visits += result.flood_visits
        return result

    def _try_weak(
        self,
        connection: Connection,
        path: GridPath,
        victims: List[Connection],
    ) -> bool:
        """Displace ``victims``; keep only if everything reroutes at once.

        All-or-nothing semantics come from the grid's change journal: the
        whole attempt runs inside a transaction, and a failed attempt is
        undone in O(cells touched) — not by restoring an O(area) snapshot.
        """
        watched: List[Connection] = [connection]
        for net_id in {victim.net_id for victim in victims}:
            watched.extend(self._net_connections.get(net_id, []))
        saved_state = [(c, c.path, c.routed) for c in watched]

        self._grid.begin_txn()
        try:
            displaced = self._displace(connection, path, victims)
            displaced_ok = True
            # The reroute order is total and explicit: estimated length,
            # then position in ``displaced``.  The position is itself
            # deterministic — ``_victims_of`` ends its key with ``seq``
            # and the cascade scan follows insertion-ordered tables — so
            # no tie is ever left to sort stability or identity hashes.
            # (Re-keying ties on ``seq`` alone was measured to change the
            # routing trajectory and lose a connection on fig-channel.)
            for _, victim in sorted(
                enumerate(displaced),
                key=lambda iv: (iv[1].estimated_length, iv[0]),
            ):
                if not self._reroute_hard(victim):
                    displaced_ok = False
                    break
        except BaseException:
            self._undo_weak_attempt(saved_state)
            raise
        if displaced_ok:
            self._grid.commit_txn()
            self._stats.weak_modifications += 1
            self._record(
                "weak",
                connection.net_name,
                f"displaced {sorted(v.net_name for v in displaced)}",
            )
            return True
        # All-or-nothing: undo the whole attempt.
        self._undo_weak_attempt(saved_state)
        self._stats.weak_rejections += 1
        return False

    def _undo_weak_attempt(
        self, saved_state: List[Tuple[Connection, Optional[GridPath], bool]]
    ) -> None:
        """Roll back the grid and the connection flags of a weak attempt."""
        self._grid.rollback_txn()
        for conn, old_path, old_routed in saved_state:
            conn.path = old_path
            self._set_routed(conn, old_routed)

    def _do_strong(
        self,
        connection: Connection,
        path: GridPath,
        victims: List[Connection],
        queue: Deque[Connection],
    ) -> None:
        """Rip ``victims``, commit the blocked connection, re-queue victims."""
        # The rips below are the only mutations that persistently lower
        # the routed count, so this is the one place the deferred
        # best-state copy must happen before touching anything.
        self._materialize_best_state()
        for victim in victims:
            victim.rips += 1
            self._stats.ripped_connections += 1
            rips = self._net_rips.get(victim.net_id, 0) + 1
            self._net_rips[victim.net_id] = rips
            if rips >= self._budgets.get(victim.net_id, 0):
                self._frozen.add(victim.net_id)
        displaced = self._displace(connection, path, victims)
        self._stats.strong_modifications += 1
        self._record(
            "strong",
            connection.net_name,
            f"ripped {sorted(v.net_name for v in displaced)}",
        )
        # Victims reroute next, shortest first at the head of the queue.
        # Ties keep list position explicitly (longest-first needs the
        # length negated, so stability can no longer be relied on); the
        # position is deterministic because ``_victims_of`` seq-tiebreaks
        # the victims and the cascade scan is insertion-ordered.
        for _, victim in sorted(
            enumerate(displaced),
            key=lambda iv: (-iv[1].estimated_length, iv[0]),
        ):
            victim.chain_depth = connection.chain_depth + 1
            queue.appendleft(victim)

    def _displace(
        self, connection: Connection, path: GridPath, victims: List[Connection]
    ) -> List[Connection]:
        """Rip ``victims``, cascade, commit ``connection`` on ``path``; the
        displaced connections are ``victims`` then the cascade's."""
        for victim in victims:
            self._rip(victim)
        detached = self._cascade_rip({victim.net_id for victim in victims})
        self._commit(connection, path)
        return victims + detached

    def _reroute_hard(self, connection: Connection) -> bool:
        """Plain hard reroute used for displaced victims."""
        ends = self._endpoints(connection)
        if ends is None:
            return True
        result = self._search(connection, *ends)
        if not result.found:
            return False
        self._commit(connection, result.path)
        self._record("reroute", connection.net_name, "displaced")
        return True

    # ------------------------------------------------------------------
    # Grid bookkeeping
    # ------------------------------------------------------------------
    def _commit(self, connection: Connection, path: GridPath) -> None:
        tick = time.perf_counter()
        self._grid.commit_path(connection.net_id, path)
        connection.path = path
        self._set_routed(connection, True)
        self._stats.phase_claims_s += time.perf_counter() - tick

    def _rip(self, connection: Connection) -> None:
        tick = time.perf_counter()
        if connection.path is not None:
            self._grid.remove_path(connection.net_id, connection.path)
        connection.path = None
        self._set_routed(connection, False)
        self._stats.phase_claims_s += time.perf_counter() - tick

    def _set_routed(self, connection: Connection, routed: bool) -> None:
        """Set ``connection.routed``, keeping ``_routed_count`` in step."""
        if connection.routed != routed:
            connection.routed = routed
            self._routed_count += 1 if routed else -1

    def _cascade_rip(self, net_ids: Iterable[int]) -> List[Connection]:
        """Un-route siblings whose endpoints were split by earlier rips.

        Repeats to a fixpoint: ripping one orphaned sibling can orphan the
        next.  Cascade rips do not count against the rip budget — they are
        a bounded consequence of an already-budgeted strong modification.
        """
        detached: List[Connection] = []
        net_ids = set(net_ids)
        changed = True
        while changed:
            changed = False
            for net_id in net_ids:
                for conn in self._net_connections.get(net_id, []):
                    if not conn.routed:
                        continue
                    tick = time.perf_counter()
                    linked = self._grid.same_component_ids(
                        net_id, conn.source_id, conn.target_id
                    )
                    self._stats.phase_connectivity_s += (
                        time.perf_counter() - tick
                    )
                    if not linked:
                        self._rip(conn)
                        detached.append(conn)
                        changed = True
        return detached

    def _victims_of(
        self, conflict_ids: Sequence[int]
    ) -> Optional[List[Connection]]:
        """Connections whose paths hold the conflict nodes (flat ids).

        The grid says which net owns a node; of that net's connections,
        the ones whose current ``path`` holds it are the victims.  ``None``
        when a node has no such connection: it cannot be ripped.
        """
        tick = time.perf_counter()
        grid = self._grid
        occ, width, height = grid.occ_flat(), grid.width, grid.height
        victims: Set[Connection] = set()
        for index in conflict_ids:
            owners = [
                conn
                for conn in self._net_connections.get(occ[index], ())
                if conn.path is not None
                and index in conn.path.ids_on(width, height)
            ]
            if not owners:
                # Foreign copper that no connection's path holds (the
                # search excludes pins, so a corrupted cell).  Refuse the
                # plan.
                self._stats.phase_victims_s += time.perf_counter() - tick
                return None
            victims.update(owners)
        # ``victims`` is a set of identity-hashed connections, so iteration
        # order varies with memory addresses; ``seq`` makes the sort total
        # and the routing trajectory reproducible run-to-run.
        ordered = sorted(
            victims, key=lambda c: (c.net_name, c.estimated_length, c.seq)
        )
        self._stats.phase_victims_s += time.perf_counter() - tick
        return ordered

    def _commit_pre_routed(
        self, pre_routed: Dict[str, List[GridPath]]
    ) -> List[Connection]:
        fixed: List[Connection] = []
        width, height = self._grid.width, self._grid.height
        for net_name in sorted(pre_routed):
            net_id = self.problem.net_id(net_name)
            for path in pre_routed[net_name]:
                start, end = path.start, path.end
                connection = Connection(
                    net_name=net_name,
                    net_id=net_id,
                    source_pin=Pin(start.x, start.y, Layer(start.layer)),
                    target_pin=Pin(end.x, end.y, Layer(end.layer)),
                )
                try:
                    # Held as flat ids, like every searched path, so rips
                    # and victim lookups read the ids without rebuilding.
                    flat = GridPath.from_ids(
                        path.ids_on(width, height), width, height
                    )
                    self._commit(connection, flat)
                except (GridError, PathError) as exc:
                    raise ValueError(
                        f"pre-routed path for {net_name!r} is illegal: {exc}"
                    ) from None
                fixed.append(connection)
        return fixed

    # ------------------------------------------------------------------
    # Best-state bookkeeping
    # ------------------------------------------------------------------
    def _note_best_state(self) -> None:
        """Record that a new completion record was reached — lazily.

        Copying the grid on every record made the snapshot path
        O(connections²) on a cleanly-progressing run.  The copy is
        deferred: the routed count can only *decrease* through a
        strong modification (weak attempts are all-or-nothing and roll
        back; searches never mutate), so ``_do_strong`` materialises the
        pending copy just before its first rip.  A run that never strong-
        modifies after its last record never copies at all — its final
        state *is* the best state.

        The record's iteration is also where the stall limit of
        :meth:`route` counts from.
        """
        routed = self._routed_count
        self._stats.routed_connections = routed
        if routed > self._best_routed:
            self._best_routed = routed
            self._best_iteration = self._stats.iterations
            self._best_pending = True

    def _materialize_best_state(self) -> None:
        """Take the deferred best-state copy while the state still is it."""
        if not self._best_pending:
            return
        self._best_pending = False
        tick = time.perf_counter()
        self._best_snapshot = (
            self._grid.clone(),
            [(c, c.path, c.routed) for c in self._all_connections],
        )
        self._stats.phase_claims_s += time.perf_counter() - tick

    def _restore_best_state(self) -> None:
        """Roll back to the best snapshot if the final state is worse."""
        if self._best_snapshot is None:
            return
        if self._routed_count >= self._best_routed:
            return
        grid, states = self._best_snapshot
        self._grid.restore(grid)
        for connection, path, was_routed in states:
            connection.path = path
            self._set_routed(connection, was_routed)
        self._record(
            "restore",
            "*",
            f"rolled back to best state ({self._best_routed} routed)",
        )

    # ------------------------------------------------------------------
    # Misc helpers
    # ------------------------------------------------------------------
    def _iteration_bound(self, initial: int) -> int:
        # Queue pops <= queue pushes.  Pushes: the initial connections (plus
        # bounded retries), and per strong modification its victims plus
        # cascade-detached siblings.  Strong modifications are bounded by the
        # total rip budget; each re-queues at most ``strong_victim_limit``
        # victims and ``strong_victim_limit * largest_net`` cascade rips.
        total_budget = sum(self._budgets.values())
        largest_net = max(
            (len(c) for c in self._net_connections.values()), default=1
        )
        per_strong = self.config.strong_victim_limit * (1 + largest_net)
        # Budgets are reset once per retry pass, so the strong-modification
        # work multiplies by the (bounded) pass count.  Chain-depth
        # deferrals add at most ``max_rips_per_net`` extra pops per
        # connection per pass.
        deferrals = initial * MAX_DEFERRALS
        return (1 + self.config.retry_passes) * (
            initial + deferrals + total_budget * (2 + per_strong)
        ) + 16

    def _record(self, kind: str, net: str, detail: str = "") -> None:
        self._events.append(
            RouteEvent(
                step=self._step,
                kind=kind,
                net=net,
                detail=detail,
                open_connections=self._stats.connections - self._routed_count,
            )
        )


def router_tag(config: MightyConfig) -> str:
    """Name of the router variant ``config`` enables."""
    if config.enable_weak and config.enable_strong:
        return "mighty"
    if config.enable_weak:
        return "mighty-weak"
    if config.enable_strong:
        return "mighty-strong"
    return "maze-sequential"


def route_problem(
    problem: RoutingProblem,
    config: Optional[MightyConfig] = None,
    pre_routed: Optional[Dict[str, List[GridPath]]] = None,
    deadline: Optional["Deadline"] = None,
) -> RouteResult:
    """One-shot convenience wrapper around :class:`MightyRouter`."""
    return MightyRouter(problem, config).route(
        pre_routed=pre_routed, deadline=deadline
    )
