"""Path-search substrate: cost model, A* searcher, Lee wavefront router.

Mighty's incremental step is "find the cheapest legal walk from the new
pin to the net's routed subtree".  Two searchers implement it:

* :func:`~repro.maze.lee.lee_route` — the classic Lee (1961) breadth-first
  wavefront, kept as the historically faithful baseline and as a test oracle
  for shortest paths under uniform costs.
* :func:`~repro.maze.astar.find_path` — an A* searcher with the full cost
  model (via cost, wrong-way penalty) plus *soft conflicts*: cells owned by
  other nets can optionally be crossed at a penalty, which is how the router
  discovers the cheapest weak/strong modification plan.

Two more historical single-layer searchers round out the family (both
predate the paper and frame its design space):

* :func:`~repro.maze.line_probe.line_probe` — Hightower's escape lines
  (1969): tiny memory, famously incomplete.
* :func:`~repro.maze.soukup.soukup_route` — Soukup's fast maze router
  (1978): goal-directed sprinting with a Lee fallback; complete, not
  shortest.
"""

from repro.maze.arena import neighbor_table
from repro.maze.astar import SearchResult, find_path
from repro.maze.cost import CostModel
from repro.maze.lee import lee_route
from repro.maze.line_probe import line_probe
from repro.maze.soukup import soukup_route

__all__ = [
    "CostModel",
    "SearchResult",
    "find_path",
    "lee_route",
    "line_probe",
    "neighbor_table",
    "soukup_route",
]
