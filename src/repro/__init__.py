"""repro — a rip-up-and-reroute detailed routing library.

A from-scratch reproduction of *Mighty: A "Rip-Up and Reroute" Detailed
Router* (Shin & Sangiovanni-Vincentelli, ICCAD 1986): a general two-layer
detailed router for switchboxes, channels and irregular partially-routed
regions, together with the classical baseline routers it was evaluated
against and a benchmark harness that regenerates the paper's result tables.

Quickstart::

    from repro import MightyConfig, route_problem, verify_routing
    from repro.netlist.instances import small_switchbox

    problem = small_switchbox().to_problem()
    result = route_problem(problem)
    assert result.success and verify_routing(problem, result.grid).ok

See README.md for the full tour and DESIGN.md for the paper-to-module map.
"""

from repro.analysis import (
    LayoutMetrics,
    VerificationReport,
    channel_tracks_used,
    format_table,
    layout_metrics,
    verify_result,
    verify_routing,
)
from repro.core import (
    Connection,
    MightyConfig,
    MightyRouter,
    RouteResult,
    RouteStats,
    route_problem,
)
from repro.engine import Deadline, EngineConfig, RoutingEngine
from repro.errors import EngineError, InputError, ReproError
from repro.grid import GridNode, GridPath, Layer, RoutingGrid
from repro.maze import CostModel
from repro.netlist import (
    ChannelSpec,
    Net,
    Pin,
    RoutingProblem,
    SwitchboxSpec,
)

__version__ = "1.1.0"

__all__ = [
    "ChannelSpec",
    "Connection",
    "CostModel",
    "Deadline",
    "EngineConfig",
    "EngineError",
    "GridNode",
    "GridPath",
    "InputError",
    "Layer",
    "LayoutMetrics",
    "MightyConfig",
    "MightyRouter",
    "Net",
    "Pin",
    "ReproError",
    "RouteResult",
    "RouteStats",
    "RoutingEngine",
    "RoutingGrid",
    "RoutingProblem",
    "SwitchboxSpec",
    "VerificationReport",
    "channel_tracks_used",
    "format_table",
    "layout_metrics",
    "route_problem",
    "verify_result",
    "verify_routing",
]
