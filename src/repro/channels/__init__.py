"""Baseline channel routers (the paper's Table-1 comparators).

Four classical algorithms are reimplemented from their original papers, plus
an adapter that runs the Mighty router on the lowered channel problem:

* :class:`~repro.channels.left_edge.LeftEdgeRouter` — constrained left-edge
  (Hashimoto & Stevens 1971): density-optimal absent vertical constraints,
  fails on VCG cycles.
* :class:`~repro.channels.dogleg.DoglegRouter` — Deutsch's dogleg router
  (DAC 1976): splits nets at interior terminals.
* :class:`~repro.channels.greedy.GreedyRouter` — Rivest & Fiduccia's greedy
  column-sweep router (DAC 1982), simplified but faithful in structure.
* :class:`~repro.channels.yacr_lite.YacrLiteRouter` — YACR-II in spirit
  (Reed, Sangiovanni-Vincentelli & Santomauro 1985): track assignment that
  tolerates vertical-constraint violations, followed by maze routing of the
  branches.
* :class:`~repro.channels.mighty_adapter.MightyChannelRouter` — the paper's
  router applied to the same lowered problems.

All of them realise their solutions onto the shared
:class:`~repro.grid.RoutingGrid` and are verified by the same
:mod:`repro.analysis` machinery.
"""

from repro.channels.base import (
    ChannelResult,
    ChannelRouter,
    HWire,
    VWire,
    realize_wires,
    track_row,
)
from repro.channels.dogleg import DoglegRouter
from repro.channels.greedy import GreedyRouter
from repro.channels.left_edge import LeftEdgeRouter
from repro.channels.mighty_adapter import MightyChannelRouter
from repro.channels.yacr_lite import YacrLiteRouter

__all__ = [
    "ChannelResult",
    "ChannelRouter",
    "DoglegRouter",
    "GreedyRouter",
    "HWire",
    "LeftEdgeRouter",
    "MightyChannelRouter",
    "VWire",
    "YacrLiteRouter",
    "realize_wires",
    "track_row",
]
