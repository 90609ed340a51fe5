"""Switchbox routing: the Luk-style greedy baseline and the width sweep.

Switchboxes are where rip-up earns its keep: pins on all four sides leave no
spare shore to escape to, so a sequential maze router walls itself in.  A
switchbox is routed by Mighty, or by the no-modification baseline, as
``route_problem(spec.to_problem(), config)`` with ``MightyConfig()`` or
``MightyConfig.no_modification()``.  The package hosts the
*minimum-width sweep* (experiment E2) that reproduces the paper's
"Burstein's difficult switch box ... one less column" result shape: shrink
the box column by column and record the narrowest box each router still
completes.
"""

from repro.switchbox.greedy_box import BoxResult, GreedySwitchboxRouter
from repro.switchbox.sweep import WidthSweepOutcome, minimum_routable_width, shrinking_sequence

__all__ = [
    "BoxResult",
    "GreedySwitchboxRouter",
    "WidthSweepOutcome",
    "minimum_routable_width",
    "shrinking_sequence",
]
