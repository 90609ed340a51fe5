"""Layout rendering: ASCII for the terminal, SVG for the figures.

The renderers reproduce the figure style of the routing papers: horizontal
layer as dashes, vertical layer as bars, vias as plusses, pins labelled by
net, obstacles hatched.
"""

from repro.viz.ascii_art import render_grid
from repro.viz.channel_art import render_channel
from repro.viz.svg import svg_from_grid, svg_from_result

__all__ = [
    "render_channel",
    "render_grid",
    "svg_from_grid",
    "svg_from_result",
]
