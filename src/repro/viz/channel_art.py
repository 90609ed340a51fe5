"""Channel-specific ASCII rendering.

Channels read best the way the papers draw them: pin rows labelled, tracks
numbered top-down, and the density profile along the bottom so the hot
columns are visible at a glance.
"""

from __future__ import annotations

from typing import Optional

from repro.grid.routing_grid import RoutingGrid
from repro.netlist.channel import ChannelSpec
from repro.viz.ascii_art import net_label


def render_channel(
    spec: ChannelSpec,
    grid: Optional[RoutingGrid] = None,
    tracks: Optional[int] = None,
) -> str:
    """Render a channel (optionally with its routed grid).

    Without a grid, only the pin rows and the density profile are drawn —
    the "problem statement" view.  With a grid, the track area shows the
    wiring using the shared cell vocabulary of
    :mod:`repro.viz.ascii_art`, with track numbers in the left margin.
    """
    width = spec.n_columns
    margin = 4
    lines = []

    def shore_line(row) -> str:
        return "".join(net_label(v) if v else "." for v in row)

    lines.append(" " * margin + shore_line(spec.top) + "  (top pins)")
    if grid is not None:
        track_count = grid.height - 2
        occ = grid.occupancy()
        via = grid.via_map()
        for track in range(1, track_count + 1):
            y = track_count + 1 - track
            chars = []
            for x in range(width):
                h, v = int(occ[0, y, x]), int(occ[1, y, x])
                if int(via[y, x]):
                    chars.append("+")
                elif h > 0 and v > 0:
                    chars.append("x")
                elif h > 0:
                    chars.append("-")
                elif v > 0:
                    chars.append("|")
                elif h == -1 and v == -1:
                    chars.append("#")
                else:
                    chars.append(".")
            lines.append(f"{track:>3} " + "".join(chars))
    elif tracks:
        for track in range(1, tracks + 1):
            lines.append(f"{track:>3} " + "." * width)
    lines.append(" " * margin + shore_line(spec.bottom) + "  (bottom pins)")

    profile = spec.density_profile()
    digits = "".join(
        "*" if d > 35 else (str(d) if d < 10 else chr(ord("a") + d - 10))
        for d in profile
    )
    lines.append(" " * margin + digits + "  (density profile)")
    lines.append(
        " " * margin
        + f"density={spec.density}  nets={len(spec.net_numbers())}  "
        f"columns={width}"
    )
    return "\n".join(lines)
