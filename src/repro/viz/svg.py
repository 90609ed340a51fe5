"""SVG layout rendering (no external dependencies).

Produces self-contained SVG documents: obstacles hatched grey, the
horizontal layer in blues, the vertical layer in reds, vias as filled
circles and pins as outlined squares.  Used by the figure benchmarks (E3)
and the examples.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.result import RouteResult
from repro.grid.routing_grid import OBSTACLE, RoutingGrid
from repro.netlist.problem import RoutingProblem

CELL = 16  # pixels per grid cell
_PALETTE = [
    "#4269d0", "#efb118", "#ff725c", "#6cc5b0", "#3ca951",
    "#ff8ab7", "#a463f2", "#97bbf5", "#9c6b4e", "#9498a0",
]


def _net_colour(net_id: int) -> str:
    return _PALETTE[(net_id - 1) % len(_PALETTE)]


def _header(width: int, height: int, title: str) -> List[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width * CELL}" height="{height * CELL + 20}" '
        f'viewBox="0 0 {width * CELL} {height * CELL + 20}">',
        f'<title>{title}</title>',
        f'<rect width="{width * CELL}" height="{height * CELL}" '
        'fill="#fcfcf9" stroke="#222" stroke-width="1"/>',
    ]


def _cell_xy(x: int, y: int, height: int) -> tuple:
    """Grid cell -> pixel centre (SVG y grows downward, grid y upward)."""
    return (x * CELL + CELL / 2, (height - 1 - y) * CELL + CELL / 2)


def svg_from_grid(
    problem: Optional[RoutingProblem],
    grid: RoutingGrid,
    title: str = "routed layout",
) -> str:
    """Render the grid occupancy directly (works for any router)."""
    occ = grid.occupancy()
    pin = grid.pin_map()
    via = grid.via_map()
    parts = _header(grid.width, grid.height, title)
    half = CELL * 0.36
    for y in range(grid.height):
        for x in range(grid.width):
            cx, cy = _cell_xy(x, y, grid.height)
            h, v = int(occ[0, y, x]), int(occ[1, y, x])
            if h == OBSTACLE and v == OBSTACLE:
                parts.append(
                    f'<rect x="{cx - CELL / 2}" y="{cy - CELL / 2}" '
                    f'width="{CELL}" height="{CELL}" fill="#d7d7d2"/>'
                )
                continue
            if h > 0:  # horizontal layer: fat horizontal bar
                parts.append(
                    f'<rect x="{cx - CELL / 2}" y="{cy - half / 2}" '
                    f'width="{CELL}" height="{half}" '
                    f'fill="{_net_colour(h)}" fill-opacity="0.85"/>'
                )
            if v > 0:  # vertical layer: fat vertical bar
                parts.append(
                    f'<rect x="{cx - half / 2}" y="{cy - CELL / 2}" '
                    f'width="{half}" height="{CELL}" '
                    f'fill="{_net_colour(v)}" fill-opacity="0.85"/>'
                )
            if int(via[y, x]):
                parts.append(
                    f'<circle cx="{cx}" cy="{cy}" r="{half * 0.6}" '
                    'fill="#111"/>'
                )
            pin_owner = max(int(pin[0, y, x]), int(pin[1, y, x]))
            if pin_owner:
                parts.append(
                    f'<rect x="{cx - half * 0.8}" y="{cy - half * 0.8}" '
                    f'width="{half * 1.6}" height="{half * 1.6}" '
                    f'fill="none" stroke="{_net_colour(pin_owner)}" '
                    'stroke-width="2"/>'
                )
    label = title.replace("&", "&amp;").replace("<", "&lt;")
    parts.append(
        f'<text x="4" y="{grid.height * CELL + 14}" '
        f'font-family="monospace" font-size="12">{label}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def svg_from_result(result: RouteResult) -> str:
    """Render a :class:`~repro.core.result.RouteResult` (grid view plus a
    completion annotation)."""
    suffix = "complete" if result.success else (
        f"{len(result.failed)} connections failed"
    )
    title = f"{result.router} on {result.problem.name} ({suffix})"
    return svg_from_grid(result.problem, result.grid, title=title)
