"""Experiment E3 — the paper's routed-layout figures.

The original shows the routed difficult switchbox and channel as figures;
this bench regenerates them as SVG files under ``benchmarks/output/`` and
checks the renderings are well-formed and complete.
"""

from __future__ import annotations

from conftest import emit

from repro.analysis import verify_routing
from repro.channels import MightyChannelRouter
from repro.core import MightyConfig, route_problem
from repro.netlist.generators import (
    burstein_class_switchbox,
    random_channel,
)
from repro.viz.ascii_art import render_grid
from repro.viz.svg import svg_from_grid, svg_from_result


def test_fig_switchbox_layout(benchmark, output_dir):
    """Figure: the routed Burstein-class switchbox."""
    spec = burstein_class_switchbox()
    result = route_problem(spec.to_problem(), MightyConfig())
    assert result.success

    svg = benchmark.pedantic(
        lambda: svg_from_result(result), rounds=1, iterations=1
    )
    path = output_dir / "fig_burstein_class.svg"
    path.write_text(svg)
    emit(f"figure written: {path}")
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert verify_routing(result.problem, result.grid).ok


def test_fig_channel_layout(benchmark, output_dir):
    """Figure: a routed channel at (or next to) density, plus its ASCII
    form for the terminal."""
    spec = random_channel(
        40, 16, seed=7, target_density=8, allow_vcg_cycles=False,
        name="fig-channel",
    )
    result = MightyChannelRouter().route_min_tracks(spec, max_extra=10)
    assert result.success

    svg = benchmark.pedantic(
        lambda: svg_from_grid(
            result.problem, result.grid, title=result.summary()
        ),
        rounds=1,
        iterations=1,
    )
    path = output_dir / "fig_channel.svg"
    path.write_text(svg)
    emit(f"figure written: {path}  ({result.summary()})")
    art = render_grid(result.problem, result.grid)
    assert len(art.splitlines()) == result.problem.height
    emit(art)
