#!/usr/bin/env python
"""Switchbox gallery: SVG renderings plus the minimum-width sweep.

Run::

    python examples/switchbox_gallery.py [output_dir]

Routes the classic-calibrated switchboxes (Burstein-class 23x15 and
dense-class 16x16), writes SVG figures for each, and then reproduces the
paper's flagship experiment shape: shrink the Burstein-class box column by
column and report the narrowest box the rip-up router still completes,
against the no-modification baseline.
"""

import sys
from pathlib import Path

from repro.analysis import format_table
from repro.core import MightyConfig, route_problem
from repro.netlist.generators import (
    burstein_class_switchbox,
    dense_class_switchbox,
)
from repro.switchbox import minimum_routable_width
from repro.viz.svg import svg_from_result


def main() -> None:
    out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else "gallery")
    out_dir.mkdir(exist_ok=True)

    rows = []
    for spec in (burstein_class_switchbox(), dense_class_switchbox()):
        problem = spec.to_problem()
        mighty = route_problem(problem, MightyConfig())
        naive = route_problem(problem, MightyConfig.no_modification())
        svg_path = out_dir / f"{spec.name}.svg"
        svg_path.write_text(svg_from_result(mighty))
        rows.append(
            [
                spec.name,
                f"{spec.width}x{spec.height}",
                len(spec.net_numbers()),
                "yes" if mighty.success else "no",
                "yes" if naive.success else "no",
                str(svg_path),
            ]
        )
    print(
        format_table(
            ["box", "size", "nets", "mighty", "naive", "figure"],
            rows,
            title="switchbox gallery",
        )
    )
    print()

    # The "one less column" experiment on the Burstein-class box.
    spec = burstein_class_switchbox()
    mighty = minimum_routable_width(spec, MightyConfig())
    naive = minimum_routable_width(spec, MightyConfig.no_modification())
    print(
        format_table(
            ["router", "min completed width"],
            [
                ["mighty", mighty.min_completed_width or "-"],
                ["maze-sequential", naive.min_completed_width or "-"],
            ],
            title=f"minimum-width sweep on {spec.name} (original width "
            f"{spec.width})",
        )
    )
    best = next(
        (r for r, done in zip(mighty.results, mighty.completed) if done and
         r.problem.width == mighty.min_completed_width),
        None,
    )
    if best is not None:
        narrow_path = out_dir / f"{spec.name}-min-width.svg"
        narrow_path.write_text(svg_from_result(best))
        print(f"narrowest completed layout written to {narrow_path}")


if __name__ == "__main__":
    main()
