"""Fail unless a bench report's work counters equal a baseline's, per case.

Usage, from the repository root::

    python benchmarks/check_counter_parity.py BASELINE.json REPORT.json

Both files are ``repro bench`` reports.  They must hold the same cases,
and every case must have equal ``expansions`` and ``searches``, and equal
``wirelength`` where the baseline records it.  Exit status 0 means
parity; 1 prints one line per difference.

``repro bench --gate METRIC 0`` bounds only the suite's summed ratio, so
a fall, or one case rising while another falls, passes it.  A routing
change that keeps every counter of every case is what "bit-identical"
means, and this check is the gate for it.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List

COUNTERS = ("expansions", "searches", "wirelength")


def mismatches(baseline: Dict, report: Dict) -> List[str]:
    """One line per case or counter where ``report`` differs."""
    old = {row["name"]: row for row in baseline["cases"]}
    new = {row["name"]: row for row in report["cases"]}
    lines = [f"{name}: missing from the report" for name in old - new.keys()]
    lines += [f"{name}: not in the baseline" for name in new - old.keys()]
    for name in old.keys() & new.keys():
        for counter in COUNTERS:
            want, got = old[name].get(counter), new[name].get(counter)
            if counter in old[name] and got != want:
                lines.append(f"{name}: {counter} {got} != baseline {want}")
    return sorted(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(
            "usage: check_counter_parity.py BASELINE.json REPORT.json",
            file=sys.stderr,
        )
        return 2
    with open(argv[0]) as handle:
        baseline = json.load(handle)
    with open(argv[1]) as handle:
        report = json.load(handle)
    lines = mismatches(baseline, report)
    for line in lines:
        print(f"PARITY: {line}", file=sys.stderr)
    if not lines:
        print(f"counter parity ok on {len(baseline['cases'])} cases")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
