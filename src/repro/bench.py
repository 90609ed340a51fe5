"""The routing performance benchmark harness (``repro bench``).

Performance is a first-class deliverable of this reproduction: the paper's
"guaranteed finite time" argument assumes the inner operations of the
rip-up loop (maze search, undo of a failed attempt) are cheap, and the
roadmap's north star is "as fast as the hardware allows".  This module
makes that measurable and regression-proof:

* a fixed suite of **benchmark cases** mirroring the evaluation workloads
  (table-1 channels, table-2 switchboxes, table-3 general regions, the
  figure layouts, and the scaling series of growing switchboxes);
* :func:`run_bench` routes every case through
  :class:`~repro.engine.RoutingEngine` with one attempt — the path
  ``repro route`` runs — and records wall time plus the
  machine-independent work counters (searches issued, A* cells expanded,
  peak change-journal depth) in a JSON-ready report;
* :func:`counter_mismatches` checks a report against a baseline case by
  case, the gate of ``repro bench --compare``, and
  :func:`compare_reports` tabulates the wall-time ratios beside it.

Wall-clock numbers are only comparable on the same machine; the work
counters (``expansions``, ``flood_visits``, ``searches``,
``iterations``), the ``routed`` count and the routed ``wirelength`` are
deterministic per case and comparable across machines and kernel
backends, which is why they, and only they, are gated.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import MightyConfig
from repro.engine import EngineConfig, RoutingEngine
from repro.errors import InputError, ReproError
from repro.netlist.problem import RoutingProblem

#: Bumped when the report layout changes incompatibly.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BenchCase:
    """One named routing workload.

    ``build`` constructs a fresh :class:`RoutingProblem` (construction cost
    is excluded from the timed region).  ``quick`` cases form the reduced
    suite used by the CI smoke job.
    """

    name: str
    group: str  # channel | switchbox | region | figure | scaling
    build: Callable[[], RoutingProblem]
    quick: bool = False


def _channel(spec_factory) -> Callable[[], RoutingProblem]:
    def build() -> RoutingProblem:
        spec = spec_factory()
        return spec.to_problem(max(1, spec.density))

    return build


def _switchbox(spec_factory) -> Callable[[], RoutingProblem]:
    def build() -> RoutingProblem:
        return spec_factory().to_problem()

    return build


def bench_cases() -> List[BenchCase]:
    """The full benchmark suite (quick subset marked per case)."""
    from repro.netlist.generators import (
        burstein_class_switchbox,
        dense_class_switchbox,
        deutsch_class_channel,
        deutsch_class_region,
        random_channel,
        random_switchbox,
        woven_region_problem,
        woven_switchbox,
    )
    from repro.netlist.instances import (
        dogleg_channel,
        obstacle_region_problem,
        simple_channel,
    )

    cases: List[BenchCase] = [
        # Table 1 — channels, routed at density.
        BenchCase("chan-simple", "channel", _channel(simple_channel), True),
        BenchCase("chan-dogleg", "channel", _channel(dogleg_channel), True),
        BenchCase(
            "chan-rand-24",
            "channel",
            _channel(lambda: random_channel(24, 8, seed=11)),
            True,
        ),
        BenchCase(
            "chan-deutsch",
            "channel",
            _channel(deutsch_class_channel),
        ),
        # Table 2 — switchboxes.
        BenchCase(
            "sb-burstein",
            "switchbox",
            _switchbox(burstein_class_switchbox),
            True,
        ),
        BenchCase("sb-dense", "switchbox", _switchbox(dense_class_switchbox)),
        BenchCase(
            "sb-woven-a",
            "switchbox",
            _switchbox(
                lambda: woven_switchbox(23, 15, 24, seed=4, tangle=0.3)
            ),
        ),
        BenchCase(
            "sb-scatter-50",
            "switchbox",
            _switchbox(
                lambda: random_switchbox(23, 15, 24, seed=3, fill=0.5)
            ),
            True,
        ),
        # Table 3 — general regions (irregular boundaries, obstacles,
        # interior pins).
        BenchCase(
            "reg-obstacle", "region", obstacle_region_problem, True
        ),
        BenchCase(
            "reg-woven-1",
            "region",
            lambda: woven_region_problem(seed=1, tangle=0.7),
        ),
        BenchCase(
            "reg-woven-7",
            "region",
            lambda: woven_region_problem(
                seed=7, width=30, height=20, n_nets=12, n_obstacles=5,
                tangle=0.6,
            ),
        ),
        # Figure layouts — the instances rendered by experiment E3.
        BenchCase(
            "fig-channel",
            "figure",
            _channel(lambda: random_channel(28, 10, seed=23)),
        ),
    ]
    # Scaling series — the family behind the E4 runtime figure.  The quick
    # suite keeps the sizes that finish in well under a second.
    scaling = [
        (10, 8, 8, True),
        (14, 10, 12, True),
        (18, 12, 16, True),
        (23, 15, 24, False),
        (30, 20, 34, False),
    ]
    for width, height, nets, quick in scaling:
        cases.append(
            BenchCase(
                f"scale-{width}x{height}",
                "scaling",
                _switchbox(
                    lambda w=width, h=height, n=nets: woven_switchbox(
                        w, h, n, seed=9, tangle=0.4
                    )
                ),
                quick,
            )
        )
    # The 500+ net shard-and-stitch case: a Deutsch-difficult-shaped large
    # region, routed whole or, with `--shards 4`, in four shards (see
    # PERFORMANCE.md §7).
    cases.append(
        BenchCase("scale-stitch-560", "scaling", deutsch_class_region)
    )
    return cases


def run_case(
    case: BenchCase,
    config: Optional[MightyConfig] = None,
    repeat: int = 1,
    profile: bool = False,
    shards: int = 1,
) -> Dict[str, object]:
    """Route ``case`` ``repeat`` times; wall time is the best (min) run.

    Every run is ``RoutingEngine(EngineConfig(max_attempts=1),
    router_config=config).route(problem, shards=shards)`` — what ``repro
    route`` runs by default — so the wall includes the engine's check of
    its own result.  Work counters come from the last run — they are
    deterministic for a given case, so any run reports the same numbers.
    With ``profile`` the row also carries the router's per-phase wall
    split (search, connectivity, victim analysis, and ``claims``: grid
    commit/rip and best-state copies — measured at the leaf operations,
    so the buckets are disjoint; ``other`` is the remainder against the
    run's ``elapsed_s``).

    ``shards > 1`` asks the engine for the shard-and-stitch pipeline;
    when the partitioner declines, the engine routes the whole region
    once, so the counters match the ``shards=1`` row exactly.  The row's
    ``shards`` field reports what actually happened (1 when declined).
    A stitch the engine rejects — the pipeline crashed, or its layout is
    incomplete or fails verification — raises
    :class:`~repro.errors.ReproError`: the engine's whole-region fallback
    must not stand in for the pipeline being measured.
    Every row also carries the ground-truth quality metrics the gates
    compare: ``wirelength`` (net-owned wire cells) and ``verified`` (the
    :mod:`repro.analysis.verify` verdict on the returned result).
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    engine = RoutingEngine(EngineConfig(max_attempts=1), router_config=config)
    best_wall = float("inf")
    for _ in range(repeat):
        problem = case.build()
        started = time.perf_counter()
        result = engine.route(problem, shards=shards)
        best_wall = min(best_wall, time.perf_counter() - started)
    stats = result.stats
    if shards > 1:
        shard = next(r for r in stats.attempt_log if r["stage"] == "shard")
        if shard["stop"] != "declined" and not (
            shard["stop"] == "complete" and shard["verified"]
        ):
            raise ReproError(
                f"bench case {case.name}: the engine rejected the "
                f"{shards}-shard stitch and routed the whole region",
                context={
                    "stop": shard["stop"],
                    "verified": shard["verified"],
                    "error": shard["error"],
                },
            )
    from repro.analysis.metrics import layout_metrics
    from repro.analysis.verify import verify_result

    wirelength = layout_metrics(problem, result.grid).wire_cells
    verified = verify_result(problem, result).ok
    row: Dict[str, object] = {
        "name": case.name,
        "group": case.group,
        "wall_s": round(best_wall, 6),
        "searches": int(stats.searches),
        "expansions": int(stats.expansions),
        "flood_visits": int(stats.flood_visits),
        "peak_journal_depth": int(stats.peak_journal_depth),
        "iterations": int(stats.iterations),
        "connections": int(stats.connections),
        "routed": int(stats.routed_connections),
        "success": bool(result.success),
        "kernel_backend": str(stats.kernel_backend),
        "wirelength": int(wirelength),
        "verified": bool(verified),
        "shards": int(stats.shards or 1),
    }
    if stats.shard_log:
        row["shard_log"] = stats.shard_log
    if profile:
        phases = {
            "search_s": round(stats.phase_search_s, 6),
            "connectivity_s": round(stats.phase_connectivity_s, 6),
            "victims_s": round(stats.phase_victims_s, 6),
            "claims_s": round(stats.phase_claims_s, 6),
        }
        phases["other_s"] = round(
            max(0.0, stats.elapsed_s - sum(phases.values())), 6
        )
        phases["elapsed_s"] = round(stats.elapsed_s, 6)
        row["phases"] = phases
    return row


def run_bench(
    quick: bool = False,
    repeat: int = 1,
    only: Optional[Sequence[str]] = None,
    config: Optional[MightyConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
    profile: bool = False,
    shards: int = 1,
) -> Dict[str, object]:
    """Run the suite and return the JSON-ready report dict.

    ``quick`` keeps the quick subset and ``only`` the named cases; rows
    come in suite order.  A name the suite does not have, or a selection
    with no case left, is an :class:`~repro.errors.InputError`.
    """
    cases = bench_cases()
    names = [case.name for case in cases]
    unknown = [name for name in only or () if name not in names]
    if unknown:
        raise InputError(
            f"unknown benchmark case {', '.join(map(repr, unknown))}",
            context={"choices": names},
        )
    selected = [
        case
        for case in cases
        if (not quick or case.quick) and (only is None or case.name in only)
    ]
    if not selected:
        raise InputError(
            "benchmark selection is empty",
            context={"quick": quick, "only": list(only or ())},
        )
    rows: List[Dict[str, object]] = []
    for case in selected:
        if progress is not None:
            progress(f"bench {case.name} ...")
        rows.append(
            run_case(
                case,
                config=config,
                repeat=repeat,
                profile=profile,
                shards=shards,
            )
        )
    return {
        "schema": SCHEMA_VERSION,
        "created_unix": round(time.time(), 3),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "quick": quick,
        "repeat": repeat,
        "shards": shards,
        # Provenance for the wall numbers: which search-kernel backend the
        # rows ran on.  Counters are backend-invariant by the parity gate,
        # so only wall_s comparisons need to respect this field.
        "kernel": rows[0]["kernel_backend"],
        "cases": rows,
        "totals": {
            "wall_s": round(sum(r["wall_s"] for r in rows), 6),
            "expansions": sum(r["expansions"] for r in rows),
            "searches": sum(r["searches"] for r in rows),
            "wirelength": sum(r["wirelength"] for r in rows),
        },
    }


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
#: The counters ``repro bench --compare`` holds equal, case by case.
#: All are deterministic and machine-independent, and every row records
#: all of them.
PARITY_COUNTERS = (
    "expansions", "searches", "flood_visits", "wirelength", "iterations",
    "routed",
)


def counter_mismatches(
    baseline: Dict[str, object], report: Dict[str, object]
) -> List[str]:
    """One line per case or counter where ``report`` differs from
    ``baseline``; no line means parity.

    Both must name the same cases, and every case must have equal
    ``expansions``, ``searches``, ``flood_visits``, ``wirelength``,
    ``iterations`` and ``routed``; a counter one row lacks differs.
    Case by case, so one case rising while another falls is caught,
    which no summed ratio does; and a control-loop change that leaves
    the search counts equal still shows in ``iterations``.  Baseline
    cases of the suite that the run's ``quick``/``only`` selection left
    out do not count; a baseline case the suite no longer has is missing
    from the report.
    """
    suite = {case.name for case in bench_cases()}
    new = {row["name"]: row for row in report["cases"]}
    old = {
        row["name"]: row
        for row in baseline["cases"]
        if row["name"] in new or row["name"] not in suite
    }
    lines = [f"{name}: missing from the report" for name in old - new.keys()]
    lines += [f"{name}: not in the baseline" for name in new - old.keys()]
    for name in old.keys() & new.keys():
        for counter in PARITY_COUNTERS:
            want, got = old[name].get(counter), new[name].get(counter)
            if got != want:
                lines.append(f"{name}: {counter} {got} != baseline {want}")
    return sorted(lines)


def compare_reports(
    old: Dict[str, object], new: Dict[str, object]
) -> Tuple[List[Dict[str, object]], Optional[float]]:
    """Per-case wall-time ratios ``new/old`` plus the overall ratio.

    Only cases present in both reports are compared.  The overall ratio
    is computed on the summed wall, so big cases dominate; it is None
    when the reports share no case.  Wall time is only comparable on one
    machine, so this is a table to read, never a gate.
    """
    old_cases = {row["name"]: row for row in old["cases"]}
    rows: List[Dict[str, object]] = []
    old_total = new_total = 0.0
    for row in new["cases"]:
        ref = old_cases.get(row["name"])
        if ref is None:
            continue
        old_value = float(ref["wall_s"])
        new_value = float(row["wall_s"])
        old_total += old_value
        new_total += new_value
        rows.append(
            {
                "name": row["name"],
                "old": old_value,
                "new": new_value,
                "ratio": (
                    round(new_value / old_value, 4) if old_value > 0 else None
                ),
            }
        )
    overall = new_total / old_total if old_total > 0 else None
    return rows, overall


def format_compare(
    rows: List[Dict[str, object]], overall: Optional[float]
) -> str:
    """Human-readable wall-time comparison table (``x<1`` means the new
    run is faster)."""
    from repro.analysis.report import format_table

    body = [
        [
            row["name"],
            f"{row['old']:.4f}",
            f"{row['new']:.4f}",
            f"{row['ratio']:.2f}x" if row["ratio"] is not None else "-",
        ]
        for row in rows
    ]
    table = format_table(
        ["case", "old wall_s", "new wall_s", "new/old"],
        body,
        title="benchmark comparison (wall_s)",
    )
    if overall is None:
        return f"{table}\noverall wall_s: - (no case timed in both)"
    if overall < 1:
        trend = "faster than baseline"
    elif overall > 1:
        trend = "slower than baseline"
    else:
        trend = "matches baseline"
    return f"{table}\noverall wall_s: {overall:.3f}x ({trend})"


def load_report(path) -> Dict[str, object]:
    """Load a report JSON, checking the schema version and case rows."""
    with open(path) as handle:
        report = json.load(handle)
    if not isinstance(report, dict) or report.get("schema") != SCHEMA_VERSION:
        schema = report.get("schema") if isinstance(report, dict) else None
        raise ValueError(
            f"unsupported benchmark schema {schema!r} "
            f"in {path} (expected {SCHEMA_VERSION})"
        )
    cases = report.get("cases")
    if not isinstance(cases, list) or not all(
        isinstance(row, dict)
        and isinstance(row.get("name"), str)
        and isinstance(row.get("wall_s"), (int, float))
        for row in cases
    ):
        raise ValueError(f"{path} has no list of named, timed case rows")
    return report


def write_report(report: Dict[str, object], path) -> None:
    """Write a report as stable, diff-friendly JSON."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
