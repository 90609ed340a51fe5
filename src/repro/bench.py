"""The routing performance benchmark harness (``repro bench``).

Performance is a first-class deliverable of this reproduction: the paper's
"guaranteed finite time" argument assumes the inner operations of the
rip-up loop (maze search, undo of a failed attempt) are cheap, and the
roadmap's north star is "as fast as the hardware allows".  This module
makes that measurable and regression-proof:

* a fixed suite of **benchmark cases** mirroring the evaluation workloads
  (table-1 channels, table-2 switchboxes, table-3 general regions, the
  figure layouts, and the scaling series of growing switchboxes);
* :func:`run_bench` routes every case, records wall time plus the
  machine-independent work counters (searches issued, A* cells expanded,
  peak change-journal depth), and returns a JSON-ready report;
* :func:`compare_reports` diffs two reports case by case and flags
  regressions, so CI can fail a PR that slows the hot path down.

Wall-clock numbers are only comparable on the same machine; the work
counters (``expansions``, ``searches``) are deterministic per case and
comparable across machines, which is why the CI smoke gate uses
``--metric expansions``.  ``repro bench --compare old.json`` prints both.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import MightyConfig
from repro.core.router import route_problem
from repro.netlist.problem import RoutingProblem

#: Bumped when the report layout changes incompatibly.
SCHEMA_VERSION = 1

#: Default report filename (written next to the CWD unless overridden).
DEFAULT_REPORT = "BENCH_routing.json"


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
    # region where single-core routing visibly hurts and `--shards 4`
    # visibly wins (see PERFORMANCE.md §7).
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

    Work counters come from the last run — they are deterministic for a
    given case, so any run reports the same numbers.  With ``profile``
    the row also carries the router's per-phase wall split (search,
    connectivity, victim analysis, and ``claims``: grid commit/rip and
    best-state copies — measured at the leaf operations, so the buckets
    are disjoint; ``other`` is the remainder against the run's
    ``elapsed_s``).

    ``shards > 1`` routes through the shard-and-stitch pipeline
    (:func:`repro.core.shard.route_problem_sharded`); cases the
    partitioner rejects fall back to whole-region routing, so their
    counters match the ``shards=1`` row exactly.  The row's ``shards``
    field reports what actually happened (1 on fallback).  Every row also
    carries the ground-truth quality metrics the shard gates compare:
    ``wirelength`` (net-owned wire cells) and ``verified`` (the
    :mod:`repro.analysis.verify` verdict).
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    best_wall = float("inf")
    result = None
    problem = None
    for _ in range(repeat):
        problem = case.build()
        started = time.perf_counter()
        if shards > 1:
            from repro.core.shard import route_problem_sharded

            result = route_problem_sharded(problem, config, shards=shards)
        else:
            result = route_problem(problem, config)
        wall = time.perf_counter() - started
        best_wall = min(best_wall, wall)
    stats = result.stats
    from repro.analysis.metrics import layout_metrics
    from repro.analysis.verify import verify_result

    wirelength = layout_metrics(problem, result.grid).wire_cells
    verified = verify_result(problem, result).ok
    row: Dict[str, object] = {
        "name": case.name,
        "group": case.group,
        "wall_s": round(best_wall, 6),
        "searches": int(getattr(stats, "searches", 0)),
        "expansions": int(stats.expansions),
        "peak_journal_depth": int(getattr(stats, "peak_journal_depth", 0)),
        "iterations": int(stats.iterations),
        "connections": int(stats.connections),
        "routed": int(stats.routed_connections),
        "success": bool(result.success),
        "kernel_backend": str(getattr(stats, "kernel_backend", "")),
        "exhausted_searches": int(getattr(stats, "exhausted_searches", 0)),
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


def _run_case_by_name(
    name: str,
    config: Optional[MightyConfig],
    repeat: int,
    profile: bool,
    shards: int = 1,
) -> Dict[str, object]:
    """Process-pool work unit: rebuild the case from the registry.

    ``BenchCase.build`` closures do not pickle, so workers receive the
    case *name* and look it up in :func:`bench_cases` themselves — the
    registry is deterministic, so every process sees identical cases.
    """
    case = next((c for c in bench_cases() if c.name == name), None)
    if case is None:
        raise ValueError(f"unknown benchmark case {name!r}")
    return run_case(
        case, config=config, repeat=repeat, profile=profile, shards=shards
    )


def run_bench(
    quick: bool = False,
    repeat: int = 1,
    only: Optional[Sequence[str]] = None,
    config: Optional[MightyConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
    workers: int = 1,
    profile: bool = False,
    shards: int = 1,
) -> Dict[str, object]:
    """Run the suite and return the JSON-ready report dict.

    ``workers > 1`` routes the cases on a process pool.  The work
    counters are per-case deterministic, so the report's ``expansions``
    and ``searches`` are identical to a sequential run; the rows are
    assembled in selection order regardless of completion order.  Wall
    times are measured inside each worker and are subject to whatever
    contention the pool creates — on a busy machine prefer ``workers=1``
    for wall-clock comparisons and use the pool where only the counters
    matter (the CI smoke gate).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    selected = [
        case
        for case in bench_cases()
        if (not quick or case.quick) and (only is None or case.name in only)
    ]
    if not selected:
        raise ValueError("benchmark selection is empty")
    rows: List[Dict[str, object]] = []
    if workers == 1:
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
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(
                    _run_case_by_name,
                    case.name,
                    config,
                    repeat,
                    profile,
                    shards,
                )
                for case in selected
            ]
            for case, future in zip(selected, futures):
                if progress is not None:
                    progress(f"bench {case.name} ...")
                rows.append(future.result())
    return {
        "schema": SCHEMA_VERSION,
        "created_unix": round(time.time(), 3),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "quick": quick,
        "repeat": repeat,
        "workers": workers,
        "shards": shards,
        # Provenance for the wall numbers: which search-kernel backend the
        # rows ran on.  Counters are backend-invariant by the parity gate,
        # so only wall_s comparisons need to respect this field.
        "kernel": rows[0].get("kernel_backend", "") if rows else "",
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
#: Metrics ``compare_reports`` understands.  ``wall_s`` is only meaningful
#: on one machine; ``expansions``/``searches`` are machine-independent.
#: ``wirelength`` is the routed-quality metric the shard-matrix CI job
#: gates at 0% — a shard-and-stitch run must never produce more wire than
#: the single-core route of the same suite.
COMPARE_METRICS = ("wall_s", "expansions", "searches", "wirelength")


def compare_reports(
    old: Dict[str, object],
    new: Dict[str, object],
    metric: str = "wall_s",
) -> Tuple[List[Dict[str, object]], float]:
    """Per-case ratios ``new/old`` for ``metric`` plus the overall ratio.

    Only cases present in both reports are compared.  The overall ratio is
    computed on the summed metric, so big cases dominate — a 2x slowdown
    on a microsecond case cannot fail the gate on its own.
    """
    if metric not in COMPARE_METRICS:
        raise ValueError(
            f"unknown metric {metric!r}; choices: {COMPARE_METRICS}"
        )
    old_cases = {row["name"]: row for row in old.get("cases", [])}
    rows: List[Dict[str, object]] = []
    old_total = new_total = 0.0
    for row in new.get("cases", []):
        ref = old_cases.get(row["name"])
        if ref is None:
            continue
        old_value = float(ref.get(metric, 0))
        new_value = float(row.get(metric, 0))
        old_total += old_value
        new_total += new_value
        ratio = new_value / old_value if old_value > 0 else float("nan")
        rows.append(
            {
                "name": row["name"],
                "old": old_value,
                "new": new_value,
                "ratio": round(ratio, 4) if ratio == ratio else None,
            }
        )
    if not rows:
        raise ValueError("reports share no benchmark cases")
    overall = new_total / old_total if old_total > 0 else float("nan")
    return rows, overall


def format_compare(
    rows: List[Dict[str, object]], overall: float, metric: str
) -> str:
    """Human-readable comparison table (``x<1`` means the new run is
    faster)."""
    from repro.analysis.report import format_table

    body = [
        [
            row["name"],
            _fmt_metric(row["old"], metric),
            _fmt_metric(row["new"], metric),
            f"{row['ratio']:.2f}x" if row["ratio"] is not None else "-",
        ]
        for row in rows
    ]
    table = format_table(
        ["case", f"old {metric}", f"new {metric}", "new/old"],
        body,
        title=f"benchmark comparison ({metric})",
    )
    if overall < 1:
        trend = "faster than baseline"
    elif overall > 1:
        trend = "slower than baseline"
    else:
        trend = "matches baseline"
    verdict = f"overall {metric}: {overall:.3f}x ({trend})"
    return f"{table}\n{verdict}"


def _fmt_metric(value: float, metric: str) -> str:
    if metric == "wall_s":
        return f"{value:.4f}"
    return str(int(value))


def load_report(path) -> Dict[str, object]:
    """Load a report JSON, checking the schema version."""
    with open(path) as handle:
        report = json.load(handle)
    if report.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported benchmark schema {report.get('schema')!r} "
            f"in {path} (expected {SCHEMA_VERSION})"
        )
    return report


def write_report(report: Dict[str, object], path) -> None:
    """Write a report as stable, diff-friendly JSON."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
