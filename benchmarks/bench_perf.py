"""Routing-core performance regression bench (``repro bench`` suite).

Runs the fixed workload suite from :mod:`repro.bench` — the same one the
``repro bench`` CLI and CI use — writes the machine-readable report to
``benchmarks/output/BENCH_routing.json`` and prints the wall-time table
against the checked-in pre-optimisation baseline
``benchmarks/baseline/BENCH_pre_pr.json``.

Wall-clock ratios are only meaningful when baseline and run come from the
same machine; the summed ``expansions`` over the cases both reports hold
is deterministic everywhere and is asserted to stay within a 25% budget.
"""

from __future__ import annotations

from pathlib import Path

from conftest import emit

from repro.bench import (
    compare_reports,
    format_compare,
    load_report,
    run_bench,
    write_report,
)

BASELINE = Path(__file__).parent / "baseline" / "BENCH_pre_pr.json"

#: Budget: overall deterministic work may grow at most this much.
MAX_EXPANSION_REGRESSION = 0.25


def test_perf_suite(output_dir: Path) -> None:
    report = run_bench(repeat=2)
    write_report(report, output_dir / "BENCH_routing.json")

    baseline = load_report(BASELINE)
    emit(format_compare(*compare_reports(baseline, report)))
    old = {row["name"]: row["expansions"] for row in baseline["cases"]}
    shared = [row for row in report["cases"] if row["name"] in old]
    overall = sum(row["expansions"] for row in shared) / sum(
        old[row["name"]] for row in shared
    )
    emit(f"overall expansions: {overall:.3f}x vs {BASELINE.name}")
    assert overall <= 1.0 + MAX_EXPANSION_REGRESSION, (
        f"deterministic search work regressed {overall:.3f}x "
        f"vs {BASELINE.name}"
    )
