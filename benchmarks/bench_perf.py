"""Routing-core performance regression bench (``repro bench`` suite).

Runs the fixed workload suite from :mod:`repro.bench` — the same one the
``repro bench`` CLI and the CI smoke gate use — writes the machine-readable
report to ``benchmarks/output/BENCH_routing.json`` and, when the checked-in
pre-optimisation baseline is comparable, prints the speedup table against
``benchmarks/baseline/BENCH_pre_pr.json``.

Wall-clock ratios are only meaningful when baseline and run come from the
same machine; the ``expansions`` comparison is deterministic everywhere and
is asserted to stay within the CI regression budget.
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

#: CI budget: overall deterministic work may grow at most this much.
MAX_EXPANSION_REGRESSION = 0.25


def test_perf_suite(output_dir: Path) -> None:
    report = run_bench(repeat=2)
    write_report(report, output_dir / "BENCH_routing.json")

    baseline = load_report(BASELINE)
    for metric in ("wall_s", "expansions"):
        rows, overall = compare_reports(baseline, report, metric=metric)
        emit(format_compare(rows, overall, metric))
        if metric == "expansions":
            assert overall <= 1.0 + MAX_EXPANSION_REGRESSION, (
                f"deterministic search work regressed {overall:.3f}x "
                f"vs {BASELINE.name}"
            )
