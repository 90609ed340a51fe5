"""Tests for the benchmark harness (``repro.bench`` and ``repro bench``).

The fast cases (``chan-simple``, ``chan-dogleg``) keep these tests cheap;
comparison and gating logic are tested against hand-built reports so no
timing enters the assertions.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench import (
    COMPARE_METRICS,
    SCHEMA_VERSION,
    bench_cases,
    compare_reports,
    format_compare,
    load_report,
    run_bench,
    run_case,
    write_report,
)
from repro.cli import main
from repro.core.result import RouteStats

FAST = ["chan-simple", "chan-dogleg"]


class TestSuiteDefinition:
    def test_case_names_unique(self):
        names = [case.name for case in bench_cases()]
        assert len(names) == len(set(names))

    def test_quick_subset_is_nonempty_proper_subset(self):
        cases = bench_cases()
        quick = [case for case in cases if case.quick]
        assert quick and len(quick) < len(cases)

    def test_groups_cover_the_evaluation_tables(self):
        groups = {case.group for case in bench_cases()}
        assert {"channel", "switchbox", "region", "figure", "scaling"} <= groups


class TestRunBench:
    def test_report_shape_and_determinism(self):
        report = run_bench(only=FAST)
        assert report["schema"] == SCHEMA_VERSION
        assert [row["name"] for row in report["cases"]] == FAST
        for row in report["cases"]:
            assert row["success"] is True
            assert row["expansions"] > 0
            assert row["searches"] > 0
            assert row["peak_journal_depth"] >= 0
            assert row["wall_s"] >= 0
        # Work counters are deterministic run to run.
        again = run_bench(only=FAST)
        for first, second in zip(report["cases"], again["cases"]):
            assert first["expansions"] == second["expansions"]
            assert first["searches"] == second["searches"]
        totals = report["totals"]
        assert totals["expansions"] == sum(
            row["expansions"] for row in report["cases"]
        )

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            run_bench(only=["no-such-case"])

    def test_repeat_must_be_positive(self):
        case = next(c for c in bench_cases() if c.name == "chan-dogleg")
        with pytest.raises(ValueError):
            run_case(case, repeat=0)

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            run_bench(only=FAST, workers=0)

    def test_workers_match_sequential_counters(self):
        """The pool is a speed knob: counters and row order must be
        identical to the sequential run."""
        seq = run_bench(only=FAST)
        par = run_bench(only=FAST, workers=2)
        assert [r["name"] for r in par["cases"]] == FAST
        for a, b in zip(seq["cases"], par["cases"]):
            assert a["expansions"] == b["expansions"]
            assert a["searches"] == b["searches"]
            assert a["routed"] == b["routed"]
        assert par["workers"] == 2
        assert par["totals"]["expansions"] == seq["totals"]["expansions"]

    def test_profile_rows_carry_disjoint_phase_split(self):
        report = run_bench(only=FAST, profile=True)
        for row in report["cases"]:
            phases = row["phases"]
            buckets = [
                phases["search_s"], phases["connectivity_s"],
                phases["victims_s"], phases["claims_s"], phases["other_s"],
            ]
            assert all(value >= 0 for value in buckets)
            # Buckets are measured at disjoint leaf operations, so their
            # sum cannot exceed the run's elapsed wall (other_s is the
            # remainder, clamped at zero against timer noise).
            assert sum(buckets) <= phases["elapsed_s"] + 1e-6
        plain = run_bench(only=FAST)
        assert all("phases" not in row for row in plain["cases"])


def _report(cases):
    return {
        "schema": SCHEMA_VERSION,
        "cases": [
            {"name": name, "wall_s": wall, "expansions": exp, "searches": 1}
            for name, wall, exp in cases
        ],
    }


class TestCompare:
    def test_ratios_and_overall(self):
        old = _report([("a", 1.0, 100), ("b", 1.0, 100)])
        new = _report([("a", 0.5, 100), ("b", 1.5, 300)])
        rows, overall = compare_reports(old, new, metric="expansions")
        assert [row["ratio"] for row in rows] == [1.0, 3.0]
        assert overall == pytest.approx(2.0)  # summed: 400 / 200
        rows, overall = compare_reports(old, new, metric="wall_s")
        assert overall == pytest.approx(1.0)

    def test_unknown_cases_and_metrics(self):
        old = _report([("a", 1.0, 100)])
        with pytest.raises(ValueError):
            compare_reports(old, _report([("zzz", 1.0, 1)]))
        with pytest.raises(ValueError):
            compare_reports(old, old, metric="nonsense")
        assert "wall_s" in COMPARE_METRICS

    def test_format_mentions_every_case(self):
        old = _report([("a", 1.0, 100)])
        rows, overall = compare_reports(old, old, metric="expansions")
        text = format_compare(rows, overall, "expansions")
        assert "a" in text and "matches baseline" in text

    def test_report_roundtrip_and_schema_check(self, tmp_path):
        path = tmp_path / "report.json"
        report = _report([("a", 1.0, 100)])
        write_report(report, path)
        assert load_report(path)["cases"] == report["cases"]
        path.write_text(json.dumps({"schema": 999}))
        with pytest.raises(ValueError):
            load_report(path)


def _parity_check():
    """The CI per-case counter parity script, loaded from its file."""
    path = (
        Path(__file__).parent.parent / "benchmarks" / "check_counter_parity.py"
    )
    spec = importlib.util.spec_from_file_location("check_counter_parity", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCounterParityCheck:
    def test_equal_reports_pass(self):
        report = _report([("a", 1.0, 100), ("b", 2.0, 50)])
        assert _parity_check().mismatches(report, report) == []

    def test_offsetting_cases_fail_where_the_summed_gate_passes(self):
        old = _report([("a", 1.0, 100), ("b", 1.0, 100)])
        new = _report([("a", 1.0, 90), ("b", 1.0, 110)])
        assert compare_reports(old, new, "expansions")[1] == 1.0
        assert _parity_check().mismatches(old, new) == [
            "a: expansions 90 != baseline 100",
            "b: expansions 110 != baseline 100",
        ]

    def test_case_sets_and_wirelength(self):
        old = _report([("a", 1.0, 100), ("b", 1.0, 100)])
        new = _report([("a", 1.0, 100), ("c", 1.0, 100)])
        new["cases"][0]["wirelength"] = 7  # not in the baseline: ignored
        assert _parity_check().mismatches(old, new) == [
            "b: missing from the report",
            "c: not in the baseline",
        ]
        old["cases"][0]["wirelength"] = 8
        assert _parity_check().mismatches(old, new)[0] == (
            "a: wirelength 7 != baseline 8"
        )


class TestBenchCli:
    def test_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_routing.json"
        code = main(["bench", "--only", *FAST, "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert {row["name"] for row in report["cases"]} == set(FAST)
        assert "cases:" not in capsys.readouterr().err

    def test_compare_embedded_and_gate_passes(self, tmp_path):
        baseline = tmp_path / "base.json"
        out = tmp_path / "new.json"
        assert main(["bench", "--only", *FAST, "-o", str(baseline)]) == 0
        code = main(
            [
                "bench", "--only", *FAST, "-o", str(out),
                "--compare", str(baseline),
                "--metric", "expansions", "--gate", "expansions", "25",
            ]
        )
        assert code == 0
        compare = json.loads(out.read_text())["compare"]
        assert compare["metric"] == "expansions"
        assert compare["overall_ratio"] == pytest.approx(1.0)
        assert compare["gates"] == [
            {
                "metric": "expansions",
                "max_regression_pct": 25.0,
                "overall_ratio": pytest.approx(1.0),
                "failed": False,
            }
        ]
        assert "max_regression_pct" not in compare

    def test_gate_fails_on_regression(self, tmp_path, capsys):
        # A doctored baseline claiming far less work than reality.
        real = run_bench(only=FAST)
        for row in real["cases"]:
            row["expansions"] = max(1, row["expansions"] // 10)
        baseline = tmp_path / "base.json"
        write_report(real, baseline)
        code = main(
            [
                "bench", "--only", *FAST,
                "-o", str(tmp_path / "new.json"),
                "--compare", str(baseline),
                "--gate", "expansions", "25",
            ]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_multi_metric_gates(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        assert main(["bench", "--only", *FAST, "-o", str(baseline)]) == 0
        out = tmp_path / "new.json"
        code = main(
            [
                "bench", "--only", *FAST, "-o", str(out),
                "--compare", str(baseline),
                "--gate", "expansions", "25",
                "--gate", "searches", "25",
            ]
        )
        assert code == 0
        gates = json.loads(out.read_text())["compare"]["gates"]
        assert [g["metric"] for g in gates] == ["expansions", "searches"]
        assert all(g["failed"] is False for g in gates)
        assert all(g["overall_ratio"] == pytest.approx(1.0) for g in gates)

    def test_gate_fails_on_searches_regression(self, tmp_path, capsys):
        real = run_bench(only=FAST)
        for row in real["cases"]:
            row["searches"] = max(1, row["searches"] // 10)
        baseline = tmp_path / "base.json"
        write_report(real, baseline)
        code = main(
            [
                "bench", "--only", *FAST,
                "-o", str(tmp_path / "new.json"),
                "--compare", str(baseline),
                "--gate", "expansions", "25",
                "--gate", "searches", "25",
            ]
        )
        assert code == 1
        assert "searches" in capsys.readouterr().err

    def test_bad_inputs_are_structured_errors(self, tmp_path, capsys):
        assert main(["bench", "--only", *FAST, "--repeat", "0"]) == 2
        assert main(["bench", "--only", *FAST, "--workers", "0"]) == 2
        # Gates are meaningless without a baseline to compare against.
        assert (
            main(["bench", "--only", *FAST, "--gate", "searches", "25"]) == 2
        )
        assert (
            main(
                [
                    "bench", "--only", *FAST,
                    "--compare", "x.json", "--gate", "bogus", "25",
                ]
            )
            == 2
        )
        assert (
            main(
                [
                    "bench", "--only", *FAST,
                    "-o", str(tmp_path / "out.json"),
                    "--compare", str(tmp_path / "missing.json"),
                ]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "error:" in err


class TestRouteStatsSerialization:
    def test_as_dict_is_a_scalar_whitelist(self):
        stats = RouteStats()
        stats.attempt_log = [object()]  # runtime-only, must not leak
        payload = stats.as_dict()
        assert "attempt_log" not in payload
        assert set(payload) == set(RouteStats.SCALAR_FIELDS)
        # Scalars only: numbers, bools, None, and short strings (the
        # kernel-backend name) — never lists/dicts/objects.
        assert all(
            value is None or isinstance(value, (int, float, bool, str))
            for value in payload.values()
        )
        # A fresh dict, not a live view of the instance.
        payload["iterations"] = 999
        assert stats.iterations != 999

    def test_new_counters_serialized(self):
        payload = RouteStats(searches=7, peak_journal_depth=41).as_dict()
        assert payload["searches"] == 7
        assert payload["peak_journal_depth"] == 41
