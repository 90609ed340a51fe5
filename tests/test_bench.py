"""Tests for the benchmark harness (``repro.bench`` and ``repro bench``).

The fast cases (``chan-simple``, ``chan-dogleg``) keep these tests cheap;
comparison and gating logic are tested against hand-built reports so no
timing enters the assertions.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    bench_cases,
    compare_reports,
    counter_mismatches,
    format_compare,
    load_report,
    run_bench,
    run_case,
    write_report,
)
from repro.cli import main
from repro.core.result import RouteStats
from repro.engine import RoutingEngine
from repro.errors import InputError, ReproError

FAST = ["chan-simple", "chan-dogleg"]
#: The counter baseline checked in at the repository root.
CHECKED_IN_BASELINE = Path(__file__).parents[1] / "BENCH_routing.json"
#: The cheapest case the partitioner splits under ``shards=4``.
STITCHED = "reg-woven-1"


def _break_the_stitch(monkeypatch, how):
    """Make the engine's shard-and-stitch run crash, or return a layout
    that claims completion with no copper, so the engine rejects it."""
    import repro.core.shard as shard_module

    route_sharded = shard_module.route_problem_sharded

    def broken(problem, config, **kwargs):
        if how == "crash":
            raise RuntimeError("injected stitch crash")
        result = route_sharded(problem, config, **kwargs)
        return dataclasses.replace(result, grid=problem.build_grid())

    # The engine imports the pipeline at call time.
    monkeypatch.setattr(shard_module, "route_problem_sharded", broken)


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
        with pytest.raises(InputError):
            run_bench(only=["no-such-case"])
        # sb-dense exists but is not in the quick subset.
        with pytest.raises(InputError, match="selection is empty"):
            run_bench(quick=True, only=["sb-dense"])

    def test_unknown_name_is_named_next_to_the_valid_cases(self):
        # A known name beside an unknown one is not routed on its own.
        with pytest.raises(InputError) as excinfo:
            run_bench(only=["chan-simple", "chan-bogus"])
        assert "'chan-bogus'" in str(excinfo.value)
        assert "chan-simple" not in excinfo.value.message
        assert excinfo.value.context["choices"] == [
            case.name for case in bench_cases()
        ]

    def test_cases_route_through_the_engine(self, monkeypatch):
        """Each case is one ``RoutingEngine.route`` with one attempt, the
        path ``repro route`` runs."""
        calls = []
        route = RoutingEngine.route

        def spy(engine, problem, **kwargs):
            calls.append((engine.config.max_attempts, kwargs))
            return route(engine, problem, **kwargs)

        monkeypatch.setattr(RoutingEngine, "route", spy)
        report = run_bench(only=FAST, shards=2)
        assert calls == [(1, {"shards": 2})] * len(FAST)
        # Both are too small to shard: the engine routed them whole.
        assert [row["shards"] for row in report["cases"]] == [1, 1]

    def test_a_stitched_case_reports_the_stitch(self):
        case = next(c for c in bench_cases() if c.name == STITCHED)
        row = run_case(case, shards=4)
        assert (row["shards"], row["success"], row["verified"]) == (
            4, True, True,
        )

    @pytest.mark.parametrize("how", ["crash", "unverified"])
    def test_a_rejected_stitch_fails_the_case(self, monkeypatch, how):
        """The engine's whole-region fallback completes the case, but a
        row of it would not measure the pipeline."""
        _break_the_stitch(monkeypatch, how)
        case = next(c for c in bench_cases() if c.name == STITCHED)
        with pytest.raises(ReproError) as excinfo:
            run_case(case, shards=4)
        context = excinfo.value.context
        if how == "crash":
            assert context["stop"] == "error"
            assert "injected stitch crash" in context["error"]
        else:
            assert (context["stop"], context["verified"]) == (
                "complete", False,
            )
        # Without shards the pipeline is never asked.
        assert run_case(case)["verified"]

    def test_repeat_must_be_positive(self):
        case = next(c for c in bench_cases() if c.name == "chan-dogleg")
        with pytest.raises(ValueError):
            run_case(case, repeat=0)

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
        new = _report([("a", 0.5, 100), ("b", 2.5, 300)])
        rows, overall = compare_reports(old, new)
        assert [row["ratio"] for row in rows] == [0.5, 2.5]
        assert overall == pytest.approx(1.5)  # summed wall: 3.0 / 2.0

    def test_disjoint_reports_compare_no_case(self):
        old = _report([("a", 1.0, 100)])
        rows, overall = compare_reports(old, _report([("zzz", 1.0, 1)]))
        assert (rows, overall) == ([], None)
        assert "no case timed in both" in format_compare(rows, overall)

    def test_format_mentions_every_case(self):
        old = _report([("a", 1.0, 100)])
        rows, overall = compare_reports(old, old)
        text = format_compare(rows, overall)
        assert "a" in text and "matches baseline" in text

    def test_report_roundtrip_and_schema_check(self, tmp_path):
        path = tmp_path / "report.json"
        report = _report([("a", 1.0, 100)])
        write_report(report, path)
        assert load_report(path)["cases"] == report["cases"]
        path.write_text(json.dumps({"schema": 999}))
        with pytest.raises(ValueError):
            load_report(path)
        for bad in (
            [],
            {"schema": SCHEMA_VERSION},
            {"schema": SCHEMA_VERSION, "cases": {"a": 1.0}},
        ):
            path.write_text(json.dumps(bad))
            with pytest.raises(ValueError):
                load_report(path)
        for row in (
            {"wall_s": 1},
            {"name": ["a"], "wall_s": 1},
            {"name": "a", "wall_s": "1"},
        ):
            path.write_text(
                json.dumps({"schema": SCHEMA_VERSION, "cases": [row]})
            )
            with pytest.raises(ValueError):
                load_report(path)


class TestCounterParityCheck:
    def test_equal_reports_pass(self):
        report = _report([("a", 1.0, 100), ("b", 2.0, 50)])
        assert counter_mismatches(report, report) == []

    def test_offsetting_cases_fail_where_the_summed_gate_passes(self):
        old = _report([("a", 1.0, 100), ("b", 1.0, 100)])
        new = _report([("a", 1.0, 90), ("b", 1.0, 110)])
        total = [
            sum(row["expansions"] for row in report["cases"])
            for report in (old, new)
        ]
        assert total == [200, 200]
        assert counter_mismatches(old, new) == [
            "a: expansions 90 != baseline 100",
            "b: expansions 110 != baseline 100",
        ]

    def test_case_sets_and_wirelength(self):
        old = _report([("a", 1.0, 100), ("b", 1.0, 100)])
        new = _report([("a", 1.0, 100), ("c", 1.0, 100)])
        new["cases"][0]["wirelength"] = 7  # not in the baseline: ignored
        assert counter_mismatches(old, new) == [
            "b: missing from the report",
            "c: not in the baseline",
        ]
        old["cases"][0]["wirelength"] = 8
        assert counter_mismatches(old, new)[0] == (
            "a: wirelength 7 != baseline 8"
        )
        del new["cases"][0]["searches"]
        assert "a: searches None != baseline 1" in counter_mismatches(old, new)
        # iterations and routed, like wirelength, count where recorded.
        new["cases"][0].update(
            searches=1, wirelength=8, iterations=5, routed=3
        )
        assert counter_mismatches(old, new) == [
            "b: missing from the report",
            "c: not in the baseline",
        ]
        old["cases"][0].update(iterations=6, routed=3)
        assert "a: iterations 5 != baseline 6" in counter_mismatches(old, new)

    def test_suite_cases_the_run_left_out_do_not_count(self):
        # A full-suite baseline gates a --quick/--only run on its cases.
        old = _report([("chan-simple", 1.0, 100), ("sb-dense", 1.0, 100)])
        new = _report([("chan-simple", 1.0, 100)])
        assert counter_mismatches(old, new) == []
        assert counter_mismatches(new, old) == [
            "sb-dense: not in the baseline"
        ]


class TestBenchCli:
    def test_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_routing.json"
        code = main(["bench", "--only", *FAST, "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert {row["name"] for row in report["cases"]} == set(FAST)
        assert "cases:" not in capsys.readouterr().err

    def test_default_output_spares_the_baseline(self, tmp_path, monkeypatch):
        """Without ``-o`` the report goes to ``BENCH_run.json``: a
        one-case run never overwrites the checked-in baseline."""
        baseline = tmp_path / "BENCH_routing.json"
        baseline.write_bytes(CHECKED_IN_BASELINE.read_bytes())
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--only", "chan-simple"]) == 0
        assert baseline.read_bytes() == CHECKED_IN_BASELINE.read_bytes()
        report = json.loads((tmp_path / "BENCH_run.json").read_text())
        assert [row["name"] for row in report["cases"]] == ["chan-simple"]

    def test_compare_embedded_and_gate_passes(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        out = tmp_path / "new.json"
        assert main(["bench", "--only", *FAST, "-o", str(baseline)]) == 0
        code = main(
            [
                "bench", "--only", *FAST, "-o", str(out),
                "--compare", str(baseline),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "counter parity ok on 2 cases" in captured.out
        assert "benchmark comparison (wall_s)" in captured.out
        assert "PARITY" not in captured.err
        compare = json.loads(out.read_text())["compare"]
        assert compare["metric"] == "wall_s"
        assert compare["parity"] == []
        assert [row["name"] for row in compare["cases"]] == FAST
        assert compare["overall_ratio"] > 0

    def test_gate_fails_on_regression(self, tmp_path, capsys):
        # A doctored baseline claiming far less work than reality.
        real = run_bench(only=FAST)
        for row in real["cases"]:
            row["expansions"] = max(1, row["expansions"] // 10)
        baseline = tmp_path / "base.json"
        write_report(real, baseline)
        out = tmp_path / "new.json"
        code = main(
            [
                "bench", "--only", *FAST, "-o", str(out),
                "--compare", str(baseline),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("PARITY: ") == len(FAST)
        assert "chan-simple: expansions" in err
        assert len(json.loads(out.read_text())["compare"]["parity"]) == 2

    def test_gate_fails_on_searches_regression(self, tmp_path, capsys):
        real = run_bench(only=FAST)
        real["cases"][1]["searches"] += 1  # one case, one counter
        baseline = tmp_path / "base.json"
        write_report(real, baseline)
        code = main(
            [
                "bench", "--only", *FAST,
                "-o", str(tmp_path / "new.json"),
                "--compare", str(baseline),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("PARITY: ") == 1
        assert "PARITY: chan-dogleg: searches" in err

    def test_multi_metric_gates(self, tmp_path, capsys):
        """One --compare gates expansions, searches and wirelength; a
        baseline without wirelength, iterations and routed gates the
        other two."""
        real = run_bench(only=FAST)
        baseline = tmp_path / "base.json"
        argv = [
            "bench", "--only", *FAST,
            "-o", str(tmp_path / "new.json"),
            "--compare", str(baseline),
        ]
        real["cases"][0]["wirelength"] += 1
        write_report(real, baseline)
        assert main(argv) == 1
        assert "PARITY: chan-simple: wirelength" in capsys.readouterr().err
        for row in real["cases"]:
            del row["wirelength"], row["iterations"], row["routed"]
        write_report(real, baseline)
        assert main(argv) == 0
        real["cases"][0]["searches"] += 1
        write_report(real, baseline)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("PARITY: ") == 1
        assert "PARITY: chan-simple: searches" in err

    @pytest.mark.parametrize("counter", ["iterations", "routed"])
    def test_gate_fails_on_control_loop_counters(
        self, tmp_path, capsys, counter
    ):
        real = run_bench(only=FAST)
        real["cases"][1][counter] += 1  # one case, one counter
        baseline = tmp_path / "base.json"
        write_report(real, baseline)
        code = main(
            [
                "bench", "--only", *FAST,
                "-o", str(tmp_path / "new.json"),
                "--compare", str(baseline),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("PARITY: ") == 1
        assert f"PARITY: chan-dogleg: {counter}" in err

    def test_baseline_restricted_to_the_selection(self, tmp_path, capsys):
        # A full-suite baseline gates an --only run on the selected cases.
        real = run_bench(only=FAST)
        real["cases"].append(dict(real["cases"][0], name="sb-dense"))
        baseline = tmp_path / "base.json"
        write_report(real, baseline)
        argv = ["bench", "-o", str(tmp_path / "new.json")]
        assert main([*argv, "--only", *FAST, "--compare", str(baseline)]) == 0
        # A baseline case the suite no longer has is a difference.
        real["cases"].append(dict(real["cases"][0], name="retired-case"))
        write_report(real, baseline)
        assert main([*argv, "--only", *FAST, "--compare", str(baseline)]) == 1
        err = capsys.readouterr().err
        assert "PARITY: retired-case: missing from the report" in err

    def test_baseline_sharing_no_case_fails_with_parity_lines(
        self, tmp_path, capsys
    ):
        baseline = tmp_path / "base.json"
        argv = ["bench", "--only", "chan-dogleg", "-o", str(baseline)]
        assert main(argv) == 0
        capsys.readouterr()
        code = main(
            [
                "bench", "--only", "chan-simple",
                "-o", str(tmp_path / "new.json"),
                "--compare", str(baseline),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "PARITY: chan-simple: not in the baseline" in captured.err
        assert "Traceback" not in captured.err
        assert "no case timed in both" in captured.out

    def test_unknown_only_name_is_an_input_error(self, capsys):
        assert main(["bench", "--only", "bogus"]) == 2
        assert main(["bench", "--only", "chan-simple", "chan-bogus"]) == 2
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert lines[0].startswith("error: unknown benchmark case 'bogus'")
        assert lines[1].startswith(
            "error: unknown benchmark case 'chan-bogus'"
        )
        assert "'scale-stitch-560'" in lines[1]  # the valid cases listed
        assert "bench chan-simple" not in err  # nothing was routed

    def test_rejected_stitch_is_an_error_not_a_row(
        self, tmp_path, monkeypatch, capsys
    ):
        _break_the_stitch(monkeypatch, "crash")
        out = tmp_path / "out.json"
        argv = ["bench", "--only", STITCHED, "--shards", "4", "-o", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"error: bench case {STITCHED}: the engine rejected" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_inputs_are_structured_errors(self, tmp_path, capsys):
        assert main(["bench", "--only", *FAST, "--repeat", "0"]) == 2
        assert main(["bench", "--only", *FAST, "--shards", "0"]) == 2
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
        malformed = tmp_path / "malformed.json"
        malformed.write_text(json.dumps({"schema": SCHEMA_VERSION}))
        assert (
            main(
                [
                    "bench", "--only", *FAST,
                    "-o", str(tmp_path / "out.json"),
                    "--compare", str(malformed),
                ]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "error:" in err
        # The baseline is checked before any case is routed.
        assert "bench chan-simple" not in err
        assert not (tmp_path / "out.json").exists()


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

    def test_as_dict_keys_and_order_are_pinned(self):
        """The 24 keys every report, dump and service reply carries, in
        this order."""
        assert list(RouteStats().as_dict()) == [
            "connections",
            "routed_connections",
            "failed_connections",
            "hard_routes",
            "weak_modifications",
            "weak_rejections",
            "strong_modifications",
            "ripped_connections",
            "frozen_nets",
            "iterations",
            "searches",
            "expansions",
            "flood_visits",
            "peak_journal_depth",
            "kernel_backend",
            "elapsed_s",
            "phase_search_s",
            "phase_connectivity_s",
            "phase_victims_s",
            "phase_claims_s",
            "timed_out",
            "deadline_s",
            "cache_hit",
            "shards",
        ]
