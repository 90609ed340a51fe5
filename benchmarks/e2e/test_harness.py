"""Tests of the benchmark harness itself: ``pytest benchmarks/e2e``."""

from __future__ import annotations

import pytest

import benchenv

benchenv.use_source_tree()

import inputs  # noqa: E402  (needs the source tree on sys.path)
import run  # noqa: E402
from report import percentiles  # noqa: E402
from tracer import (  # noqa: E402
    Tracer,
    layer_totals,
    self_times,
    shard_stage_times,
)


@pytest.mark.parametrize("n, expected", [
    (1, {"x.p50"}),
    (99, {"x.p50"}),
    (100, {"x.p50", "x.p90"}),
    (999, {"x.p50", "x.p90"}),
    (1000, {"x.p50", "x.p90", "x.p99"}),
])
def test_percentile_needs_ten_samples_beyond(n, expected):
    samples = [float(i) for i in range(n)]
    assert set(percentiles("x", samples, "ms")) == expected


def test_percentile_interpolates():
    out = percentiles("x", [1.0, 2.0, 3.0, 4.0], "ms", scale=10.0)
    assert out["x.p50"] == (25.0, "ms")


def test_self_time_subtracts_direct_children():
    spans = [
        (2, 1, "a", 1.0, 4.0, 0),
        (3, 2, "b", 2.0, 3.0, 0),
        (4, 1, "c", 5.0, 6.0, 0),
        (1, 0, "request", 0.0, 10.0, 0),
    ]
    assert self_times(spans) == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}
    totals = layer_totals(spans)
    assert totals["request"] == {"calls": 1, "total": 10.0, "self": 6.0}
    assert sum(entry["self"] for entry in totals.values()) == 10.0


def test_shard_stages_from_pipeline_children():
    spans = [
        (2, 1, "shard.subproblem", 1.0, 2.0, 0),
        (3, 1, "shard.subproblem", 2.0, 3.0, 0),
        (4, 1, "shard.merge", 7.0, 8.0, 0),
        (5, 1, "router.route", 8.0, 9.5, 0),
        (6, 0, "router.route", 20.0, 30.0, 1),  # not inside a pipeline
        (1, 0, "shard.pipeline", 0.0, 10.0, 0),
    ]
    assert shard_stage_times(spans) == {"fanout": 4.0, "stitch": 1.5}


class _Target:
    def add(self, a, b=0):
        return [a, b]

    def boom(self):
        raise KeyError("boom")


def test_wrappers_are_transparent_and_restorable():
    tracer = Tracer()
    original = _Target.__dict__["add"]
    tracer.install(_Target, "add", "t.add")
    tracer.install(_Target, "boom", "t.boom")
    target = _Target()
    sentinel = object()
    assert target.add(sentinel, b=2) == [sentinel, 2]
    assert target.add(sentinel)[0] is sentinel
    with pytest.raises(KeyError) as raised:
        target.boom()
    assert raised.value.args == ("boom",)
    assert [span[2] for span in tracer.spans] == ["t.add", "t.add", "t.boom"]
    tracer.restore()
    assert _Target.__dict__["add"] is original
    assert target.add(1) == [1, 0]
    assert len(tracer.spans) == 3


def test_nested_wrappers_record_parents():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    tracer.request_id = 7
    assert outer(1) == 4
    (inner_id, inner_parent, *_rest, inner_req), (outer_id, outer_parent,
                                                  *_r, _req) = tracer.spans
    assert inner_parent == outer_id and outer_parent == 0
    assert inner_req == 7


def test_cold_plan_routes_the_same_work_for_every_seed():
    def work(plan):
        return sorted(
            (sub.key, sub.no_cache) for round_ in plan for sub in round_
        )

    first, second = inputs.cold_plan(0, 1), inputs.cold_plan(1, 1)
    assert work(first) == work(second)
    assert [s.key for s in first[0]] != [s.key for s in second[0]]
    assert sum(s.no_cache for s in first[0]) == inputs.COLD_BLOCKS_PER_ROUND


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_each_workload_one_round_traced(name):
    report = run.measure(name, seed=0, seconds=0, trace=True, launches=1,
                         rounds=1)
    assert report["failures"] == {}
    assert report["metrics"]["error_rate"][0] == 0.0
    layers = report["layers"]
    assert "trace.overhead" in layers
    if run.WORKLOADS[name].kind == "route":
        assert layers["trace.unattributed_share"][0] <= 0.10
    if name == "region-560-shards4":
        assert layers["shard.count"][0] == 4
    if name == "service-hot":
        assert layers["service.cache_hit_rate"][0] == 1.0
    if name == "service-cold":
        assert layers["service.cache_hit_rate"][0] == 0.0
    line = run.result_line(report)
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == set(run.declared_metrics()["per_layer"])

