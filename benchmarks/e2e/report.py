"""Metric arithmetic: percentiles, end-to-end metrics, per-layer metrics.

Every metric is a ``(value, unit)`` pair keyed by name.  Layer shares
are the layer's time divided by the summed request wall of the phase,
so they stay comparable between runs of different lengths; the
``*_ms`` values are per request (``.p50``/``.p90``: over calls).
"""

from __future__ import annotations

import math
import resource
from typing import Dict, Sequence, Tuple

from loads import DAEMON_WORKERS, Phase, attempt_summary
from tracer import Span, durations, layer_totals, shard_stage_times

Metrics = Dict[str, Tuple[float, str]]

#: (suffix, quantile, minimum samples): a percentile is reported only
#: when at least ten samples lie beyond it.
PERCENTILES = (("p50", 0.50, 1), ("p90", 0.90, 100), ("p99", 0.99, 1000))


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear interpolation between the closest ranks."""
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def percentiles(name: str, samples: Sequence[float], unit: str,
                scale: float = 1.0, only: Sequence[str] = ("p50", "p90",
                                                            "p99")) -> Metrics:
    """``name.pNN`` for every percentile the sample count supports."""
    out: Metrics = {}
    for suffix, q, needed in PERCENTILES:
        if suffix in only and len(samples) >= needed:
            out[f"{name}.{suffix}"] = (scale * percentile(samples, q), unit)
    return out


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped descendant."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def end_to_end(phase: Phase, setup: Sequence[Tuple[float, float]],
               failed: int, routed: int, connections: int,
               wirelength: int) -> Metrics:
    """The untraced phase's metrics; ``setup`` holds ``(raw, scaled)``
    seconds per launch.  Timed metrics are speed-scaled (see
    :mod:`speed`), their ``.raw`` twins as measured."""
    latencies = phase.latencies()
    metrics: Metrics = {
        "setup_s": (percentile([s for _r, s in setup], 0.5), "s"),
        "setup_s.raw": (percentile([r for r, _s in setup], 0.5), "s"),
        "throughput_per_s": (phase.throughput(), "req/s"),
        "throughput_per_s.raw": (phase.throughput(scaled=False), "req/s"),
        "latency_ms.p50.raw": (
            1e3 * percentile(phase.latencies(scaled=False), 0.5), "ms"),
        "machine.slowdown": (percentile(phase.slowdowns(), 0.5), "ratio"),
        "error_rate": (failed / len(phase.latencies_s), "share"),
        "routed_fraction": (routed / max(1, connections), "share"),
        "wirelength_cells": (float(wirelength), "cells"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    metrics.update(percentiles("latency_ms", latencies, "ms", 1e3))
    return metrics


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def router_counts(stats: Sequence[dict]) -> Metrics:
    """Deterministic router counters summed over distinct instances."""
    total = {key: sum(s.get(key, 0) for s in stats) for key in (
        "searches", "expansions", "iterations", "ripped_connections",
        "weak_modifications", "weak_rejections")}
    weak_tries = total["weak_modifications"] + total["weak_rejections"]
    return {
        "router.searches": (float(total["searches"]), "count"),
        "router.expansions": (float(total["expansions"]), "count"),
        "router.iterations": (float(total["iterations"]), "count"),
        "router.rips": (float(total["ripped_connections"]), "count"),
        "router.weak_accept_ratio": (
            total["weak_modifications"] / weak_tries if weak_tries else 0.0,
            "ratio"),
        "maze.expansions_per_search": (
            total["expansions"] / max(1, total["searches"]), "count"),
    }


def engine_layer(summaries: Sequence[Tuple[int, float, float]]) -> Metrics:
    """Engine metrics from per-request ``attempt_summary`` tuples."""
    attempt_s = sum(s[1] for s in summaries)
    return {
        "engine.attempts_per_request": (
            sum(s[0] for s in summaries) / max(1, len(summaries)), "count"),
        "engine.wasted_attempt_share": (
            sum(s[2] for s in summaries) / attempt_s if attempt_s else 0.0,
            "share"),
    }


def route_layers(spans: Sequence[Span], counts: Dict[str, int],
                 phase: Phase, results: Sequence[object],
                 shard_workers: int) -> Metrics:
    """Layers of a traced route phase: spans plus result telemetry."""
    n = max(1, len(phase.latencies_s))
    wall = sum(phase.latencies_s)
    totals = layer_totals(spans)

    def total(name: str) -> float:
        return totals.get(name, {}).get("total", 0.0)

    def self_of(name: str) -> float:
        return totals.get(name, {}).get("self", 0.0)

    def calls(name: str) -> float:
        return float(totals.get(name, {}).get("calls", 0))

    stages = shard_stage_times(spans)
    summaries = [attempt_summary(r.stats.attempt_log, r.status)
                 for r in results if r is not None]
    engine_self = wall - sum(s[1] for s in summaries)
    out: Metrics = engine_layer(summaries)
    out.update({
        "trace.unattributed_share": (self_of("request") / wall, "share"),
        "engine.self_ms": (1e3 * engine_self / n, "ms"),
        "engine.self_share": (engine_self / wall, "share"),
        "engine.verify_ms": (1e3 * total("engine.verify") / n, "ms"),
        "engine.verify_share": (self_of("engine.verify") / wall, "share"),
        "router.route_ms": (1e3 * total("router.route") / n, "ms"),
        "router.self_ms": (1e3 * self_of("router.route") / n, "ms"),
        "router.self_share": (self_of("router.route") / wall, "share"),
        "router.search_found_ratio": (
            counts["maze.found"] / max(1, counts["maze.searches"]), "ratio"),
        "maze.search_ms": (1e3 * total("maze.search") / n, "ms"),
        "maze.wrapper_ms": (1e3 * self_of("maze.search") / n, "ms"),
        "maze.wrapper_share": (self_of("maze.search") / wall, "share"),
        "kernel.call_ms": (1e3 * total("kernel.call") / n, "ms"),
        "kernel.c_ms": (1e3 * total("kernel.c") / n, "ms"),
        "kernel.marshal_ms": (1e3 * self_of("kernel.call") / n, "ms"),
        "kernel.marshal_share": (self_of("kernel.call") / wall, "share"),
        "kernel.c_share": (self_of("kernel.c") / wall, "share"),
        "kernel.marshal_us_per_search": (
            1e6 * self_of("kernel.call") / max(1.0, calls("kernel.call")),
            "us"),
        "kernel.ns_per_expansion": (
            1e9 * total("kernel.c") / max(1, counts["maze.expansions"]),
            "ns"),
    })
    out.update(percentiles("maze.search_us", durations(spans, "maze.search"),
                           "us", 1e6, only=("p50",)))
    for layer in ("write", "connectivity", "txn", "snapshot", "build"):
        name = f"grid.{layer}"
        out[f"{name}_ms"] = (1e3 * total(name) / n, "ms")
        out[f"{name}_calls"] = (calls(name) / n, "count")
        out[f"{name}_share"] = (self_of(name) / wall, "share")
    shard_ms = {
        "partition": total("shard.partition"),
        "subproblem": total("shard.subproblem"),
        "fanout": stages["fanout"],
        "merge": total("shard.merge"),
        "stitch": stages["stitch"],
        "polish": total("shard.polish"),
    }
    for stage, seconds in shard_ms.items():
        out[f"shard.{stage}_ms"] = (1e3 * seconds / n, "ms")
        out[f"shard.{stage}_share"] = (seconds / wall, "share")
    out.update(shard_logs(results, n, stages["fanout"], shard_workers))
    return out


def shard_logs(results: Sequence[object], n: int, fanout_s: float,
               workers: int) -> Metrics:
    """Per-shard telemetry of the engine's shard attempts.

    Fan-out overhead is fan-out time minus the least time the shard
    routes themselves need on ``workers`` processes: the slowest shard,
    or the shard total spread evenly, whichever is larger.  What remains
    is pool start-up, pickling and uneven packing.
    """
    max_s = busy_s = imbalance = 0.0
    count = dropped = 0
    for result in results:
        records = [rec for rec in getattr(result.stats, "attempt_log", [])
                   if rec.get("stage") == "shard"]
        for record in records:
            log = record.get("shard_log", [])
            walls = [e["wall_s"] for e in log if "shard" in e]
            count += record.get("shards", 0)
            dropped += sum(e.get("dropped_nets", 0) for e in log
                           if e.get("stage") == "stitch")
            if walls:
                max_s += max(walls)
                busy_s += max(max(walls), sum(walls) / workers)
                imbalance += max(walls) / (sum(walls) / len(walls))
    if not count:
        return {}
    return {
        "shard.count": (count / n, "count"),
        "shard.dropped_nets": (dropped / n, "count"),
        "shard.max_shard_ms": (1e3 * max_s / n, "ms"),
        "shard.fanout_overhead_ms": (1e3 * (fanout_s - busy_s) / n, "ms"),
        "shard.imbalance": (imbalance / n, "ratio"),
    }


def service_layers(phase: Phase, daemon_spans: Sequence[Span]) -> Metrics:
    """Layers of a traced service phase: reply telemetry plus the
    daemon's own front-door spans."""
    done = [rid for rid in range(len(phase.latencies_s))
            if rid not in phase.errors]
    wall = sum(phase.latencies_s[rid] for rid in done)
    client, frontdoor, queue, worker, worker_self = [], [], [], [], []
    summaries = []
    hits = warm = 0
    for rid in done:
        job = phase.jobs[rid]
        hit = job["cache"] == "hit"
        server = job["service_s"] if hit else job["total_s"]
        client.append(phase.latencies_s[rid] - server)
        if hit:
            hits += 1
            frontdoor.append(server)
            continue
        attempts, attempt_s, wasted_s = job["attempts"]
        summaries.append((attempts, attempt_s, wasted_s))
        queue.append(job["queue_wait_s"])
        worker.append(job["service_s"])
        worker_self.append(job["service_s"] - attempt_s)
        frontdoor.append(server - job["queue_wait_s"] - job["service_s"])
        warm += bool(job.get("warm_problem"))
    out: Metrics = {
        "service.cache_hit_rate": (hits / max(1, len(done)), "share"),
        "service.warm_problem_hits": (float(warm), "count"),
        "service.shed": (float(sum("Overloaded" in e for e in
                                   phase.errors.values())), "count"),
        "service.retries": (float(phase.retries), "count"),
        "service.worker_busy_share": (
            sum(worker) / (DAEMON_WORKERS * phase.wall_s), "share"),
    }
    for name, samples in (("client", client), ("frontdoor", frontdoor),
                          ("queue_wait", queue), ("worker", worker),
                          ("worker_self", worker_self)):
        out[f"service.{name}_share"] = (sum(samples) / wall, "share")
        if samples:
            out.update(percentiles(f"service.{name}_ms", samples, "ms", 1e3,
                                   only=("p50", "p90")))
    totals = layer_totals(daemon_spans)
    measured = sum(queue) + sum(worker)
    for layer in ("parse", "canonicalize", "cache_render", "cache_store"):
        name = f"service.{layer}"
        seconds = totals.get(name, {}).get("total", 0.0)
        measured += seconds
        out[f"{name}_share"] = (seconds / wall, "share")
        samples = durations(daemon_spans, name)
        if samples:
            out.update(percentiles(f"{name}_ms", samples, "ms", 1e3,
                                   only=("p50",)))
    out["trace.unattributed_share"] = (max(0.0, wall - measured) / wall,
                                       "share")
    if summaries:
        out.update(engine_layer(summaries))
    return out
