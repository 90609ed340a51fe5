"""End-to-end benchmark of the router through the paths users run.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --workload NAME [--workload NAME ...]
        --seed S [--seconds T] [--trace 0|1] [--out FILE]

Each workload runs in its own process.  The untraced run (``--trace 0``)
reports the end-to-end metrics; the traced run times the calls into
each layer from outside the program and reports per-layer metrics.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the metrics named in ``BENCHMARK.json``.
The exit code is non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchenv import ROOT, WORK, use_source_tree

# Modules that import repro (inputs, loads, checks, report, tracer) are
# imported inside the functions below: use_source_tree() must run first.


@dataclass(frozen=True)
class Workload:
    """How a workload runs; why each exists is in README.md."""

    kind: str  # "route" | "service"
    #: Wall seconds of one round on the quiet reference box.  A run does
    #: ``--seconds / round_s`` rounds: the work is fixed by the run
    #: length, so both sides of a comparison route identical inputs, and
    #: today's code measures for about ``--seconds``.
    round_s: float


WORKLOADS: Dict[str, Workload] = {
    "engine-suite": Workload("route", 1.45),
    "region-560": Workload("route", 2.2),
    "region-560-shards4": Workload("route", 1.15),
    "service-hot": Workload("service", 1.0),
    "service-cold": Workload("service", 1.5),
}

def rounds_for(name: str, seconds: float) -> int:
    return max(1, round(seconds / WORKLOADS[name].round_s))


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def measure(name: str, seed: int, seconds: float, trace: bool,
            launches: int = 5, rounds: Optional[int] = None) -> dict:
    """Run one workload in this process; returns the full report.

    ``rounds`` overrides the work derived from ``seconds`` (the harness
    tests pass 1).
    """
    import loads

    count = rounds if rounds is not None else rounds_for(name, seconds)
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = dict(os.environ)
    build_s = loads.warm_launch(env)
    try:
        if WORKLOADS[name].kind == "route":
            report = _measure_route(name, seed, count, trace, launches, env)
        else:
            report = _measure_service(name, seed, count, trace, launches,
                                      run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    report["metrics"]["kernel.build_s"] = (build_s, "s")
    report.update(workload=name, seed=seed, seconds=seconds, trace=trace,
                  provenance=provenance())
    return report


def _measure_route(name, seed, count, trace, launches, env) -> dict:
    import inputs
    import loads
    from checks import check_route
    from report import route_layers
    from tracer import Tracer, install_route_layers

    setup = timed_setups(lambda: loads.interpreter_launch(env), launches,
                         every_cpu=False)
    if name == "engine-suite":
        plan = inputs.engine_suite_plan(seed, count)
    else:
        plan = inputs.region_plan(count, 4 if name.endswith("shards4") else 1)
    phase = loads.route_phase(plan)
    checked = check_route(plan, phase)
    phase.outputs = []  # free the results before anything else runs
    report = _base_report(inputs.route_inputs_digest(plan), phase, checked,
                          setup)
    if trace:
        tracer = Tracer()
        install_route_layers(tracer)
        try:
            traced = loads.route_phase(plan, tracer)
        finally:
            tracer.restore()
        tracer.write_jsonl(str(WORK / f"spans-{name}.jsonl"))
        layers = route_layers(tracer.spans, tracer.counts, traced,
                              traced.outputs, plan.shard_workers or 1)
        _add_traced(report, traced, check_route(plan, traced), checked,
                    layers)
    return report


def _measure_service(name, seed, count, trace, launches, run_dir) -> dict:
    import inputs
    import loads
    from checks import check_service
    from report import service_layers
    from tracer import read_jsonl

    if name == "service-hot":
        cache = run_dir / "cache"
        plan = inputs.hot_plan(seed, _warm_cache(run_dir, cache), count)
        caches = [cache] * launches
    else:
        plan = inputs.cold_plan(seed, count)
        caches = [run_dir / f"cache-{i}" for i in range(launches)]
    daemons: List[loads.Daemon] = []

    def launch() -> float:
        if daemons:
            daemons[-1].stop()
        daemons.append(loads.Daemon(run_dir, f"d{len(daemons)}",
                                    caches[len(daemons)]))
        return daemons[-1].start()

    try:
        setup = timed_setups(launch, launches, every_cpu=True)
        phase = loads.submit_all(daemons[-1].socket, plan)
    finally:
        for daemon in daemons:
            daemon.stop()
    checked = check_service(plan, phase)
    report = _base_report(inputs.service_inputs_digest(plan), phase, checked,
                          setup)
    hit_rate = service_layers(phase, [])["service.cache_hit_rate"][0]
    if name == "service-hot" and hit_rate != 1.0:
        report["failures"]["cache"] = f"hot cache hit rate {hit_rate}"
    if trace:
        spans_path = WORK / f"spans-{name}.jsonl"
        cache_dir = caches[-1] if name == "service-hot" else (
            run_dir / "cache-traced")
        with loads.Daemon(run_dir, "traced", cache_dir, spans_path) as daemon:
            daemon.start()
            traced = loads.submit_all(daemon.socket, plan)
        layers = service_layers(traced, read_jsonl(str(spans_path)))
        _add_traced(report, traced, check_service(plan, traced), checked,
                    layers)
    return report


def timed_setups(launch, count: int,
                 every_cpu: bool) -> List[Tuple[float, float]]:
    """``(raw, speed-scaled)`` seconds of ``count`` calls of ``launch()``,
    which returns the seconds it measured itself."""
    import speed

    ends = [speed.sample(every_cpu)]
    out = []
    for _ in range(count):
        seconds = launch()
        ends.append(speed.sample(every_cpu))
        out.append((seconds, seconds / ((ends[-2] + ends[-1]) / 2)))
    return out


def _warm_cache(run_dir: Path, cache: Path) -> List[dict]:
    """Route hot candidates on a daemon over ``cache`` until every family
    has its complete bases; returns the base payloads (untimed)."""
    import inputs
    import loads
    from repro.service import ServiceClient

    wanted = inputs.HOT_BASES_PER_FAMILY
    bases: Dict[str, List[dict]] = {}
    with loads.Daemon(run_dir, "warm", cache) as daemon:
        daemon.start()
        client = ServiceClient(daemon.socket, timeout_s=120.0)
        for label, payload in inputs.hot_candidates():
            if len(bases.get(label, [])) == wanted:
                continue
            if client.submit(payload)["result"]["status"] == "complete":
                bases.setdefault(label, []).append(payload)
    if any(len(bases.get(label, [])) < wanted
           for label, _build in inputs.FAMILIES):
        raise RuntimeError("not enough complete hot candidates")
    return [payload for label, _b in inputs.FAMILIES
            for payload in bases[label]]


def _base_report(inputs_sha256, phase, checked, setup) -> dict:
    from report import end_to_end, router_counts

    metrics = end_to_end(phase, setup, len(checked.failures), checked.routed,
                         checked.connections, checked.wirelength)
    return {
        "requests": len(phase.latencies_s),
        "samples": len(phase.latencies_s) - len(phase.errors),
        "attempted": len(phase.latencies_s),
        "inputs_sha256": inputs_sha256,
        "outputs_sha256": checked.outputs_sha256,
        "failures": {str(k): v for k, v in checked.failures.items()},
        "rounds": [
            {"wall_s": wall, "requests": size, "slowdown": slow}
            for wall, size, slow in zip(phase.round_walls, phase.round_sizes,
                                        phase.slowdowns())
        ],
        "metrics": metrics,
        # Deterministic router counters need no tracing.
        "layers": router_counts(checked.distinct_stats),
    }


def _add_traced(report, traced, traced_checked, checked, layers) -> None:
    """Fold the traced phase into ``report``: its layers, its failures,
    and the proof that tracing changed no output."""
    report["attempted"] += len(traced.latencies_s)
    for rid, error in traced_checked.failures.items():
        report["failures"][f"traced-{rid}"] = error
    if traced_checked.outputs_sha256 != checked.outputs_sha256:
        report["failures"]["trace"] = "traced outputs differ from untraced"
    untraced = report["metrics"]["throughput_per_s"][0]
    layers["trace.overhead"] = (1.0 - traced.throughput() / untraced,
                                "share")
    report["layers"].update(layers)


def provenance() -> dict:
    from repro.maze.kernels import active_backend

    backend = active_backend().name
    so_digest = None
    if backend == "compiled":
        from repro.maze.kernels import compiled

        with open(compiled._lib._name, "rb") as handle:
            so_digest = hashlib.sha256(handle.read()).hexdigest()
    commit, src_clean = _commit()
    return {
        "commit": commit,
        "src_matches_commit": src_clean,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernel_backend": backend,
        "kernel_so_sha256": so_digest,
    }


def _commit():
    """``(HEAD, whether src/ matches it)``; Nones outside a git checkout.

    The measured program is the commit's own only when src/ is clean.
    """
    try:
        head = _git("rev-parse", "HEAD")
    except OSError:  # no git binary
        return None, None
    if head.returncode != 0:
        return None, None
    return (head.stdout.strip(),
            _git("diff", "--quiet", "HEAD", "--", "src").returncode == 0)


def _git(*args) -> subprocess.CompletedProcess:
    """Run git on this checkout only, never on a repository above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    return subprocess.run(["git", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True)


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def declared_metrics() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end"|"per_layer": {name: unit}}`` from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {group: {m["name"]: m["unit"] for m in spec[group]}
            for group in ("end_to_end", "per_layer")}


def result_line(report: dict) -> dict:
    """The final JSON line: declared metrics only.

    A per-layer metric of a layer the workload never enters (a shard
    stage on the service, say) reads 0.
    """
    group = "per_layer" if report["trace"] else "end_to_end"
    source = report["layers"] if report["trace"] else report["metrics"]
    metrics = {}
    for name, unit in declared_metrics()[group].items():
        if name not in source and group == "end_to_end":
            raise KeyError(f"end-to-end metric {name} was not measured")
        value = source.get(name, (0.0, unit))[0]
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": not report["failures"],
        "attempted": report["attempted"],
        "failed": len(report["failures"]),
        "metrics": metrics,
    }


def print_report(report: dict) -> None:
    name = report["workload"]
    print(f"# {name}  seed={report['seed']}  requests={report['requests']}")
    print(f"{name}  inputs_sha256   {report['inputs_sha256']}")
    print(f"{name}  outputs_sha256  {report['outputs_sha256']}")
    for group in ("metrics", "layers"):
        for metric, (value, unit) in sorted(report[group].items()):
            samples = ""
            if metric.startswith("latency_ms"):
                samples = f"  (n={report['samples']})"
            print(f"{name}  {metric:<36} {value:.6g} {unit}{samples}")
    for rid, error in sorted(report["failures"].items()):
        print(f"{name}  FAILED request {rid}: {error}")


def run_children(args) -> int:
    """Run each workload in its own fresh process; collect their reports."""
    reports = {}
    WORK.mkdir(parents=True, exist_ok=True)
    code = 0
    for name in args.workload:
        out = WORK / f"report-{name}-{os.getpid()}.json"
        argv = [sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", str(out)]
        code = max(code, subprocess.run(argv).returncode)
        if out.exists():
            reports[name] = json.loads(out.read_text())
            out.unlink()
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workloads": reports}, indent=1, sort_keys=True) + "\n")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full report JSON here")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM so every ``finally`` stops the daemons it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    use_source_tree()
    if len(args.workload) > 1:
        return run_children(args)
    report = measure(args.workload[0], args.seed, args.seconds,
                     bool(args.trace))
    print_report(report)
    if args.out:
        Path(args.out).write_text(
            json.dumps(report, indent=1, sort_keys=True) + "\n")
    line = result_line(report)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
