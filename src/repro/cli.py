"""Command-line interface: ``python -m repro`` / ``repro-route``.

Subcommands
-----------
``route``
    Route a problem file (channel, switchbox or JSON problem), print the
    outcome, optionally render ASCII/SVG.  ``--deadline`` and
    ``--max-attempts`` engage the resilient engine (retry escalation
    plus, for channels, the classical fallback cascade).
``info``
    Print analysis of a problem file (density, VCG cycles, pin counts)
    without routing.
``generate``
    Emit a seeded synthetic benchmark instance to stdout or a file.
``sweep``
    The paper's minimum-width experiment: shrink a switchbox column by
    column and report the narrowest box each router completes.
``bench``
    The routing performance suite (``repro.bench``): route the benchmark
    workloads through the engine ``route`` uses, write a report
    (``BENCH_run.json`` unless ``-o`` names another), and with
    ``--compare BASELINE`` fail unless every case's work counters equal
    the baseline's.
``serve``
    Run the persistent routing daemon (``repro.service``): a warm worker
    pool behind a Unix-domain socket, with a canonical-instance cache
    and admission control.  Exits 0 on a clean SIGTERM/SIGINT drain.
``submit``
    Send one problem file to a running daemon and report the outcome
    (or ``--health`` / ``--shutdown`` for service management).

Exit codes
----------
Outcomes map to distinct codes so scripts can react without parsing
output: ``0`` success, ``1`` verification failure, ``2`` bad input,
``3`` deadline hit (partial result), ``4`` infeasible (router exhausted
every strategy), ``5`` internal error, ``6`` service overloaded (job
shed at admission), ``7`` service unreachable.  Codes 3 and 4 are read
from the returned result (``stats.timed_out``, ``status``); codes 2 and
5-7 come from structured errors.  With ``submit --retries N`` the
transient codes 6/7 mean the error *persisted through every retry*; the
code always reflects the final attempt.  Malformed input files produce a
one-line ``error:`` diagnostic on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence, Tuple

from repro.analysis.metrics import channel_tracks_used, layout_metrics
from repro.analysis.verify import verify_result, verify_routing
from repro.core.config import MightyConfig
from repro.engine import EngineConfig, RoutingEngine
from repro.errors import InputError, ReproError
from repro.netlist import io as problem_io
from repro.netlist.channel import ChannelSpec
from repro.netlist.problem import ProblemError, RoutingProblem
from repro.netlist.generators import (
    burstein_class_switchbox,
    deutsch_class_channel,
    random_channel,
    random_switchbox,
)
from repro.viz.ascii_art import render_grid
from repro.viz.svg import svg_from_grid

#: Problem-file formats ``--format`` accepts.
_FORMATS = ("channel", "switchbox", "problem")


def _detect_format(path: Path, explicit: Optional[str]) -> str:
    if explicit:
        return explicit
    suffix = path.suffix.lower()
    if suffix == ".json":
        return "problem"
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(
            f"cannot read {path}: {exc.strerror or exc}",
            context={"file": str(path)},
        ) from None
    if "left:" in text:
        return "switchbox"
    return "channel"


def _load(path: Path, fmt: str):
    loaders = {
        "channel": problem_io.load_channel,
        "switchbox": problem_io.load_switchbox,
        "problem": problem_io.load_problem,
    }
    if fmt not in loaders:
        raise InputError(
            f"unknown format {fmt!r}",
            context={"choices": sorted(loaders)},
        )
    try:
        return loaders[fmt](path)
    except (
        problem_io.FormatError,
        ProblemError,
        json.JSONDecodeError,
    ) as exc:
        raise InputError(
            f"malformed {fmt} file {path}: {exc}",
            context={"file": str(path), "format": fmt},
        ) from None
    except OSError as exc:
        raise InputError(
            f"cannot read {path}: {exc.strerror or exc}",
            context={"file": str(path)},
        ) from None


def _make_config(args: argparse.Namespace) -> MightyConfig:
    factories = {
        "mighty": MightyConfig,
        "naive": MightyConfig.no_modification,
        "weak-only": MightyConfig.weak_only,
        "strong-only": MightyConfig.strong_only,
    }
    if args.router not in factories:
        raise InputError(
            f"unknown router {args.router!r}",
            context={"choices": sorted(factories)},
        )
    return factories[args.router]()


def _check_kernel_env() -> None:
    """Validate ``REPRO_KERNEL`` up front.

    The variable is resolved lazily inside the router, where a bogus
    name would surface as per-connection search failures (and a
    misleading "infeasible" exit) instead of the input error it is.
    """
    from repro.maze.kernels import env_backend_name

    try:
        env_backend_name()
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _load_problem(
    args: argparse.Namespace,
) -> Tuple[RoutingProblem, Optional[ChannelSpec], Optional[int]]:
    """Load ``args.file`` in any format and lower it to a routing problem.

    A channel is lowered with ``--tracks`` tracks (default: its density)
    and also returns its spec and that track count; for the other
    formats both are None.
    """
    path = Path(args.file)
    fmt = _detect_format(path, args.format)
    loaded = _load(path, fmt)
    if fmt == "channel":
        tracks = max(1, args.tracks or loaded.density)
        return loaded.to_problem(tracks), loaded, tracks
    if fmt == "switchbox":
        return loaded.to_problem(), None, None
    return loaded, None, None


def cmd_route(args: argparse.Namespace) -> int:
    """Route a problem file and report/render the outcome."""
    problem, channel_spec, tracks = _load_problem(args)
    resilient = args.deadline is not None or args.max_attempts > 1
    try:
        engine_config = EngineConfig(
            deadline_s=args.deadline, max_attempts=args.max_attempts
        )
    except ValueError as exc:
        raise InputError(str(exc)) from None
    engine = RoutingEngine(engine_config, router_config=_make_config(args))
    # The channel spec is what enables the classical fallbacks, so only
    # a resilient run passes it.
    result = engine.route(
        problem,
        channel_spec=channel_spec if resilient else None,
        tracks=tracks,
    )
    # The fallback cascade may have extended the channel; judge the result
    # against the problem it actually solved.
    problem = result.problem
    if args.improve and result.success:
        from repro.core.improve import improve_routing

        stats = improve_routing(result)
        print(stats.summary())
    report = verify_result(problem, result)
    metrics = layout_metrics(problem, result.grid)
    print(result.summary())
    attempt_log = result.stats.attempt_log
    if len(attempt_log) > 1:
        # Why the engine escalated: one line per attempt, in log order
        # (a returned complete attempt is last).
        for record in attempt_log:
            print(_attempt_line(record))
    print(report.summary())
    print(
        f"wire cells: {metrics.wire_cells}  vias: {metrics.via_count}"
    )
    if channel_spec is not None:
        print(f"tracks used: {channel_tracks_used(problem, result.grid)}")
    if args.ascii:
        print(render_grid(problem, result.grid))
    if args.svg:
        Path(args.svg).write_text(svg_from_grid(problem, result.grid))
        print(f"wrote {args.svg}")
    if result.success and report.ok:
        return 0
    if not report.ok:
        return 1
    if result.stats.timed_out:
        return 3
    return 4


def _attempt_line(record: dict) -> str:
    """One engine attempt record as a line of ``route`` output."""
    stop = record["stop"]
    if record["stalled_at"] is not None:
        stop += f" (paused at iteration {record['stalled_at']})"
    return (
        f"  {record['stage']} attempt {record['attempt']} "
        f"{record['ordering'] or '-'}: "
        f"{record['routed']}/{record['connections']} {stop}, "
        f"{record['elapsed_s']:.3f}s"
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run the minimum-width sweep on a switchbox file."""
    from repro.analysis.report import format_table
    from repro.engine import Deadline
    from repro.switchbox import minimum_routable_width

    spec = _load(Path(args.file), "switchbox")
    try:
        deadline = Deadline(args.deadline)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    mighty = minimum_routable_width(spec, MightyConfig(), deadline=deadline)
    naive = minimum_routable_width(
        spec, MightyConfig.no_modification(), deadline=deadline
    )
    print(
        format_table(
            ["router", "original width", "min completed width"],
            [
                ["mighty", spec.width, mighty.min_completed_width or "-"],
                [
                    "maze-sequential",
                    spec.width,
                    naive.min_completed_width or "-",
                ],
            ],
            title=f"minimum-width sweep on {spec.name}",
        )
    )
    return 0 if mighty.min_completed_width is not None else 1


def cmd_verify(args: argparse.Namespace) -> int:
    """Re-verify a routing result dump."""
    from repro.core.serialize import load_result_grid

    try:
        problem, grid = load_result_grid(Path(args.file))
    except (
        json.JSONDecodeError,
        problem_io.FormatError,
        ProblemError,
        KeyError,
        TypeError,
    ) as exc:
        raise InputError(
            f"malformed result dump {args.file}: {exc}",
            context={"file": str(args.file)},
        ) from None
    except OSError as exc:
        raise InputError(
            f"cannot read {args.file}: {exc.strerror or exc}",
            context={"file": str(args.file)},
        ) from None
    report = verify_routing(problem, grid)
    metrics = layout_metrics(problem, grid)
    if args.json:
        print(
            json.dumps(
                {
                    "ok": report.ok,
                    "problem": problem.name,
                    "errors": report.errors,
                    "open_nets": report.open_nets,
                    "waived_open": report.waived_open,
                    "wire_cells": metrics.wire_cells,
                    "via_count": metrics.via_count,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0 if report.ok else 1
    print(f"problem: {problem}")
    print(report.summary())
    print(f"wire cells: {metrics.wire_cells}  vias: {metrics.via_count}")
    return 0 if report.ok else 1


def _info_payload(fmt: str, loaded) -> dict:
    """Machine-readable ``info`` fields of a loaded problem file."""
    if fmt == "channel":
        return {
            "kind": "channel",
            "name": loaded.name,
            "columns": loaded.n_columns,
            "nets": len(loaded.net_numbers()),
            "density": loaded.density,
            "vcg_cycle": loaded.has_vcg_cycle(),
            "vcg_longest_chain": loaded.vcg_longest_path(),
        }
    if fmt == "switchbox":
        return {
            "kind": "switchbox",
            "name": loaded.name,
            "width": loaded.width,
            "height": loaded.height,
            "nets": len(loaded.net_numbers()),
            "pins": loaded.pin_count,
            "empty_columns": len(loaded.empty_columns()),
        }
    return {
        "kind": "problem",
        "name": loaded.name,
        "width": loaded.width,
        "height": loaded.height,
        "nets": len(loaded.nets),
        "pins": loaded.pin_count,
    }


def cmd_info(args: argparse.Namespace) -> int:
    """Print analysis of a problem file without routing it."""
    path = Path(args.file)
    fmt = _detect_format(path, args.format)
    loaded = _load(path, fmt)
    if args.json:
        from repro.maze.kernels import backend_info

        payload = dict(_info_payload(fmt, loaded))
        payload["kernels"] = backend_info()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if fmt == "channel":
        print(f"channel {loaded.name}: {loaded.n_columns} columns, "
              f"{len(loaded.net_numbers())} nets")
        print(f"density: {loaded.density}")
        print(f"VCG cycle: {'yes' if loaded.has_vcg_cycle() else 'no'}")
        print(f"VCG longest chain: {loaded.vcg_longest_path()}")
    elif fmt == "switchbox":
        print(f"switchbox {loaded.name}: {loaded.width}x{loaded.height}, "
              f"{len(loaded.net_numbers())} nets, {loaded.pin_count} pins")
        print(f"empty columns: {len(loaded.empty_columns())}")
    else:
        print(repr(loaded))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    """Emit a seeded synthetic benchmark instance."""
    if args.kind == "channel":
        spec = random_channel(args.columns, args.nets, seed=args.seed)
        text = problem_io.format_channel(spec)
    elif args.kind == "deutsch":
        text = problem_io.format_channel(deutsch_class_channel(args.seed))
    elif args.kind == "switchbox":
        spec = random_switchbox(
            args.columns, args.rows, args.nets, seed=args.seed
        )
        text = problem_io.format_switchbox(spec)
    elif args.kind == "burstein":
        text = problem_io.format_switchbox(burstein_class_switchbox(args.seed))
    else:
        raise InputError(
            f"unknown kind {args.kind!r}",
            context={
                "choices": ["burstein", "channel", "deutsch", "switchbox"]
            },
        )
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the benchmark suite; with --compare, gate its counters."""
    from repro import bench

    if args.repeat < 1:
        raise InputError("--repeat must be >= 1")
    if args.shards < 1:
        raise InputError("--shards must be >= 1")
    baseline = None
    if args.compare:
        try:
            baseline = bench.load_report(Path(args.compare))
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            raise InputError(
                f"cannot load baseline {args.compare}: {exc}",
                context={"file": str(args.compare)},
            ) from None
    report = bench.run_bench(
        quick=args.quick,
        repeat=args.repeat,
        only=args.only,
        progress=lambda line: print(line, file=sys.stderr),
        profile=args.profile,
        shards=args.shards,
    )
    totals = report["totals"]
    print(
        f"{len(report['cases'])} cases: "
        f"wall {totals['wall_s']:.3f}s, "
        f"{totals['expansions']} expansions, "
        f"{totals['searches']} searches"
    )
    mismatches = []
    if baseline is not None:
        rows, overall = bench.compare_reports(baseline, report)
        print(bench.format_compare(rows, overall))
        mismatches = bench.counter_mismatches(baseline, report)
        # Record the comparison inside the report so a single JSON file
        # carries the measurements, the speedup and the gate's verdict.
        report["compare"] = {
            "baseline": str(args.compare),
            "metric": "wall_s",
            "overall_ratio": None if overall is None else round(overall, 4),
            "cases": rows,
            "parity": mismatches,
        }
        for line in mismatches:
            print(f"PARITY: {line}", file=sys.stderr)
        if not mismatches:
            print(f"counter parity ok on {len(report['cases'])} cases")
    bench.write_report(report, Path(args.output))
    print(f"wrote {args.output}")
    return 1 if mismatches else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the persistent routing daemon until drained."""
    import asyncio

    from repro.service import RoutingService, ServiceConfig

    try:
        config = ServiceConfig(
            socket_path=args.socket,
            workers=args.workers,
            queue_limit=args.queue_limit,
            default_deadline_s=args.deadline,
            max_attempts=args.max_attempts,
            cache_capacity=args.cache_size,
            cache_dir=args.cache_dir,
            reap_grace_s=args.reap_grace,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from None
    service = RoutingService(
        config, on_event=lambda line: print(line, file=sys.stderr, flush=True)
    )
    return asyncio.run(service.run())


def cmd_submit(args: argparse.Namespace) -> int:
    """Send one job (or a management op) to a running daemon."""
    from repro.service import ServiceClient

    if args.retries < 0:
        raise InputError("--retries must be non-negative")
    if args.retry_max_wait <= 0:
        raise InputError("--retry-max-wait must be positive")
    client = ServiceClient(
        args.socket,
        timeout_s=args.timeout,
        retries=args.retries,
        retry_max_wait_s=args.retry_max_wait,
    )
    if args.health:
        print(json.dumps(client.health(), indent=2, sort_keys=True))
        return 0
    if args.shutdown:
        client.shutdown()
        print("daemon is draining")
        return 0
    if not args.file:
        raise InputError("submit needs a problem file "
                         "(or --health/--shutdown)")
    problem, _spec, _tracks = _load_problem(args)
    payload = problem_io.problem_to_dict(problem)
    response = client.submit(
        payload,
        deadline_s=args.deadline,
        max_attempts=args.max_attempts,
        no_cache=args.no_cache,
    )
    result = response["result"]
    job = response["job"]
    stats = result["stats"]
    if args.output:
        Path(args.output).write_text(json.dumps(result, indent=2))
    if args.json:
        print(json.dumps(response, indent=2, sort_keys=True))
    else:
        print(
            f"{result['router']} on {result['problem'].get('name')}: "
            f"{result['status'].upper()}; "
            f"{stats['routed_connections']}/{stats['connections']} "
            f"connections"
        )
        print(
            f"cache {job['cache']}  queue wait {job['queue_wait_s']:.3f}s  "
            f"service {job['service_s']:.3f}s  "
            f"expansions {stats['expansions']}"
        )
        if args.output:
            print(f"wrote {args.output}")
    if result["status"] == "complete":
        return 0
    if stats_timed_out(result):
        return 3
    return 4


def stats_timed_out(result: dict) -> bool:
    """Whether a wire result payload reports a deadline cut."""
    return bool(result.get("stats", {}).get("timed_out"))


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-route",
        description="rip-up-and-reroute detailed router (Mighty reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Parent parsers hold only flags whose meaning and default agree on
    # every command that takes them; --deadline, --max-attempts and the like
    # differ per command and stay local.
    problem_file = argparse.ArgumentParser(add_help=False)
    problem_file.add_argument("--format", choices=_FORMATS)
    problem_file.add_argument(
        "--tracks", type=int, help="channel track count (default: density)"
    )
    json_output = argparse.ArgumentParser(add_help=False)
    json_output.add_argument(
        "--json",
        action="store_true",
        help="machine-readable JSON on stdout instead of prose",
    )

    route = sub.add_parser(
        "route", parents=[problem_file], help="route a problem file"
    )
    route.add_argument("file")
    route.add_argument(
        "--router",
        choices=("mighty", "naive", "weak-only", "strong-only"),
        default="mighty",
    )
    route.add_argument("--ascii", action="store_true", help="print layout")
    route.add_argument("--svg", help="write an SVG rendering")
    route.add_argument(
        "--improve",
        action="store_true",
        help="run the final improvement phase after routing",
    )
    route.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget; on expiry the best partial result is "
        "returned (exit code 3)",
    )
    route.add_argument(
        "--max-attempts",
        type=int,
        default=1,
        metavar="N",
        help="Mighty attempts with escalated retries; values > 1 also "
        "enable the classical fallback cascade for channels (default: 1)",
    )
    route.set_defaults(func=cmd_route)

    sweep = sub.add_parser(
        "sweep", help="minimum-width sweep on a switchbox file"
    )
    sweep.add_argument("file")
    sweep.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget shared by the whole sweep",
    )
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser(
        "verify",
        parents=[json_output],
        help="re-verify a routing result dump (JSON)",
    )
    verify.add_argument("file")
    verify.set_defaults(func=cmd_verify)

    info = sub.add_parser(
        "info", parents=[json_output], help="analyse a problem file"
    )
    info.add_argument("file")
    info.add_argument("--format", choices=_FORMATS)
    info.set_defaults(func=cmd_info)

    serve = sub.add_parser(
        "serve", help="run the persistent routing daemon"
    )
    serve.add_argument(
        "--socket",
        required=True,
        metavar="PATH",
        help="unix-domain socket to listen on",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="warm worker processes (default: 2)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        metavar="N",
        help="max admitted-but-unfinished jobs before shedding "
        "(default: 16)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="default per-job routing deadline; jobs may override per "
        "submission (default: 30)",
    )
    serve.add_argument(
        "--max-attempts",
        type=int,
        default=2,
        metavar="N",
        help="engine escalation attempts per job (default: 2)",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=128,
        metavar="N",
        help="canonical-instance cache entries, 0 disables (default: 128)",
    )
    serve.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persist the canonical cache (journal + snapshot) in DIR; "
        "a restarted daemon warm-loads it, crashes included",
    )
    serve.add_argument(
        "--reap-grace",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="kill and respawn a worker still busy this long past its "
        "job's deadline (default: 10)",
    )
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser(
        "submit",
        parents=[problem_file, json_output],
        help="send a problem to a running daemon",
    )
    submit.add_argument("file", nargs="?")
    submit.add_argument(
        "--socket",
        required=True,
        metavar="PATH",
        help="daemon socket (see `repro serve`)",
    )
    submit.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="per-job routing deadline (default: the daemon's)",
    )
    submit.add_argument(
        "--max-attempts",
        type=int,
        metavar="N",
        help="engine escalation attempts (default: the daemon's)",
    )
    submit.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the canonical-instance cache for this job",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="total client-side wall budget, shared by retries "
        "(default: 120)",
    )
    submit.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retry transient failures (daemon unreachable/restarting, "
        "SERVICE_OVERLOADED) up to N times with exponential backoff, "
        "within the --timeout budget (default: 0)",
    )
    submit.add_argument(
        "--retry-max-wait",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="cap on one retry backoff sleep (default: 2)",
    )
    submit.add_argument(
        "--output",
        "-o",
        metavar="FILE",
        help="also write the result payload (repro verify understands it)",
    )
    submit.add_argument(
        "--health",
        action="store_true",
        help="print the daemon's health JSON and exit",
    )
    submit.add_argument(
        "--shutdown",
        action="store_true",
        help="ask the daemon to drain and exit",
    )
    submit.set_defaults(func=cmd_submit)

    bench = sub.add_parser(
        "bench", help="run the routing performance benchmark suite"
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="run only the quick subset (the CI smoke suite)",
    )
    bench.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="route each case N times; wall time is the best run "
        "(default: 1)",
    )
    bench.add_argument(
        "--only",
        nargs="+",
        metavar="CASE",
        help="restrict the run to the named cases",
    )
    bench.add_argument(
        "--output",
        "-o",
        default="BENCH_run.json",
        help="report path (default: BENCH_run.json; the checked-in "
        "baseline BENCH_routing.json is rewritten only when named here)",
    )
    bench.add_argument(
        "--compare",
        metavar="BASELINE",
        help="baseline report to gate against: exit 1, with a PARITY line "
        "per difference, unless the run routed the baseline's cases (as "
        "far as --quick/--only select them) with equal expansions and "
        "searches, and equal flood_visits, wirelength, iterations and "
        "routed where the baseline records them; the per-case wall table "
        "is printed and the comparison is embedded in the output report",
    )
    bench.add_argument(
        "--profile",
        action="store_true",
        help="record the router's per-phase wall split (search, "
        "connectivity, victims, claims = grid commit/rip and best-state "
        "copies) in each case row",
    )
    bench.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="route every case through the shard-and-stitch pipeline "
        "with N shards; the engine routes the cases the partitioner "
        "declines whole-region, and a stitch the engine rejects is an "
        "error (exit 1) (default: 1)",
    )
    bench.set_defaults(func=cmd_bench)

    generate = sub.add_parser("generate", help="emit a synthetic benchmark")
    generate.add_argument(
        "kind", choices=("channel", "switchbox", "deutsch", "burstein")
    )
    generate.add_argument("--columns", type=int, default=24)
    generate.add_argument("--rows", type=int, default=12)
    generate.add_argument("--nets", type=int, default=10)
    generate.add_argument("--seed", type=int, default=1)
    generate.add_argument("--output", "-o")
    generate.set_defaults(func=cmd_generate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Structured :class:`~repro.errors.ReproError` failures print a one-line
    ``error:`` diagnostic on stderr and exit with the error's own code
    (2 bad input, 5 internal, 6 overloaded, 7 unreachable) — never a
    traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        _check_kernel_env()
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
