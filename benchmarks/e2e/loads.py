"""Load generators: the engine in-process and a ``repro serve`` daemon.

Both are closed loops: a client sends its next request only after the
previous reply.  Route workloads run one client; service workloads run
:data:`CLIENT_THREADS` client threads in this one process, which is the
box's core count.
"""

from __future__ import annotations

import glob
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence

import speed
from benchenv import BENCH_DIR, TMP, short_path
from inputs import RoutePlan, Submission
from tracer import Tracer

CLIENT_THREADS = 2
#: Worker processes of a daemon started with ``repro serve``'s defaults.
DAEMON_WORKERS = 2
#: Seconds between health probes while a daemon starts.
HEALTH_POLL_S = 0.001
#: Kernel-resolving snippet a fresh interpreter runs for ``setup_s``.
IMPORT_SNIPPET = (
    "import repro\n"
    "from repro.maze.kernels import active_backend\n"
    "active_backend()\n"
)


@dataclass
class Phase:
    """What one timed phase observed, before any checking.

    A phase runs in rounds.  ``speed_samples`` holds the
    machine slowdown (:func:`speed.sample`) taken before the first round
    and after every round; a round is scaled by the mean of its two ends.
    """

    latencies_s: List[float]
    #: Per request: the RouteResult / reply dict, or None when it raised.
    outputs: List[object]
    errors: Dict[int, str] = field(default_factory=dict)
    round_walls: List[float] = field(default_factory=list)
    round_sizes: List[int] = field(default_factory=list)
    speed_samples: List[float] = field(default_factory=list)
    #: Per request: the reply's ``job`` telemetry (service only).
    jobs: List[Optional[dict]] = field(default_factory=list)
    retries: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.round_walls)

    def slowdowns(self) -> List[float]:
        ends = self.speed_samples
        return [(a + b) / 2 for a, b in zip(ends, ends[1:])]

    def _rounds(self):
        """``(first request, size, wall, slowdown)`` of every round."""
        head = 0
        for size, wall, slow in zip(self.round_sizes, self.round_walls,
                                    self.slowdowns()):
            yield head, size, wall, slow
            head += size

    def throughput(self, scaled: bool = True) -> float:
        """Completed requests over the summed (scaled) round walls."""
        done = len(self.latencies_s) - len(self.errors)
        return done / sum(wall / (slow if scaled else 1.0)
                          for _h, _n, wall, slow in self._rounds())

    def latencies(self, scaled: bool = True) -> List[float]:
        """Latencies of the completed requests, each scaled by its round."""
        out = []
        for head, size, _wall, slow in self._rounds():
            out += [self.latencies_s[r] / (slow if scaled else 1.0)
                    for r in range(head, head + size)
                    if r not in self.errors]
        return out


# ----------------------------------------------------------------------
# Set-up time
# ----------------------------------------------------------------------
def interpreter_launch(env: Dict[str, str]) -> float:
    """Seconds for a fresh interpreter to import repro and load the kernel."""
    started = perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env,
                   check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - started


def warm_launch(env: Dict[str, str]) -> float:
    """One untimed launch that builds a missing kernel and fills the
    bytecode caches.  Returns the build's wall time, 0 when none ran."""
    pattern = str(TMP / "repro_kernels_*.so")
    before = set(glob.glob(pattern))
    wall = interpreter_launch(env)
    return wall if set(glob.glob(pattern)) - before else 0.0


# ----------------------------------------------------------------------
# Route workloads
# ----------------------------------------------------------------------
def route_phase(plan: RoutePlan, tracer: Optional[Tracer] = None) -> Phase:
    """Route every request of ``plan`` through ``RoutingEngine.route``."""
    from repro import EngineConfig, RoutingEngine

    engine = RoutingEngine(EngineConfig())
    call = engine.route if tracer is None else tracer.wrap(
        "request", engine.route
    )
    # The shard pool spreads a route over processes; see speed.sample.
    every_cpu = (plan.shard_workers or 1) > 1
    phase = Phase([], [], speed_samples=[speed.sample(every_cpu)])
    started = perf_counter()
    for rid, index in enumerate(plan.order):
        instance = plan.instances[index]
        if tracer is not None:
            tracer.request_id = rid
        t0 = perf_counter()
        try:
            result = call(
                instance.problem,
                channel_spec=instance.channel_spec,
                tracks=instance.tracks,
                shards=plan.shards,
                shard_workers=plan.shard_workers,
            )
        except Exception as exc:  # a raised request is an error, not a crash
            phase.errors[rid] = f"{type(exc).__name__}: {exc}"
            result = None
        ended = perf_counter()
        phase.latencies_s.append(ended - t0)
        phase.outputs.append(result)
        if (rid + 1) % plan.round_size == 0:
            phase.round_walls.append(ended - started)
            phase.round_sizes.append(plan.round_size)
            phase.speed_samples.append(speed.sample(every_cpu))
            started = perf_counter()
    return phase


# ----------------------------------------------------------------------
# Service workloads
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro serve`` subprocess on a socket and cache directory.

    ``spans`` set: the daemon runs under ``daemon.py``, which wraps the
    front-door layers and writes their spans there on exit.
    """

    def __init__(self, run_dir: Path, name: str, cache_dir: Path,
                 spans: Optional[Path] = None) -> None:
        self.socket = short_path(run_dir / f"{name}.sock")
        self.cache_dir = cache_dir
        self.spans = spans
        self.log = run_dir / f"{name}.log"
        self.process: Optional[subprocess.Popen] = None

    def start(self) -> float:
        """Spawn and wait for the first healthy reply; returns seconds."""
        from repro.errors import ServiceUnavailable
        from repro.service import ServiceClient

        serve = ["serve", "--socket", self.socket,
                 "--cache-dir", short_path(self.cache_dir)]
        if self.spans is None:
            argv = [sys.executable, "-m", "repro", *serve]
        else:
            argv = [sys.executable, str(BENCH_DIR / "daemon.py"),
                    str(self.spans), *serve]
        client = ServiceClient(self.socket, timeout_s=5.0)
        with open(self.log, "w") as log:
            started = perf_counter()
            self.process = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT
            )
        while True:
            try:
                client.health()
                return perf_counter() - started
            except ServiceUnavailable:
                if self.process.poll() is not None:
                    raise RuntimeError(
                        f"daemon exited with {self.process.returncode}; "
                        f"see {self.log}"
                    ) from None
                if perf_counter() - started > 60:
                    raise
                time.sleep(HEALTH_POLL_S)

    def stop(self) -> None:
        """Drain and reap the daemon; kill it if it does not exit."""
        from repro.errors import ReproError
        from repro.service import ServiceClient

        if self.process is None or self.process.poll() is not None:
            return
        try:
            ServiceClient(self.socket, timeout_s=10.0).shutdown()
        except ReproError:
            pass
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def submit_all(socket: str, rounds: Sequence[Sequence[Submission]]) -> Phase:
    """Send every round from :data:`CLIENT_THREADS` closed-loop clients;
    the clients finish a round before the next one starts.

    Replies are kept for the first request of each payload ``key``;
    every later reply for that key is compared with it on arrival by
    :func:`same_routing` (the one check the client does in the loop:
    holding every reply of the hot workload would take gigabytes), and
    the stored output becomes that verdict.  Each job record also
    carries the reply's engine attempts (see :func:`attempt_summary`).
    """
    from repro.errors import ReproError
    from repro.service import ServiceClient

    retries = [0]
    lock = threading.Lock()

    def counting_sleep(seconds: float) -> None:
        with lock:
            retries[0] += 1
        time.sleep(seconds)

    client = ServiceClient(socket, timeout_s=120.0, retries=2,
                           sleep=counting_sleep)
    plan = [sub for round_ in rounds for sub in round_]
    n = len(plan)
    phase = Phase([0.0] * n, [None] * n, jobs=[None] * n,
                  speed_samples=[speed.sample(every_cpu=True)])
    first: Dict[int, dict] = {}

    def client_loop(cursor) -> None:
        while True:
            with lock:
                rid = next(cursor, None)
            if rid is None:
                return
            sub = plan[rid]
            t0 = perf_counter()
            try:
                reply = client.submit(sub.payload, no_cache=sub.no_cache)
            except ReproError as exc:
                phase.latencies_s[rid] = perf_counter() - t0
                phase.errors[rid] = f"{type(exc).__name__}: {exc}"
                continue
            phase.latencies_s[rid] = perf_counter() - t0
            result = reply["result"]
            phase.jobs[rid] = dict(reply["job"], attempts=attempt_summary(
                result.get("attempt_log", []), result.get("status", "")))
            with lock:
                seen = first.setdefault(sub.key, result)
            phase.outputs[rid] = result if seen is result else same_routing(
                seen, result)

    head = 0
    for round_ in rounds:
        rids = range(head, head + len(round_))
        cursor = iter(rids)
        threads = [threading.Thread(target=client_loop, args=(cursor,))
                   for _ in range(CLIENT_THREADS)]
        started = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.round_walls.append(perf_counter() - started)
        phase.round_sizes.append(len(round_))
        phase.speed_samples.append(speed.sample(every_cpu=True))
        head += len(round_)
    phase.retries = retries[0]
    return phase


def same_routing(a: dict, b: dict) -> bool:
    """Whether two reply payloads hold the same routing.

    Wall times in ``stats`` and ``attempt_log`` differ between two
    routes of one problem; everything else, counters included, must not.
    """
    return (
        a["connections"] == b["connections"]
        and a["events"] == b["events"]
        and a["status"] == b["status"]
        and a["problem"] == b["problem"]
        and a["stats"]["expansions"] == b["stats"]["expansions"]
    )


def attempt_summary(attempt_log: Sequence[dict], status: str):
    """``(attempts, attempt seconds, seconds of attempts not returned)``.

    The engine returns the first verified complete attempt, which is the
    last one logged; otherwise the best partial, the first with the most
    routed connections.
    """
    if not attempt_log:
        return 0, 0.0, 0.0
    elapsed = [float(rec.get("elapsed_s", 0.0)) for rec in attempt_log]
    if status == "complete":
        kept = len(attempt_log) - 1
    else:
        routed = [rec.get("routed", 0) for rec in attempt_log]
        kept = routed.index(max(routed))
    return len(attempt_log), sum(elapsed), sum(elapsed) - elapsed[kept]
