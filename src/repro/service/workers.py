"""The pool of warm routing worker processes.

Each worker is a long-lived process running a take-one loop over its own
request queue.  Closures and live grids do not pickle, so jobs travel as
JSON-compatible problem dicts and are rebuilt with
:func:`repro.netlist.io.problem_from_dict` inside the worker.  Warmth
is the process itself: imports, allocator pools and the maze neighbour
tables stay hot instead of being re-created per job.  Every job parses
its own payload; a worker keeps no per-problem state between jobs.

Each job goes to **the first idle worker**, the lowest-numbered one, so
no job waits while a worker idles, and a client that sends one job at
a time always lands on worker 0.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import queue as queue_module
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.errors import EngineError, ReproError

#: How often a blocked round trip re-checks that its worker is alive,
#: and how often an idle worker re-checks that its parent is.
LIVENESS_POLL_S = 1.0

#: How long :meth:`WorkerPool.close` waits, in all, for its workers to
#: exit before it terminates the stragglers.
CLOSE_TIMEOUT_S = 5.0

#: Environment variable carrying a deterministic worker fault schedule
#: (see :mod:`repro.testing.faults`).  Format: comma-separated
#: ``kind@job[:arg]`` terms — ``die@2:9`` makes each worker ``_exit(9)``
#: when it picks up its 2nd job, ``hang@3:60`` makes it sleep 60 s
#: before executing its 3rd.  Parsed once per worker process at start;
#: garbage terms are ignored.  This is a chaos-test hook, never set in
#: production.
SERVICE_FAULT_ENV = "REPRO_SERVICE_FAULTS"


def _parse_service_faults(spec: str) -> List[Tuple[str, int, float]]:
    """``"die@2:9,hang@3:60"`` -> ``[("die", 2, 9.0), ("hang", 3, 60.0)]``."""
    faults = []
    for term in spec.split(","):
        term = term.strip()
        if not term or "@" not in term:
            continue
        kind, _, rest = term.partition("@")
        at, _, arg = rest.partition(":")
        try:
            faults.append((kind, int(at), float(arg) if arg else 0.0))
        except ValueError:
            continue
    return faults


def _apply_service_faults(
    faults: List[Tuple[str, int, float]], job_index: int
) -> None:
    """Deliver any fault scheduled for this worker's ``job_index``-th job."""
    for kind, at, arg in faults:
        if job_index != at:
            continue
        if kind == "die":
            os._exit(int(arg) if arg else 9)
        elif kind == "hang":
            time.sleep(arg if arg else 3600.0)


def _execute_job(job: Dict) -> Dict:
    """Route one job dict; never raises (errors become envelopes)."""
    from repro.core.serialize import result_to_dict
    from repro.engine import EngineConfig, RoutingEngine
    from repro.netlist.io import FormatError, problem_from_dict
    from repro.netlist.problem import ProblemError

    started = time.perf_counter()
    try:
        try:
            problem = problem_from_dict(job["problem"])
        except (FormatError, ProblemError, KeyError, TypeError) as exc:
            from repro.errors import InputError

            raise InputError(f"malformed problem payload: {exc}") from None
        # The server validated both options and filled in its defaults.
        options = job["options"]
        engine = RoutingEngine(
            EngineConfig(
                deadline_s=options["deadline_s"],
                max_attempts=options["max_attempts"],
            )
        )
        result = engine.route(problem)
        payload = result_to_dict(result)
        payload["stats"]["cache_hit"] = False
        return {
            "ok": True,
            "payload": payload,
            "worker_wall_s": time.perf_counter() - started,
        }
    except ReproError as exc:
        return {
            "ok": False,
            "error": exc.to_dict(),
            "worker_wall_s": time.perf_counter() - started,
        }
    except Exception as exc:  # supervised: a worker crash is telemetry
        return {
            "ok": False,
            "error": EngineError(
                f"worker crashed: {type(exc).__name__}: {exc}"
            ).to_dict(),
            "worker_wall_s": time.perf_counter() - started,
        }


def _worker_main(worker: int, requests, responses) -> None:
    """Worker process entry point: drain jobs until the None sentinel.

    Also returns, within :data:`LIVENESS_POLL_S` of going idle, once the
    parent that started it is gone (reparenting changes
    ``os.getppid()``): a SIGKILLed daemon never sends the sentinel, and
    its workers must not wait for it forever.
    """
    parent = os.getppid()
    faults = _parse_service_faults(os.environ.get(SERVICE_FAULT_ENV, ""))
    jobs_seen = 0
    while True:
        try:
            job = requests.get(timeout=LIVENESS_POLL_S)
        except queue_module.Empty:
            if os.getppid() != parent:
                # Nobody will read an unconsumed reply; do not let the
                # queue's feeder thread hold up the exit flushing it.
                responses.cancel_join_thread()
                return
            continue
        if job is None:
            break
        jobs_seen += 1
        if faults:
            _apply_service_faults(faults, jobs_seen)
        reply = _execute_job(job)
        reply["job_id"] = job.get("job_id")
        reply["worker"] = worker
        responses.put(reply)


class WorkerPool:
    """N warm worker processes, one request/response queue pair each.

    ``run(job)`` is a blocking round trip intended to be called from
    executor threads (the server wraps it in ``loop.run_in_executor``).
    It takes the lowest-numbered idle worker, waiting on one condition
    until a worker is idle, so the time spent waiting *is* the pool's
    queue: it is reported as ``queue_wait_s``.
    """

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError("worker pool needs at least one worker")
        self.n_workers = n_workers
        ctx = multiprocessing.get_context()
        self._requests = [ctx.Queue() for _ in range(n_workers)]
        self._responses = [ctx.Queue() for _ in range(n_workers)]
        self._processes = [
            ctx.Process(
                target=_worker_main,
                args=(i, self._requests[i], self._responses[i]),
                daemon=True,
            )
            for i in range(n_workers)
        ]
        for process in self._processes:
            process.start()
        self._closed = False
        # The idle workers as a heap (lowest number first), guarded by
        # ``_idle_changed``: a worker absent from it is owned by the one
        # thread running its job.
        self._idle = list(range(n_workers))
        self._idle_changed = threading.Condition()
        # Mutated under ``_idle_changed``; read lock-free by health
        # telemetry.
        self.counters: Dict[str, int] = {
            "reaped": 0,
            "worker_deaths": 0,
            "respawned": 0,
        }

    def run(self, job: Dict, wall_ceiling_s: Optional[float] = None) -> Dict:
        """Blocking round trip on the first idle worker; returns the reply
        envelope.

        The reply always carries ``queue_wait_s`` (time spent waiting
        for any worker to go idle) next to the worker's own
        ``worker_wall_s``, and the ``worker`` that ran the job.  A
        worker that dies mid-job surfaces as a structured
        :class:`~repro.errors.EngineError` (after the worker is
        respawned) instead of blocking this job — and every later job of
        the worker — forever.

        ``wall_ceiling_s`` is the hung-job reaper: a worker still busy
        past that many seconds (the server passes job deadline + grace)
        is killed and respawned, and this job fails with a structured
        :class:`~repro.errors.EngineError` instead of occupying the
        worker indefinitely.  ``None`` disables reaping (jobs with no
        deadline are allowed to run forever, as documented).
        """
        enqueued = time.perf_counter()
        with self._idle_changed:
            while not self._idle:
                self._idle_changed.wait()
            worker = heapq.heappop(self._idle)
        queue_wait = time.perf_counter() - enqueued
        try:
            if self._closed:
                raise EngineError("worker pool is closed")
            self._requests[worker].put(job)
            reply = self._await_reply(worker, wall_ceiling_s)
        finally:
            with self._idle_changed:
                heapq.heappush(self._idle, worker)
                self._idle_changed.notify()
        reply["queue_wait_s"] = queue_wait
        return reply

    def _count(self, counter: str) -> None:
        """Bump a health counter; threads owning different workers may
        bump one key at once."""
        with self._idle_changed:
            self.counters[counter] += 1

    def _await_reply(
        self, worker: int, wall_ceiling_s: Optional[float] = None
    ) -> Dict:
        """Wait on one worker's response queue, watching its liveness.

        Caller owns the worker (it is not idle).
        """
        started = time.monotonic()
        while True:
            timeout = LIVENESS_POLL_S
            if wall_ceiling_s is not None:
                remaining = wall_ceiling_s - (time.monotonic() - started)
                if remaining <= 0:
                    # The reply may have landed in the last instant;
                    # prefer it over killing a worker that finished.
                    try:
                        return self._responses[worker].get_nowait()
                    except queue_module.Empty:
                        pass
                    self._reap(worker)
                    raise EngineError(
                        f"worker {worker} reaped: job exceeded its "
                        f"wall ceiling",
                        context={
                            "worker": worker,
                            "wall_ceiling_s": wall_ceiling_s,
                            "reaped": True,
                            "respawned": not self._closed,
                        },
                    )
                timeout = min(LIVENESS_POLL_S, remaining)
            try:
                return self._responses[worker].get(timeout=timeout)
            except queue_module.Empty:
                process = self._processes[worker]
                if process.is_alive():
                    continue
                # The worker may have replied in the instant before it
                # died; drain that reply rather than losing it.
                try:
                    return self._responses[worker].get_nowait()
                except queue_module.Empty:
                    pass
                exitcode = process.exitcode
                self._count("worker_deaths")
                self._respawn(worker)
                raise EngineError(
                    f"worker {worker} died mid-job",
                    context={
                        "worker": worker,
                        "exitcode": exitcode,
                        "respawned": not self._closed,
                    },
                )

    def _reap(self, worker: int) -> None:
        """Kill a wedged worker and replace it.  Caller owns the worker."""
        process = self._processes[worker]
        if process.is_alive():
            process.terminate()
            process.join(1.0)
            if process.is_alive():  # ignoring SIGTERM: escalate
                process.kill()
                process.join(1.0)
        self._count("reaped")
        self._respawn(worker)

    def _respawn(self, worker: int) -> None:
        """Replace a dead worker with a fresh process and fresh queues.

        Fresh queues, because the old ones may hold the stale job the
        dead worker never answered (or a torn put from its final
        moments).  Caller owns the worker.  No-op once closed.
        """
        if self._closed:
            return
        ctx = multiprocessing.get_context()
        self._requests[worker] = ctx.Queue()
        self._responses[worker] = ctx.Queue()
        process = ctx.Process(
            target=_worker_main,
            args=(worker, self._requests[worker], self._responses[worker]),
            daemon=True,
        )
        process.start()
        self._processes[worker] = process
        self._count("respawned")

    def close(self) -> None:
        """Stop every worker: sentinel, join for up to
        :data:`CLOSE_TIMEOUT_S` in all, terminate stragglers."""
        if self._closed:
            return
        self._closed = True
        for queue in self._requests:
            queue.put(None)
        deadline = time.monotonic() + CLOSE_TIMEOUT_S
        for process in self._processes:
            process.join(max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(1.0)

    def alive(self) -> List[bool]:
        """Liveness of each worker (health telemetry)."""
        return [process.is_alive() for process in self._processes]


def make_executor(n_slots: int) -> ThreadPoolExecutor:
    """Thread pool sized so the pool's idle-worker wait, not threads,
    does the queueing."""
    return ThreadPoolExecutor(
        max_workers=max(4, n_slots), thread_name_prefix="repro-svc"
    )
