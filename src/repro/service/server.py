"""The routing daemon: asyncio front door, admission control, drain.

:class:`RoutingService` owns a Unix-domain listening socket, a
:class:`~repro.service.workers.WorkerPool` of warm routing processes and
a :class:`~repro.service.cache.CanonicalCache`.  One connection carries
one request (see :mod:`repro.service.protocol`); submissions flow

    parse -> canonicalize -> cache? -> admission control -> worker ->
    verify/telemetry -> cache store -> respond

**Admission control.**  The daemon keeps an EWMA cost model — seconds
per ``cells x connections`` unit, updated from every executed job — and
refuses a submission with the structured ``SERVICE_OVERLOADED`` error
(exit code 6) when the work already queued ahead of it, divided across
the workers, would eat the job's own deadline budget before it even
started; a hard ``queue_limit`` on admitted-but-unfinished jobs bounds
memory regardless of the model.  Shedding is instantaneous, so under
overload clients get a clean structured refusal in milliseconds instead
of a response that arrives after its deadline.

**Drain.**  SIGTERM/SIGINT (or the in-band ``shutdown`` op) stop the
listener, let every admitted job finish and answer, stop the worker
pool, unlink the socket and return 0 — the documented clean-shutdown
exit code.

**Crash safety.**  With ``cache_dir`` set, the canonical cache is
backed by a journal + snapshot store (:mod:`repro.service.store`): a
daemon killed at any instant — SIGKILL included — restarts on the same
directory with its routed isomorphism classes warm, serving them as
cache hits with zero new search work.  A worker wedged past its job's
``deadline + reap_grace_s`` is killed and respawned by the pool's
reaper; the job fails with a structured engine error and the health op
counts the reap.  Every admission shed carries a ``retry_after_s``
hint for the retrying client.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

from repro.errors import (
    EngineError,
    InputError,
    ReproError,
    ServiceOverloaded,
    ServiceUnavailable,
)
from repro.netlist.canonical import CanonicalForm, canonical_form
from repro.netlist.io import FormatError, problem_from_dict
from repro.netlist.problem import ProblemError, RoutingProblem
from repro.service import protocol
from repro.service.cache import CanonicalCache
from repro.service.store import CacheStore
from repro.service.workers import WorkerPool, make_executor

#: Initial EWMA estimate of seconds per ``cells x connections`` unit,
#: replaced by measurements as jobs complete.
SEED_COST_S = 5e-6

#: Upper bound on waiting for in-flight jobs during shutdown.
DRAIN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one daemon instance.

    Attributes
    ----------
    socket_path:
        Unix-domain socket the daemon listens on (created on start,
        unlinked on clean shutdown).
    workers:
        Warm worker processes.
    queue_limit:
        Hard cap on admitted-but-unfinished jobs; further submissions
        are shed with ``SERVICE_OVERLOADED``.
    default_deadline_s:
        Per-job routing deadline applied when the submission carries
        none (None = unlimited, which also disables the cost-model shed
        for those jobs).
    max_attempts:
        Engine escalation attempts per job (see
        :class:`~repro.engine.supervisor.EngineConfig`).
    cache_capacity:
        Canonical-instance cache entries (0 disables caching).
    cache_dir:
        Directory for the durable canonical-cache store (journal +
        snapshot, see :mod:`repro.service.store`).  ``None`` keeps the
        cache memory-only; with a directory, a restarted daemon —
        even one killed with SIGKILL — warm-loads its previously
        routed isomorphism classes.
    reap_grace_s:
        Hung-job reaper slack: a worker still busy ``deadline_s +
        reap_grace_s`` after its job started is killed and respawned,
        and the job fails with a structured engine error.  Jobs with no
        deadline are never reaped.

    Every field but ``socket_path`` has a ``repro serve`` flag.  The
    durable store always fsyncs its writes.
    """

    socket_path: str
    workers: int = 2
    queue_limit: int = 16
    default_deadline_s: Optional[float] = 30.0
    max_attempts: int = 2
    cache_capacity: int = 128
    cache_dir: Optional[str] = None
    reap_grace_s: float = 10.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.default_deadline_s is not None and self.default_deadline_s < 0:
            raise ValueError("default_deadline_s must be non-negative")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be non-negative")
        if self.reap_grace_s < 0:
            raise ValueError("reap_grace_s must be non-negative")


#: The options a submission may carry; any other key is refused.
_SUBMIT_OPTIONS = ("deadline_s", "max_attempts", "no_cache")


def _submit_options(
    options: dict, config: ServiceConfig
) -> Tuple[Optional[float], int]:
    """``(deadline_s, max_attempts)`` of a submission, validated.

    Absent options take the daemon's defaults.  An unknown key, or a value
    of the wrong type or range, is the client's error, so it is refused
    here with :class:`InputError` instead of being ignored or crashing a
    worker; ``bool`` is refused too, although Python counts it as an
    ``int``.
    """
    for key in options:
        if key not in _SUBMIT_OPTIONS:
            raise InputError(
                f"unknown submit option {key!r}",
                context={"choices": list(_SUBMIT_OPTIONS)},
            )
    deadline_s = options.get("deadline_s", config.default_deadline_s)
    if deadline_s is not None and not (
        _is_number(deadline_s) and deadline_s >= 0
    ):
        raise InputError(
            f"deadline_s must be a number >= 0 or null, got {deadline_s!r}"
        )
    max_attempts = options.get("max_attempts", config.max_attempts)
    if not (_is_int(max_attempts) and max_attempts >= 1):
        raise InputError(
            f"max_attempts must be an integer >= 1, got {max_attempts!r}"
        )
    return deadline_s, max_attempts


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _cost_units(problem: RoutingProblem) -> float:
    """Size proxy of the admission cost model: cells x connections."""
    return float(
        problem.width * problem.height * max(1, problem.connection_count)
    )


class RoutingService:
    """One daemon instance; ``asyncio.run(service.run())`` serves it."""

    def __init__(
        self,
        config: ServiceConfig,
        on_event: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.config = config
        self._on_event = on_event
        store = None
        if config.cache_dir is not None and config.cache_capacity > 0:
            store = CacheStore(config.cache_dir, on_event=self._event)
        self.cache = CanonicalCache(config.cache_capacity, store=store)
        self._pool: Optional[WorkerPool] = None
        self._threads = None
        self._stop: Optional[asyncio.Event] = None
        self._draining = False
        self._active: Set[asyncio.Task] = set()
        self._started = time.monotonic()
        # All mutated on the event-loop thread only.
        self._job_seq = 0
        self._pending_jobs = 0
        self._pending_cost_s = 0.0
        self._cost_ewma_s = SEED_COST_S
        self._counters: Dict[str, int] = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "shed": 0,
            "cache_hits": 0,
        }
        self._expansions_total = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def run(self) -> int:
        """Serve until drained; returns the process exit code (0).

        Refuses to start (structured :class:`~repro.errors.InputError`)
        when another daemon is already serving ``socket_path``; a
        genuinely stale socket file is removed.
        """
        loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._started = time.monotonic()
        await self._claim_socket()
        if self.cache.persistent:
            loaded = self.cache.load_from_store()
            self._event(
                f"cache: warm-loaded {loaded} entries from "
                f"{self.config.cache_dir}"
            )
        self._pool = WorkerPool(self.config.workers)
        self._threads = make_executor(self.config.queue_limit + 4)
        server = await asyncio.start_unix_server(
            self._handle_client,
            path=self.config.socket_path,
            limit=protocol.MAX_LINE_BYTES,
        )
        self._install_signal_handlers(loop)
        self._event(f"serving on {self.config.socket_path}")
        try:
            await self._stop.wait()
        finally:
            server.close()
            pending = [task for task in self._active if not task.done()]
            if pending:
                self._event(f"draining {len(pending)} in-flight jobs")
                await asyncio.wait(pending, timeout=DRAIN_TIMEOUT_S)
            self._pool.close()
            self._threads.shutdown(wait=False)
            with contextlib.suppress(OSError):
                self.cache.close_store()
            with contextlib.suppress(OSError):
                os.unlink(self.config.socket_path)
            self._event("drained, exiting")
        return 0

    async def _claim_socket(self) -> None:
        """Unlink ``socket_path`` only if nothing is serving it.

        Blindly unlinking would silently yank a live daemon's socket out
        from under it; instead probe with a connection and refuse to
        start when something answers.
        """
        path = self.config.socket_path
        if not os.path.exists(path):
            return
        try:
            _reader, writer = await asyncio.open_unix_connection(path)
        except OSError:
            # Nothing listening: a stale socket left by a crash.
            with contextlib.suppress(OSError):
                os.unlink(path)
            return
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()
        raise InputError(
            f"socket {path} is already served by a live daemon",
            context={"socket": path},
        )

    def begin_drain(self) -> None:
        """Stop accepting work and shut down once in-flight jobs finish.

        Safe to call repeatedly; must run on the event-loop thread
        (signal handlers installed by :meth:`run` do).
        """
        self._draining = True
        if self._stop is not None:
            self._stop.set()

    def _install_signal_handlers(self, loop) -> None:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.begin_drain)
            except (NotImplementedError, RuntimeError, ValueError):
                # Not the main thread (tests) or an exotic platform; the
                # in-band shutdown op still drains.
                return

    def _event(self, line: str) -> None:
        if self._on_event is not None:
            self._on_event(line)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_client(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._active.add(task)
        try:
            response = await self._one_request(reader)
            writer.write(protocol.encode(response))
            await writer.drain()
        except (ConnectionError, BrokenPipeError):  # client went away
            pass
        finally:
            self._active.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _one_request(self, reader) -> dict:
        try:
            line = await reader.readline()
        except ValueError:
            return protocol.error_response(
                InputError(
                    "request line exceeds the protocol limit",
                    context={"limit_bytes": protocol.MAX_LINE_BYTES},
                )
            )
        if not line:
            return protocol.error_response(InputError("empty request"))
        try:
            message = protocol.decode(line)
        except ValueError as exc:
            return protocol.error_response(
                InputError(f"malformed request: {exc}")
            )
        op = message.get("op")
        try:
            version = message.get("version")
            if version is not None and version != protocol.PROTOCOL_VERSION:
                raise InputError(
                    f"unsupported protocol version {version!r}",
                    context={"server_version": protocol.PROTOCOL_VERSION},
                )
            if op == "submit":
                return await self._handle_submit(message)
            if op == "health":
                return protocol.ok_response(health=self.health())
            if op == "shutdown":
                self.begin_drain()
                return protocol.ok_response(draining=True)
            raise InputError(
                f"unknown op {op!r}", context={"choices": list(protocol.OPS)}
            )
        except ReproError as exc:
            return protocol.error_response(exc)
        except Exception as exc:  # the daemon must never crash a client
            return protocol.error_response(
                EngineError(f"service crashed: {type(exc).__name__}: {exc}")
            )

    # ------------------------------------------------------------------
    # Submission pipeline
    # ------------------------------------------------------------------
    async def _handle_submit(self, message: dict) -> dict:
        received = time.perf_counter()
        self._counters["submitted"] += 1
        if self._draining:
            raise ServiceUnavailable(
                "service is draining", context={"draining": True}
            )
        payload = message.get("problem")
        if not isinstance(payload, dict):
            raise InputError("submit requires a problem object")
        try:
            problem = problem_from_dict(payload)
        except (FormatError, ProblemError) as exc:
            raise InputError(f"malformed problem payload: {exc}") from None
        options = dict(message.get("options") or {})
        deadline_s, max_attempts = _submit_options(options, self.config)
        # Canonicalization and cache render/store re-encode or deep-copy
        # the whole problem/result payload; on the event-loop thread a
        # large submission would stall health checks and the instant
        # shed, so they run on the executor (which always keeps threads
        # free beyond the admission-capped pool.run slots).
        loop = asyncio.get_running_loop()
        form = await loop.run_in_executor(
            self._threads, canonical_form, problem
        )

        if not options.get("no_cache"):
            cached = await loop.run_in_executor(
                self._threads, self.cache.render, form, payload
            )
            if cached is not None:
                self._counters["cache_hits"] += 1
                return protocol.ok_response(
                    result=cached,
                    job=self._job_telemetry(
                        form,
                        cache="hit",
                        worker=None,
                        queue_wait_s=0.0,
                        service_s=time.perf_counter() - received,
                    ),
                )

        estimated_cost_s, units = self._admit(problem, form, deadline_s)
        job_id = self._job_seq = self._job_seq + 1
        job = {
            "job_id": job_id,
            "digest": form.digest,
            "problem": payload,
            "options": {
                "deadline_s": deadline_s,
                "max_attempts": max_attempts,
            },
        }
        worker = self._pool.worker_for(form.digest)
        # The hung-job reaper's wall ceiling: a worker still busy this
        # long after the job started is killed and respawned.
        wall_ceiling_s = (
            None
            if deadline_s is None
            else deadline_s + self.config.reap_grace_s
        )
        self._pending_jobs += 1
        self._pending_cost_s += estimated_cost_s
        try:
            reply = await loop.run_in_executor(
                self._threads, self._pool.run, worker, job, wall_ceiling_s
            )
        finally:
            self._pending_jobs -= 1
            self._pending_cost_s = max(
                0.0, self._pending_cost_s - estimated_cost_s
            )
        cache_allowed = not options.get("no_cache")
        response = self._finish_job(
            form, reply, received, job_id, worker, estimated_cost_s, units,
            cache_allowed=cache_allowed,
        )
        if cache_allowed:  # store off-loop too (deep-copies the payload)
            await loop.run_in_executor(
                self._threads, self.cache.store, form, reply["payload"]
            )
        return response

    def _admit(
        self,
        problem: RoutingProblem,
        form: CanonicalForm,
        deadline_s: Optional[float],
    ):
        """Admission control; returns (estimated cost, units) or sheds.

        Every shed carries a ``retry_after_s`` hint — the cost model's
        estimate of when capacity frees up — which the retrying client
        honours as its minimum backoff.
        """
        units = _cost_units(problem)
        estimated_cost_s = self._cost_ewma_s * units
        if self._pending_jobs >= self.config.queue_limit:
            self._counters["shed"] += 1
            raise ServiceOverloaded(
                "job queue is full",
                context={
                    "queue_depth": self._pending_jobs,
                    "queue_limit": self.config.queue_limit,
                    "retry_after_s": self._retry_after(
                        self._pending_cost_s
                        / (
                            self.config.workers
                            * max(1, self._pending_jobs)
                        )
                    ),
                },
            )
        if deadline_s is not None:
            estimated_wait_s = self._pending_cost_s / self.config.workers
            if estimated_wait_s > deadline_s:
                self._counters["shed"] += 1
                raise ServiceOverloaded(
                    "queued work exceeds the job's deadline budget",
                    context={
                        "queue_depth": self._pending_jobs,
                        "estimated_wait_s": round(estimated_wait_s, 6),
                        "estimated_cost_s": round(estimated_cost_s, 6),
                        "deadline_s": deadline_s,
                        "retry_after_s": self._retry_after(
                            estimated_wait_s - deadline_s
                        ),
                    },
                )
        return estimated_cost_s, units

    @staticmethod
    def _retry_after(estimate_s: float) -> float:
        """Clamp a queue-drain estimate into a sane client backoff hint."""
        return round(min(30.0, max(0.05, estimate_s)), 6)

    def _finish_job(
        self,
        form: CanonicalForm,
        reply: dict,
        received: float,
        job_id: int,
        worker: int,
        estimated_cost_s: float,
        units: float,
        cache_allowed: bool,
    ) -> dict:
        worker_wall_s = float(reply.get("worker_wall_s", 0.0))
        if reply.get("ok") and worker_wall_s > 0 and units > 0:
            self._cost_ewma_s = (
                0.7 * self._cost_ewma_s + 0.3 * worker_wall_s / units
            )
        telemetry = self._job_telemetry(
            form,
            cache="bypass" if not cache_allowed else "miss",
            worker=worker,
            queue_wait_s=float(reply.get("queue_wait_s", 0.0)),
            service_s=worker_wall_s,
            job_id=job_id,
            estimated_cost_s=estimated_cost_s,
            total_s=time.perf_counter() - received,
        )
        if not reply.get("ok"):
            self._counters["failed"] += 1
            raise protocol.error_from_payload(reply.get("error"))
        payload = reply["payload"]
        self._counters["completed"] += 1
        self._expansions_total += int(
            payload.get("stats", {}).get("expansions", 0)
        )
        return protocol.ok_response(result=payload, job=telemetry)

    def _job_telemetry(self, form: CanonicalForm, **fields) -> dict:
        telemetry = {"digest": form.digest}
        for key, value in fields.items():
            if isinstance(value, float):
                value = round(value, 6)
            telemetry[key] = value
        return telemetry

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Machine-readable self-description (the ``health`` op)."""
        return {
            "uptime_s": round(time.monotonic() - self._started, 3),
            "draining": self._draining,
            "workers": self.config.workers,
            "workers_alive": (
                self._pool.alive() if self._pool is not None else []
            ),
            "pool": (
                dict(self._pool.counters) if self._pool is not None else {}
            ),
            "reap_grace_s": self.config.reap_grace_s,
            "queue_depth": self._pending_jobs,
            "queue_limit": self.config.queue_limit,
            "pending_cost_s": round(self._pending_cost_s, 6),
            "cost_ewma_s": self._cost_ewma_s,
            "default_deadline_s": self.config.default_deadline_s,
            "jobs": dict(self._counters),
            "cache": self.cache.stats(),
            "expansions_total": self._expansions_total,
        }
