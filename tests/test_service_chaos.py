"""Chaos tests for the routing service: crashes, hangs, retries, restarts.

Every fault here is deterministic — worker death/wedge schedules come
from :class:`~repro.testing.faults.ServiceFaultPlan`, retry timing from
an injected fake clock, and the one real-subprocess soak is marked
``slow``.  No test sleeps longer than a couple of seconds for real.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.errors import (
    EngineError,
    InputError,
    ServiceOverloaded,
    ServiceUnavailable,
)
from repro.netlist.canonical import canonical_form
from repro.netlist.generators import woven_switchbox
from repro.netlist.instances import small_switchbox
from repro.netlist.io import problem_to_dict
from repro.service import (
    RoutingService,
    ServiceClient,
    ServiceConfig,
    WorkerPool,
)
from repro.service import client as client_module
from repro.service import protocol
from repro.testing import ServiceFaultPlan, service_faults

from tests.test_service import (
    box_payload,
    mirrored_twin,
    run_concurrently,
    running_service,
    worker_job,
)


# ---------------------------------------------------------------------------
# Client transport robustness
# ---------------------------------------------------------------------------


class TestClientTransport:
    def test_stalling_server_surfaces_timeout_not_hang(self, tmp_path):
        """A server that accepts and then goes silent must not hang the
        client past its budget (the crash-mid-response shape)."""
        path = str(tmp_path / "stall.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(1)
        held = []
        acceptor = threading.Thread(
            target=lambda: held.append(listener.accept()), daemon=True
        )
        acceptor.start()
        client = ServiceClient(path, timeout_s=0.5)
        try:
            started = time.monotonic()
            with pytest.raises(ServiceUnavailable):
                client.health()
            elapsed = time.monotonic() - started
            assert 0.2 <= elapsed < 5.0
        finally:
            acceptor.join(5)
            for connection, _address in held:
                connection.close()
            listener.close()

    def test_stalling_server_with_retries_stays_in_budget(
        self, tmp_path, monkeypatch
    ):
        """Retries share the original wall budget — a stall burns it
        once, and the retry loop must not extend the call."""
        monkeypatch.setattr(client_module, "RETRY_BASE_S", 0.01)
        path = str(tmp_path / "stall.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(4)
        client = ServiceClient(
            path, timeout_s=0.6, retries=5, retry_max_wait_s=0.05
        )
        started = time.monotonic()
        with pytest.raises(ServiceUnavailable):
            client.health()
        elapsed = time.monotonic() - started
        assert elapsed < 5.0
        listener.close()

    def test_missing_socket_retries_then_fails_in_budget(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(client_module, "RETRY_BASE_S", 0.01)
        client = ServiceClient(
            str(tmp_path / "nowhere.sock"), timeout_s=3.0, retries=4,
            retry_max_wait_s=0.05,
        )
        started = time.monotonic()
        with pytest.raises(ServiceUnavailable):
            client.health()
        assert time.monotonic() - started < 3.0

    def test_transport_error_chains_its_cause(self, tmp_path):
        client = ServiceClient(str(tmp_path / "nowhere.sock"), timeout_s=0.5)
        with pytest.raises(ServiceUnavailable) as info:
            client.request({"op": "health"})
        assert isinstance(info.value.__cause__, OSError)

    def test_response_with_trailing_bytes_returns_promptly(self, tmp_path):
        """Regression: the reply newline may land mid-chunk.  A client
        waiting for a chunk that *ends* with it would stall until the
        connection dropped."""
        path = str(tmp_path / "chatty.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(1)
        release = threading.Event()

        def server():
            conn, _ = listener.accept()
            while b"\n" not in conn.recv(1 << 16):
                pass
            reply = protocol.encode(protocol.ok_response(health={}))
            conn.sendall(reply + b"trailing-junk-no-newline")
            release.wait(10)  # hold the connection open: no EOF rescue
            conn.close()

        thread = threading.Thread(target=server, daemon=True)
        thread.start()
        client = ServiceClient(path, timeout_s=10.0)
        started = time.monotonic()
        response = client.request({"op": "health"})
        elapsed = time.monotonic() - started
        release.set()
        assert response["ok"] is True
        assert elapsed < 2.0
        listener.close()

    def test_garbage_response_is_service_unavailable(self, tmp_path):
        path = str(tmp_path / "garbage.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(1)

        def server():
            conn, _ = listener.accept()
            conn.recv(1 << 16)
            conn.sendall(b"\x00\xffnot json\n")
            conn.close()

        threading.Thread(target=server, daemon=True).start()
        client = ServiceClient(path, timeout_s=5.0)
        with pytest.raises(ServiceUnavailable) as info:
            client.request({"op": "health"})
        assert info.value.__cause__ is not None
        listener.close()


# ---------------------------------------------------------------------------
# Retry policy (fake clock: zero real waiting)
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class ScriptedClient(ServiceClient):
    """A client whose transport is a canned outcome list."""

    def __init__(self, script, **kwargs):
        clock = FakeClock()
        kwargs.setdefault("timeout_s", 30.0)
        super().__init__(
            "/tmp/scripted.sock", clock=clock, sleep=clock.sleep, **kwargs
        )
        self.clock = clock
        self.script = list(script)
        self.attempts = 0

    def _request_once(self, message, deadline):
        if deadline - self._clock() <= 0:
            raise ServiceUnavailable("client deadline exhausted")
        self.attempts += 1
        outcome = self.script.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def overloaded_envelope(retry_after_s=None):
    context = {"queue_depth": 9}
    if retry_after_s is not None:
        context["retry_after_s"] = retry_after_s
    return protocol.error_response(
        ServiceOverloaded("queue full", context=context)
    )


class TestRetryPolicy:
    def test_transient_failures_retry_until_success(self):
        client = ScriptedClient(
            [
                ServiceUnavailable("down"),
                overloaded_envelope(),
                protocol.ok_response(health={"up": True}),
            ],
            retries=3,
        )
        assert client.health() == {"up": True}
        assert client.attempts == 3
        assert len(client.clock.sleeps) == 2
        assert all(wait > 0 for wait in client.clock.sleeps)

    def test_single_shot_by_default(self):
        client = ScriptedClient([ServiceUnavailable("down")])
        with pytest.raises(ServiceUnavailable):
            client.health()
        assert client.attempts == 1
        assert client.clock.sleeps == []

    def test_permanent_errors_are_never_retried(self):
        envelope = protocol.error_response(InputError("bad payload"))
        client = ScriptedClient([envelope], retries=5)
        with pytest.raises(InputError):
            client.health()
        assert client.attempts == 1

    def test_retries_exhaust_then_reraise(self):
        client = ScriptedClient(
            [ServiceUnavailable(f"down {i}") for i in range(3)], retries=2
        )
        with pytest.raises(ServiceUnavailable):
            client.health()
        assert client.attempts == 3

    def test_retry_after_hint_floors_the_backoff(self, monkeypatch):
        monkeypatch.setattr(client_module, "RETRY_BASE_S", 0.001)
        client = ScriptedClient(
            [
                overloaded_envelope(retry_after_s=0.7),
                protocol.ok_response(health={}),
            ],
            retries=2,
            retry_max_wait_s=2.0,
        )
        client.health()
        assert client.clock.sleeps[0] >= 0.7

    def test_hint_is_capped_by_retry_max_wait(self):
        client = ScriptedClient(
            [
                overloaded_envelope(retry_after_s=99.0),
                protocol.ok_response(health={}),
            ],
            retries=1,
            retry_max_wait_s=0.25,
        )
        client.health()
        assert client.clock.sleeps == [0.25]

    def test_backoff_never_extends_the_deadline(self):
        """A wait that would land past the caller's deadline raises
        immediately — retries are charged against ``timeout_s``."""
        client = ScriptedClient(
            [overloaded_envelope(retry_after_s=5.0)],
            retries=8,
            timeout_s=1.0,
            retry_max_wait_s=5.0,
        )
        with pytest.raises(ServiceOverloaded):
            client.health()
        assert client.attempts == 1
        assert client.clock.sleeps == []  # no sleep, no budget overrun
        assert client.clock.now == 0.0

    def test_exhausted_deadline_fails_before_connecting(self):
        client = ScriptedClient([], retries=0, timeout_s=0.0)
        with pytest.raises(ServiceUnavailable):
            client.health()
        assert client.attempts == 0

    def test_jitter_is_deterministic_per_socket_and_attempt(self):
        first = ScriptedClient([], retries=0)
        second = ScriptedClient([], retries=0)
        exc = ServiceUnavailable("down")
        waits_a = [first._retry_wait(i, exc) for i in range(5)]
        waits_b = [second._retry_wait(i, exc) for i in range(5)]
        assert waits_a == waits_b
        # exponential growth until the cap
        assert waits_a[0] < waits_a[2] <= first.retry_max_wait_s


class TestAdmissionRetryHints:
    """Both shed branches must stamp ``retry_after_s``."""

    def make_service(self, tmp_path, **overrides):
        overrides.setdefault("workers", 1)
        overrides.setdefault(
            "socket_path", str(tmp_path / "admission.sock")
        )
        return RoutingService(ServiceConfig(**overrides))

    def test_queue_full_shed_carries_hint(self, tmp_path):
        service = self.make_service(tmp_path, queue_limit=2)
        problem = small_switchbox().to_problem()
        form = canonical_form(problem)
        service._pending_jobs = 2
        service._pending_cost_s = 3.0
        with pytest.raises(ServiceOverloaded) as info:
            service._admit(problem, form, deadline_s=None)
        hint = info.value.context["retry_after_s"]
        assert hint == pytest.approx(1.5)  # pending cost over capacity

    def test_deadline_shed_carries_hint(self, tmp_path):
        service = self.make_service(tmp_path, queue_limit=64)
        problem = small_switchbox().to_problem()
        form = canonical_form(problem)
        service._pending_jobs = 1
        service._pending_cost_s = 50.0
        with pytest.raises(ServiceOverloaded) as info:
            service._admit(problem, form, deadline_s=0.5)
        hint = info.value.context["retry_after_s"]
        assert 0.05 <= hint <= 30.0

    def test_hint_is_clamped_to_sane_bounds(self, tmp_path):
        service = self.make_service(tmp_path)
        assert service._retry_after(0.0) == 0.05
        assert service._retry_after(1e9) == 30.0


# ---------------------------------------------------------------------------
# Worker pool reaping (deterministic fault schedules)
# ---------------------------------------------------------------------------


class TestWorkerReaping:
    def test_hung_worker_is_reaped_and_respawned(self):
        plan = ServiceFaultPlan(hang_on_job=2, hang_s=30.0)
        with service_faults(plan):
            pool = WorkerPool(1)
            try:
                assert pool.run(worker_job(1), wall_ceiling_s=30.0)["ok"]
                started = time.monotonic()
                with pytest.raises(EngineError) as info:
                    pool.run(worker_job(2), wall_ceiling_s=0.5)
                elapsed = time.monotonic() - started
                # reaped at the ceiling, nowhere near the 30 s wedge
                assert elapsed < 10.0
                assert info.value.context.get("reaped") is True
                assert info.value.context.get("wall_ceiling_s") == 0.5
                assert pool.counters["reaped"] == 1
                assert pool.counters["respawned"] == 1
                # the respawned worker (job count reset) serves again
                assert pool.run(worker_job(3), wall_ceiling_s=30.0)["ok"]
            finally:
                pool.close()

    def test_dying_worker_surfaces_structured_error(self):
        plan = ServiceFaultPlan(die_on_job=2, die_exit_code=11)
        with service_faults(plan):
            pool = WorkerPool(1)
            try:
                assert pool.run(worker_job(1))["ok"]
                with pytest.raises(EngineError):
                    pool.run(worker_job(2))
                assert pool.counters["worker_deaths"] == 1
                assert pool.counters["respawned"] == 1
                assert pool.run(worker_job(3))["ok"]
            finally:
                pool.close()

    def test_overlapping_deaths_are_all_counted(self):
        """Both workers die on their first job at once; each thread
        counts its own worker's death and respawn, and neither count is
        lost.  The replacements, armed to wedge 1 s on their first job,
        take the next two overlapping jobs, one each."""
        with service_faults(ServiceFaultPlan(die_on_job=1)):
            pool = WorkerPool(2)
        try:
            with service_faults(ServiceFaultPlan(hang_on_job=1, hang_s=1.0)):
                deaths = run_concurrently(
                    [lambda: pool.run(worker_job(1)),
                     lambda: pool.run(worker_job(2))]
                )
            assert all(isinstance(error, EngineError) for error in deaths)
            assert pool.counters["worker_deaths"] == 2
            assert pool.counters["respawned"] == 2
            replies = run_concurrently(
                [lambda: pool.run(worker_job(3)),
                 lambda: pool.run(worker_job(4))]
            )
            assert all(reply["ok"] for reply in replies)
            assert {reply["worker"] for reply in replies} == {0, 1}
        finally:
            pool.close()

    def test_no_ceiling_means_no_reaping(self):
        pool = WorkerPool(1)
        try:
            reply = pool.run(worker_job(1), wall_ceiling_s=None)
            assert reply["ok"]
            assert pool.counters["reaped"] == 0
        finally:
            pool.close()


class TestServerReaping:
    def test_server_reaps_hung_job_and_recovers(self):
        plan = ServiceFaultPlan(hang_on_job=2, hang_s=30.0)
        with service_faults(plan):
            with running_service(reap_grace_s=0.25) as (_, client, _o):
                first = client.submit(box_payload())
                assert first["result"]["status"] == "complete"
                # second worker job wedges; deadline 0.25 + grace 0.25
                # puts the wall ceiling at half a second
                with pytest.raises(EngineError) as info:
                    client.submit(
                        box_payload(), deadline_s=0.25, no_cache=True
                    )
                assert info.value.context.get("reaped") is True
                health = client.health()
                assert health["pool"]["reaped"] >= 1
                assert health["pool"]["respawned"] >= 1
                assert health["reap_grace_s"] == 0.25
                # the respawned worker takes the next job
                third = client.submit(box_payload(), no_cache=True)
                assert third["result"]["status"] == "complete"


# ---------------------------------------------------------------------------
# Durable cache across restarts (in-process)
# ---------------------------------------------------------------------------


class TestDurableRestart:
    def test_warm_cache_survives_restart(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        payloads = [
            box_payload(),
            problem_to_dict(
                woven_switchbox(10, 8, 6, seed=2, tangle=0.2).to_problem()
            ),
        ]
        with running_service(cache_dir=cache_dir) as (_, client, _o):
            for payload in payloads:
                first = client.submit(payload)
                assert first["job"]["cache"] == "miss"
                assert first["result"]["status"] == "complete"
        # fresh daemon, fresh socket, same cache directory: every
        # instance routed before the restart is served warm
        with running_service(cache_dir=cache_dir) as (_, client, outcome):
            for payload in payloads:
                second = client.submit(payload)
                assert second["job"]["cache"] == "hit"
                assert second["result"]["stats"]["cache_hit"] is True
            health = client.health()
            # the hits cost zero new search work
            assert health["expansions_total"] == 0
            assert health["cache"]["store"]["loaded"] >= len(payloads)
        assert outcome["exit_code"] == 0

    def test_isomorphic_twin_hits_across_restart(self, tmp_path):
        original, twin = mirrored_twin()
        cache_dir = str(tmp_path / "cache")
        with running_service(cache_dir=cache_dir) as (_, client, _o):
            assert client.submit(original)["job"]["cache"] == "miss"
        with running_service(cache_dir=cache_dir) as (_, client, _o):
            response = client.submit(twin)
            assert response["job"]["cache"] == "hit"
            # rendered into the twin's own frame
            assert response["result"]["problem"]["name"] == "mirrored-twin"

    def test_retrying_client_rides_through_a_restart(
        self, tmp_path, monkeypatch
    ):
        """A client submitting while the daemon is down keeps retrying
        and is served — from the durable cache — once it returns."""
        monkeypatch.setattr(client_module, "RETRY_BASE_S", 0.02)
        cache_dir = str(tmp_path / "cache")
        socket_path = str(tmp_path / "ride.sock")
        with running_service(
            cache_dir=cache_dir, socket_path=socket_path
        ) as (_, client, _o):
            client.submit(box_payload())
        outcome = {}

        def submitter():
            retry_client = ServiceClient(
                socket_path, timeout_s=60.0, retries=200,
                retry_max_wait_s=0.2,
            )
            try:
                outcome["response"] = retry_client.submit(box_payload())
            except Exception as exc:  # surfaced by the assertion below
                outcome["error"] = exc

        thread = threading.Thread(target=submitter, daemon=True)
        thread.start()
        time.sleep(0.3)  # let it accumulate a few failed attempts
        with running_service(
            cache_dir=cache_dir, socket_path=socket_path
        ) as (_, _client, _o):
            thread.join(45)
        assert not thread.is_alive()
        assert "response" in outcome, outcome.get("error")
        assert outcome["response"]["job"]["cache"] == "hit"


# ---------------------------------------------------------------------------
# Real-subprocess SIGKILL soak (the CI chaos-smoke sequence)
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestCrashRestartSoak:
    def test_sigkill_cycles_serve_warm_hits_and_fail_fast(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        socket_path = os.path.join(
            tempfile.mkdtemp(prefix="repro-soak-"), "d.sock"
        )
        box = tmp_path / "box.json"
        box.write_text(json.dumps(box_payload()))
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        def start_server():
            server = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--socket", socket_path, "--workers", "1",
                 "--cache-dir", cache_dir],
                env=env, stderr=subprocess.PIPE, text=True,
            )
            # A SIGKILLed predecessor leaves a stale socket *file*, so
            # readiness means answering health, not merely existing.
            probe = ServiceClient(socket_path, timeout_s=2.0)
            for _ in range(400):
                try:
                    probe.health()
                    break
                except ServiceUnavailable:
                    time.sleep(0.05)
            else:
                server.kill()
                server.wait(10)
                server.stderr.close()
                raise RuntimeError("daemon did not come up")
            return server

        def cli_submit():
            return subprocess.run(
                [sys.executable, "-m", "repro", "submit", str(box),
                 "--socket", socket_path, "--json"],
                env=env, capture_output=True, text=True, timeout=120,
            )

        server = start_server()
        try:
            first = cli_submit()
            assert first.returncode == 0, first.stderr
            assert json.loads(first.stdout)["job"]["cache"] == "miss"

            for cycle in range(2):
                # an in-flight client must fail fast and structured when
                # the daemon is SIGKILLed under it — never hang
                big = problem_to_dict(
                    woven_switchbox(28, 16, 12, seed=cycle + 1).to_problem()
                )
                inflight = {}

                def submit_big():
                    client = ServiceClient(socket_path, timeout_s=30.0)
                    started = time.monotonic()
                    try:
                        inflight["response"] = client.submit(big)
                    except Exception as exc:
                        inflight["error"] = exc
                    inflight["elapsed"] = time.monotonic() - started

                thread = threading.Thread(target=submit_big, daemon=True)
                thread.start()
                time.sleep(0.3)  # let the submission reach the daemon
                server.kill()  # SIGKILL: no drain, no cleanup
                server.wait(10)
                server.stderr.close()
                thread.join(15)
                assert not thread.is_alive(), "in-flight client hung"
                if "error" in inflight:
                    assert isinstance(
                        inflight["error"], ServiceUnavailable
                    ), inflight["error"]
                    assert inflight["elapsed"] < 15.0

                # restart on the same directory: the previously-routed
                # instance is served warm, with zero new search work
                server = start_server()
                again = cli_submit()
                assert again.returncode == 0, again.stderr
                response = json.loads(again.stdout)
                assert response["job"]["cache"] == "hit", cycle
                assert response["result"]["stats"]["cache_hit"] is True
                health = ServiceClient(socket_path, timeout_s=30.0).health()
                assert health["expansions_total"] == 0
                assert health["cache"]["store"]["loaded"] >= 1

            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=60) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(10)
            server.stderr.close()


def _proc_stat(pid):
    """``(state, ppid)`` of ``pid`` from /proc, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rpartition(")")[2].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def _running(pid):
    """Whether ``pid`` still runs; a zombie has exited and only awaits
    reaping by whichever process adopted it."""
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


@pytest.mark.slow
@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
class TestOrphanedWorkers:
    def test_sigkilled_serve_leaves_no_worker_behind(self):
        """Regression: workers of a SIGKILLed daemon blocked on their
        request queue forever, reparented to init."""
        socket_path = os.path.join(
            tempfile.mkdtemp(prefix="repro-orphan-"), "d.sock"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", socket_path, "--workers", "2"],
            env=env, stderr=subprocess.DEVNULL,
        )
        workers = []
        try:
            probe = ServiceClient(socket_path, timeout_s=2.0)
            for _ in range(400):
                try:
                    assert probe.health()["workers_alive"] == [True, True]
                    break
                except ServiceUnavailable:
                    time.sleep(0.05)
            workers = [
                int(entry) for entry in os.listdir("/proc")
                if entry.isdigit()
                and (_proc_stat(entry) or ("", 0))[1] == server.pid
            ]
            assert len(workers) >= 2
            server.kill()  # SIGKILL: the pool never sends its sentinels
            server.wait(10)
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                if not any(_running(pid) for pid in workers):
                    break
                time.sleep(0.1)
            assert [pid for pid in workers if _running(pid)] == []
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(10)
            for pid in workers:  # never leak them, even on failure
                if _running(pid):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:  # exited since the check
                        pass
