"""Tests for the routing daemon: protocol, cache, admission, drain.

Most tests run the service in-process (the asyncio server on a
background thread, real worker processes behind it) and talk to it
through :class:`~repro.service.client.ServiceClient` — the same path
``repro submit`` uses.  The SIGTERM test runs the real
``python -m repro serve`` subprocess, mirroring the CI smoke job.
"""

import asyncio
import contextlib
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.analysis.verify import verify_routing
from repro.core.serialize import rebuild_grid
from repro.errors import (
    EngineError,
    InputError,
    ReproError,
    ServiceOverloaded,
    ServiceUnavailable,
)
from repro.netlist.generators import woven_switchbox
from repro.netlist.instances import small_switchbox
from repro.netlist.io import problem_from_dict, problem_to_dict
from repro.service import (
    CanonicalCache,
    RoutingService,
    ServiceClient,
    ServiceConfig,
)
from repro.service import protocol
from tests.test_cli import (
    MALFORMED_PROBLEMS,
    UNBUILDABLE_PROBLEMS,
    UNINDEXABLE_PROBLEM,
)


def box_payload():
    return problem_to_dict(small_switchbox().to_problem())


def mirrored_twin():
    """(original payload, isomorphic twin payload) for small_switchbox.

    The twin is flipped left-for-right with its nets renamed and listed
    in reverse order — same canonical digest, different concrete
    instance.
    """
    problem = small_switchbox().to_problem()
    nets = [
        {
            "name": f"m-{net['name']}",
            "pins": [
                [problem.width - 1 - x, y, layer]
                for x, y, layer in net["pins"]
            ],
        }
        for net in reversed(problem_to_dict(problem)["nets"])
    ]
    twin = {
        "name": "mirrored-twin",
        "width": problem.width,
        "height": problem.height,
        "nets": nets,
        "obstacles": [],
    }
    return problem_to_dict(problem), twin


@contextlib.contextmanager
def running_service(**overrides):
    """A live daemon on a private socket; drains on exit."""
    socket_dir = tempfile.mkdtemp(prefix="repro-svc-")
    overrides.setdefault("workers", 1)
    overrides.setdefault("socket_path", os.path.join(socket_dir, "d.sock"))
    config = ServiceConfig(**overrides)
    service = RoutingService(config)
    outcome = {}

    def runner():
        outcome["exit_code"] = asyncio.run(service.run())

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    client = ServiceClient(config.socket_path, timeout_s=120.0)
    for _ in range(200):
        try:
            client.health()
            break
        except ServiceUnavailable:
            time.sleep(0.05)
    else:
        raise RuntimeError("service did not come up")
    try:
        yield service, client, outcome
    finally:
        with contextlib.suppress(ReproError):
            client.shutdown()
        thread.join(60)
        assert not thread.is_alive(), "service failed to drain"


class TestSubmitRoundTrip:
    def test_complete_result_with_telemetry(self):
        with running_service() as (_, client, _outcome):
            response = client.submit(box_payload())
            result = response["result"]
            job = response["job"]
            assert result["status"] == "complete"
            assert result["success"] is True
            assert result["stats"]["cache_hit"] is False
            assert job["cache"] == "miss"
            assert job["queue_wait_s"] >= 0
            assert job["service_s"] > 0
            assert isinstance(job["worker"], int)
            # the payload verifies exactly like a local route dump
            grid = rebuild_grid(result)
            problem = problem_from_dict(result["problem"])
            assert verify_routing(problem, grid).ok

    def test_malformed_problem_is_a_structured_input_error(self):
        with running_service() as (_, client, _outcome):
            with pytest.raises(InputError):
                client.submit({"width": 4})  # missing everything else
            # the daemon survives the bad request
            assert client.health()["workers_alive"] == [True]

    def test_unknown_op_rejected(self):
        with running_service() as (_, client, _outcome):
            response = client.request({"op": "frobnicate"})
            assert response["ok"] is False
            assert response["error"]["kind"] == "input"

    def test_unreachable_socket_raises_unavailable(self):
        client = ServiceClient("/nonexistent/never.sock", timeout_s=1.0)
        with pytest.raises(ServiceUnavailable) as excinfo:
            client.health()
        assert excinfo.value.exit_code == 7


@pytest.fixture(scope="class")
def shared_service():
    with running_service() as handles:
        yield handles


class TestSubmitOptions:
    @pytest.mark.parametrize(
        "options",
        [
            {"max_attempts": 0},
            {"max_attempts": "x"},
            {"max_attempts": 2.7},
            {"max_attempts": True},
            {"max_attempts": None},
            {"deadline_s": "5"},
            {"deadline_s": -1},
            {"deadline_s": False},
            {"deadline_s": [1]},
            {"shards": "x"},
            {"shards": -1},
            {"shards": 1.5},
            {"shards": True},
            {"shards": 4},
            {"max_attempt": 2},
        ],
        ids=repr,
    )
    def test_bad_option_is_an_input_error(self, shared_service, options):
        """Refused at the front door as the client's error (exit 2), not
        dispatched to a worker or crashing the service (exit 5).  An
        unknown key such as an older client's ``shards`` or a misspelt
        ``max_attempt`` is refused whatever its value, never ignored."""
        _service, client, _outcome = shared_service
        response = client.request(
            {"op": "submit", "problem": box_payload(), "options": options}
        )
        assert response["ok"] is False
        assert response["error"]["kind"] == "input"
        assert response["error"]["exit_code"] == 2
        assert next(iter(options)) in response["error"]["message"]
        # the daemon keeps serving
        served = client.submit(box_payload(), no_cache=True)
        assert served["result"]["status"] == "complete"


class TestMalformedProblems:
    @pytest.mark.parametrize(
        "payload",
        [*MALFORMED_PROBLEMS.values(), UNINDEXABLE_PROBLEM],
        ids=[*MALFORMED_PROBLEMS, "unindexable-grid"],
    )
    def test_refused_as_input(self, shared_service, payload):
        """The front door refuses the payload as the client's error (exit
        2): no ``service crashed`` engine error, no worker building a
        grid the search cannot index."""
        _service, client, _outcome = shared_service
        response = client.request({"op": "submit", "problem": payload})
        assert response["ok"] is False
        assert response["error"]["kind"] == "input"
        assert response["error"]["exit_code"] == 2
        assert "malformed problem payload" in response["error"]["message"]
        # the daemon keeps serving
        served = client.submit(box_payload(), no_cache=True)
        assert served["result"]["status"] == "complete"

    @pytest.mark.parametrize("name", sorted(UNBUILDABLE_PROBLEMS))
    def test_unbuildable_geometry_names_its_fault(self, shared_service, name):
        """Non-integer geometry, and a region or obstacle past the grid,
        used to crash the worker that built the grid (``worker crashed``,
        exit 5); the front door now refuses it with the reason."""
        _service, client, _outcome = shared_service
        payload, words = UNBUILDABLE_PROBLEMS[name]
        response = client.request({"op": "submit", "problem": payload})
        assert response["ok"] is False
        assert response["error"]["kind"] == "input"
        assert response["error"]["exit_code"] == 2
        assert words in response["error"]["message"]
        assert client.health()["workers_alive"] == [True]


class TestCanonicalCache:
    def test_identical_resubmission_hits_with_no_new_work(self):
        with running_service() as (service, client, _outcome):
            first = client.submit(box_payload())
            assert first["job"]["cache"] == "miss"
            executed = service.health()["expansions_total"]
            assert executed > 0
            second = client.submit(box_payload())
            assert second["job"]["cache"] == "hit"
            assert second["job"]["worker"] is None  # never reached one
            assert second["result"]["stats"]["cache_hit"] is True
            # no new search work was done to serve the hit
            assert service.health()["expansions_total"] == executed
            assert service.health()["jobs"]["cache_hits"] == 1

    def test_isomorphic_instance_hits_and_verifies(self):
        original, isomorph = mirrored_twin()
        with running_service() as (_, client, _outcome):
            client.submit(original)
            response = client.submit(isomorph)
            assert response["job"]["cache"] == "hit"
            result = response["result"]
            assert result["stats"]["cache_hit"] is True
            # rendered in the twin's own names and coordinates
            assert result["problem"]["name"] == "mirrored-twin"
            names = {entry["net"] for entry in result["connections"]}
            assert names <= {net["name"] for net in isomorph["nets"]}
            grid = rebuild_grid(result)
            assert verify_routing(problem_from_dict(isomorph), grid).ok

    def test_warm_worker_routes_the_twin_not_its_sibling(self):
        # Regression: workers once kept rebuilt problems keyed by
        # canonical digest, which names the whole isomorphism class —
        # and twins always go to the same worker — so whenever the
        # result cache did not intercept (here: no_cache), the worker
        # routed the first-seen sibling and answered with its problem
        # dict, coordinates and net names.
        original, isomorph = mirrored_twin()
        with running_service() as (_, client, _outcome):
            client.submit(original)  # the worker sees the original first
            response = client.submit(isomorph, no_cache=True)
            assert response["job"]["cache"] == "bypass"
            result = response["result"]
            assert result["stats"]["cache_hit"] is False
            # the answer is the twin's own instance, freshly routed
            assert result["problem"]["name"] == "mirrored-twin"
            names = {entry["net"] for entry in result["connections"]}
            assert names <= {net["name"] for net in isomorph["nets"]}
            grid = rebuild_grid(result)
            assert verify_routing(problem_from_dict(isomorph), grid).ok

    def test_no_cache_exact_repeat_routes_identically(self):
        # Each job parses its own payload in the worker, so an exact
        # repeat is routed afresh and must reproduce the first run.
        with running_service() as (_, client, _outcome):
            first = client.submit(box_payload(), no_cache=True)["result"]
            second = client.submit(box_payload(), no_cache=True)["result"]
            assert first["status"] == "complete"
            assert second["connections"] == first["connections"]
            assert second["events"] == first["events"]
            assert (
                second["stats"]["expansions"] == first["stats"]["expansions"]
            )

    def test_no_cache_bypasses_both_ways(self):
        with running_service() as (_, client, _outcome):
            client.submit(box_payload(), no_cache=True)
            response = client.submit(box_payload())
            # the bypassed run was not stored, so this one is a miss
            assert response["job"]["cache"] == "miss"

    def test_cache_store_refuses_partials(self):
        from repro.netlist.canonical import canonical_form

        cache = CanonicalCache(capacity=4)
        problem = small_switchbox().to_problem()
        form = canonical_form(problem)
        assert not cache.store(form, {"status": "partial", "stats": {}})
        assert cache.render(form, problem_to_dict(problem)) is None

    def test_lru_eviction(self):
        from repro.netlist.canonical import canonical_form

        cache = CanonicalCache(capacity=1)
        p1 = small_switchbox().to_problem()
        p2 = woven_switchbox(10, 8, 6, seed=2, tangle=0.2).to_problem()
        payload = {
            "status": "complete",
            "stats": {},
            "connections": [],
            "events": [],
            "problem": {},
        }
        cache.store(canonical_form(p1), dict(payload))
        cache.store(canonical_form(p2), dict(payload))
        assert len(cache) == 1
        assert cache.render(
            canonical_form(p1), problem_to_dict(p1)
        ) is None


class TestAdmissionControl:
    def test_overload_sheds_with_structured_error(self):
        # One worker, queue depth 2: six simultaneous distinct jobs must
        # shed at least one with the structured overload error instead
        # of queueing past their deadlines.
        payloads = [
            problem_to_dict(
                woven_switchbox(18, 12, 14, seed=s, tangle=0.4).to_problem()
            )
            for s in range(20, 26)
        ]
        with running_service(workers=1, queue_limit=2) as (
            _service, client, _outcome,
        ):
            def submit(payload):
                try:
                    return client.submit(payload)
                except ReproError as exc:
                    return exc

            with ThreadPoolExecutor(max_workers=6) as pool:
                outcomes = list(pool.map(submit, payloads))
            shed = [o for o in outcomes if isinstance(o, ServiceOverloaded)]
            served = [o for o in outcomes if isinstance(o, dict)]
            assert shed, "no job was shed at queue_limit=2"
            assert served, "every job was shed"
            for error in shed:
                assert error.exit_code == 6
                assert error.to_dict()["kind"] == "overloaded"
                assert "queue" in str(error)
            health = client.health()
            assert health["jobs"]["shed"] == len(shed)

    def test_cost_model_shed_reports_estimated_wait(self, tmp_path):
        # Deterministic unit check of the cost-model branch: with 100 s
        # of estimated work already queued, a 1 s-deadline job is shed
        # before it ever reaches a worker — and the error says why.
        from repro.netlist.canonical import canonical_form

        service = RoutingService(
            ServiceConfig(socket_path=str(tmp_path / "x.sock"), workers=1)
        )
        problem = small_switchbox().to_problem()
        form = canonical_form(problem)
        service._pending_cost_s = 100.0
        with pytest.raises(ServiceOverloaded) as excinfo:
            service._admit(problem, form, deadline_s=1.0)
        assert excinfo.value.exit_code == 6
        assert excinfo.value.context["estimated_wait_s"] == 100.0
        assert excinfo.value.context["deadline_s"] == 1.0
        assert service.health()["jobs"]["shed"] == 1
        # a job with no deadline cannot be shed by the cost model
        cost, units = service._admit(problem, form, None)
        assert cost > 0 and units > 0

    def test_health_reports_cost_model(self):
        with running_service() as (_, client, _outcome):
            client.submit(box_payload())
            health = client.health()
            assert health["cost_ewma_s"] > 0
            assert health["queue_depth"] == 0
            assert health["jobs"]["completed"] == 1


class TestWorkerLiveness:
    def test_dead_worker_raises_structured_error_and_respawns(self):
        from repro.service.workers import WorkerPool

        options = {"deadline_s": None, "max_attempts": 2}
        pool = WorkerPool(1)
        try:
            pool._processes[0].terminate()
            pool._processes[0].join(10)
            with pytest.raises(EngineError) as excinfo:
                pool.run(0, {"job_id": 1, "problem": box_payload(),
                             "options": options})
            assert excinfo.value.context["worker"] == 0
            assert excinfo.value.context["respawned"] is True
            # the respawned worker serves the next job
            assert pool.alive() == [True]
            reply = pool.run(0, {"job_id": 2, "problem": box_payload(),
                                 "options": options})
            assert reply["ok"] is True
        finally:
            pool.close()


class TestSocketSafety:
    def test_refuses_to_clobber_a_live_daemon(self):
        with running_service() as (service, client, _outcome):
            rival = RoutingService(
                ServiceConfig(
                    socket_path=service.config.socket_path, workers=1
                )
            )
            with pytest.raises(InputError) as excinfo:
                asyncio.run(rival.run())
            assert "live daemon" in str(excinfo.value)
            # the incumbent kept its socket and keeps serving
            assert client.health()["workers_alive"] == [True]

    def test_stale_socket_file_is_cleaned_up(self):
        import socket as socket_module

        path = os.path.join(
            tempfile.mkdtemp(prefix="repro-stale-"), "stale.sock"
        )
        probe = socket_module.socket(
            socket_module.AF_UNIX, socket_module.SOCK_STREAM
        )
        probe.bind(path)
        probe.close()  # the file outlives the (never-listening) socket
        assert os.path.exists(path)
        with running_service(socket_path=path) as (_, client, _outcome):
            assert client.health()["workers_alive"] == [True]


class TestDrain:
    def test_shutdown_op_drains_cleanly(self):
        with running_service() as (_, client, outcome):
            client.submit(box_payload())
            client.shutdown()
            for _ in range(100):
                if "exit_code" in outcome:
                    break
                time.sleep(0.05)
            assert outcome.get("exit_code") == 0

    def test_socket_removed_after_drain(self):
        with running_service() as (service, client, outcome):
            path = service.config.socket_path
            client.shutdown()
            for _ in range(100):
                if "exit_code" in outcome:
                    break
                time.sleep(0.05)
        assert not os.path.exists(path)


@pytest.mark.slow
class TestSigtermSubprocess:
    def test_sigterm_drains_with_exit_zero(self, tmp_path):
        """The CI smoke sequence: serve, submit twice, SIGTERM, exit 0."""
        socket_path = os.path.join(
            tempfile.mkdtemp(prefix="repro-sig-"), "d.sock"
        )
        box = tmp_path / "box.json"
        import json

        box.write_text(json.dumps(box_payload()))
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", socket_path, "--workers", "1"],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        try:
            for _ in range(200):
                if os.path.exists(socket_path):
                    break
                time.sleep(0.05)
            submit = [sys.executable, "-m", "repro", "submit", str(box),
                      "--socket", socket_path, "--json"]
            first = subprocess.run(
                submit, env=env, capture_output=True, text=True, timeout=120
            )
            assert first.returncode == 0, first.stderr
            second = subprocess.run(
                submit, env=env, capture_output=True, text=True, timeout=120
            )
            assert second.returncode == 0, second.stderr
            response = json.loads(second.stdout)
            assert response["job"]["cache"] == "hit"
            assert response["result"]["stats"]["cache_hit"] is True
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=60) == 0
            assert not os.path.exists(socket_path)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(10)


class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = {"op": "submit", "problem": {"a": 1}}
        assert protocol.decode(protocol.encode(message)) == message

    def test_decode_rejects_non_objects(self):
        with pytest.raises(ValueError):
            protocol.decode(b"[1,2,3]\n")

    def test_error_rehydration_preserves_class_and_context(self):
        original = ServiceOverloaded(
            "queue full", context={"queue_depth": 9}
        )
        wire = protocol.error_response(original)["error"]
        back = protocol.error_from_payload(wire)
        assert isinstance(back, ServiceOverloaded)
        assert back.exit_code == 6
        assert back.context == {"queue_depth": 9}

    def test_unknown_error_code_degrades_to_engine_error(self):
        back = protocol.error_from_payload({"exit_code": 99, "message": "?"})
        assert isinstance(back, EngineError)

    def test_version_mismatch_rejected(self):
        with running_service() as (_, client, _outcome):
            # request() only stamps a version when the caller set none
            response = client.request({"op": "health", "version": 999})
            assert response["ok"] is False
            assert response["error"]["kind"] == "input"
            assert "version" in response["error"]["message"]
            # the client's own (current) stamp is accepted
            assert client.health()["workers_alive"] == [True]

    def test_versionless_request_accepted(self):
        with running_service() as (service, _client, _outcome):
            import socket as socket_module

            with socket_module.socket(
                socket_module.AF_UNIX, socket_module.SOCK_STREAM
            ) as sock:
                sock.settimeout(30.0)
                sock.connect(service.config.socket_path)
                sock.sendall(b'{"op":"health"}\n')
                sock.shutdown(socket_module.SHUT_WR)
                line = sock.makefile("rb").readline()
            response = protocol.decode(line)
            assert response["ok"] is True
            assert response["version"] == protocol.PROTOCOL_VERSION
