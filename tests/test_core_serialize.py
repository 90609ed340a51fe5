"""Tests for routing-result serialization."""

import json

from repro.analysis import layout_metrics, verify_result, verify_routing
from repro.core import route_problem
from repro.core.serialize import (
    load_checkpoint,
    load_result_grid,
    path_from_list,
    path_to_list,
    rebuild_grid,
    result_to_dict,
    routed_paths,
    save_checkpoint,
    save_result,
)
from repro.engine import EngineConfig, RoutingEngine
from repro.grid import GridPath
from repro.netlist.instances import obstacle_region_problem, small_switchbox
from repro.testing import FaultInjector, FaultPlan


class TestPathRoundTrip:
    def test_none(self):
        assert path_to_list(None) is None
        assert path_from_list(None) is None

    def test_round_trip(self):
        path = GridPath([(0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 1)])
        assert path_from_list(path_to_list(path)) == path


class TestResultDump:
    def test_dict_is_json_compatible(self):
        result = route_problem(small_switchbox().to_problem())
        payload = result_to_dict(result)
        json.dumps(payload)  # must not raise
        assert payload["success"] is True
        assert payload["router"] == "mighty"
        assert len(payload["connections"]) == result.stats.connections
        assert len(payload["events"]) == len(result.events)

    def test_rebuilt_grid_matches_original(self):
        problem = small_switchbox().to_problem()
        result = route_problem(problem)
        payload = result_to_dict(result)
        rebuilt = rebuild_grid(payload)
        original = layout_metrics(problem, result.grid)
        recovered = layout_metrics(problem, rebuilt)
        assert recovered.wire_cells == original.wire_cells
        assert recovered.via_count == original.via_count
        assert verify_routing(problem, rebuilt).ok

    def test_region_problem_round_trips(self):
        problem = obstacle_region_problem()
        result = route_problem(problem)
        payload = result_to_dict(result)
        rebuilt = rebuild_grid(payload)
        assert verify_routing(problem, rebuilt).ok

    def test_file_round_trip(self, tmp_path):
        problem = small_switchbox().to_problem()
        result = route_problem(problem)
        dump = tmp_path / "result.json"
        save_result(dump, result)
        loaded_problem, loaded_grid = load_result_grid(dump)
        assert loaded_problem.width == problem.width
        assert verify_routing(loaded_problem, loaded_grid).ok


def partial_result():
    """A deadline-style partial result via deterministic fault injection."""
    problem = small_switchbox().to_problem()
    with FaultInjector(FaultPlan(fail_searches_after=3)):
        result = RoutingEngine(EngineConfig(max_attempts=1)).route(problem)
    assert result.status == "partial", "fixture expects a partial route"
    return result


class TestPartialResultRoundTrip:
    """The gap this PR closes: dumps of deadline/fault-cut runs used to
    lose status, timeout flags and the attempt log on the way through
    JSON.  A partial dump must now round-trip faithfully."""

    def test_status_and_flags_survive(self):
        payload = result_to_dict(partial_result())
        json.dumps(payload)  # still plain JSON
        assert payload["success"] is False
        assert payload["status"] == "partial"
        assert payload["stats"]["failed_connections"] > 0
        # routed and unrouted connections are both present, distinguishable
        routed = [c for c in payload["connections"] if c["routed"]]
        failed = [c for c in payload["connections"] if not c["routed"]]
        assert routed and failed
        for entry in failed:
            assert entry["path"] is None

    def test_attempt_log_round_trips(self):
        result = partial_result()
        assert result.stats.attempt_log  # the engine recorded its attempt
        payload = json.loads(json.dumps(result_to_dict(result)))
        assert payload["attempt_log"] == result.stats.attempt_log
        stats = payload["stats"]
        assert stats["routed_connections"] == result.stats.routed_connections
        assert stats["failed_connections"] == result.stats.failed_connections

    def test_timed_out_and_deadline_survive(self):
        problem = small_switchbox().to_problem()
        result = RoutingEngine(EngineConfig(deadline_s=0)).route(problem)
        assert result.stats.timed_out
        stats = result_to_dict(result)["stats"]
        assert stats["timed_out"] is True
        assert stats["deadline_s"] == 0

    def test_rips_survive(self):
        result = route_problem(small_switchbox().to_problem())
        payload = result_to_dict(result)
        by_pins = {
            (tuple(c["source"]), tuple(c["target"])): c["rips"]
            for c in payload["connections"]
        }
        for connection in result.connections:
            key = (
                (connection.source_pin.x, connection.source_pin.y,
                 int(connection.source_pin.layer)),
                (connection.target_pin.x, connection.target_pin.y,
                 int(connection.target_pin.layer)),
            )
            assert by_pins[key] == connection.rips


class TestCheckpointResume:
    def test_partial_checkpoint_resumes_to_completion(self, tmp_path):
        result = partial_result()
        checkpoint = tmp_path / "checkpoint.json"
        save_checkpoint(checkpoint, result)
        problem, pre_routed = load_checkpoint(checkpoint)
        # the checkpoint carries exactly the routed subset
        assert sum(len(p) for p in pre_routed.values()) == \
            result.stats.routed_connections
        resumed = RoutingEngine().route(problem, pre_routed=pre_routed)
        assert resumed.success
        assert verify_result(problem, resumed).ok

    def test_routed_paths_skips_pathless_connections(self):
        payload = result_to_dict(route_problem(
            small_switchbox().to_problem()
        ))
        payload["connections"].append(
            {"net": "ghost", "routed": True, "path": None}
        )
        payload["connections"].append(
            {"net": "ghost", "routed": False,
             "path": [[0, 0, 0], [1, 0, 0]]}
        )
        assert "ghost" not in routed_paths(payload)
