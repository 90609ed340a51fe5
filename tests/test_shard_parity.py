"""Differential suite for the shard-and-stitch pipeline.

The pipeline's contract is replay discipline: for a fixed ``shards``
value the stitched result is bit-identical run to run and independent of
the worker count.  When the partitioner rejects an instance the pipeline
routes nothing, and the engine's result is *exactly* the whole-region
one, routed once.  These tests compare full path sets and deterministic
counters, not just success flags.
"""

import pytest

from repro.analysis.verify import verify_result
from repro.core.shard import route_problem_sharded
from repro.engine import EngineConfig, RoutingEngine
from repro.netlist.generators import random_channel


def _shardable_problem():
    """A channel wide enough that the partitioner accepts two shards."""
    spec = random_channel(
        n_columns=140,
        n_nets=90,
        seed=5,
        fill=0.85,
        target_density=8,
        name="parity-channel",
    )
    return spec.to_problem(tracks=spec.density + 3)


def _paths(result):
    """Canonical fingerprint of every committed path."""
    fingerprint = []
    for connection in result.connections:
        nodes = (
            tuple(
                (node.x, node.y, int(node.layer))
                for node in connection.path.nodes
            )
            if connection.path is not None
            else ()
        )
        fingerprint.append((connection.net_name, connection.routed, nodes))
    return sorted(fingerprint)


#: Stats fields that measure wall time, not behaviour.
_TIMING_FIELDS = (
    "elapsed_s",
    "phase_search_s",
    "phase_connectivity_s",
    "phase_victims_s",
    "phase_claims_s",
)


def _counters(result):
    stats = result.stats.as_dict()
    for name in _TIMING_FIELDS:
        stats.pop(name)
    return stats


@pytest.fixture(scope="module")
def sharded_once():
    return route_problem_sharded(_shardable_problem(), shards=2)


class TestDeterminism:
    def test_fixed_shard_count_replays_bit_identically(self, sharded_once):
        again = route_problem_sharded(_shardable_problem(), shards=2)
        assert _paths(again) == _paths(sharded_once)
        assert _counters(again) == _counters(sharded_once)

    def test_worker_count_does_not_change_the_result(self, sharded_once):
        pooled = route_problem_sharded(
            _shardable_problem(), shards=2, workers=2
        )
        assert _paths(pooled) == _paths(sharded_once)
        assert _counters(pooled) == _counters(sharded_once)


class TestStitchedQuality:
    def test_stitched_result_verifies_clean(self, sharded_once):
        assert sharded_once.success
        report = verify_result(sharded_once.problem, sharded_once)
        assert report.ok, report.summary()

    def test_stats_expose_the_pipeline(self, sharded_once):
        stats = sharded_once.stats
        assert stats.shards == 2
        per_shard = [
            entry for entry in stats.shard_log if "shard" in entry
        ]
        stitch = [
            entry
            for entry in stats.shard_log
            if entry.get("stage") == "stitch"
        ]
        assert len(per_shard) >= 2
        assert len(stitch) == 1
        # Satellite: the resolved kernel backend is recorded per shard
        # and matches the stitch run's backend exactly.
        backends = {entry["kernel_backend"] for entry in per_shard}
        assert backends == {stats.kernel_backend}
        assert stats.kernel_backend  # a concrete name, never ""


def _fig_channel():
    """The bench's fig-channel: unshardable, and incomplete at density."""
    spec = random_channel(28, 10, seed=23)
    return spec.to_problem(max(1, spec.density))


class TestEngineFallback:
    def test_pipeline_declines_with_none(self):
        spec = random_channel(n_columns=12, n_nets=6, seed=3, name="tiny")
        problem = spec.to_problem(tracks=spec.density + 2)
        assert route_problem_sharded(problem, shards=4) is None
        assert route_problem_sharded(_shardable_problem(), shards=1) is None

    def test_unshardable_problem_is_routed_once(self):
        engine = RoutingEngine(EngineConfig(max_attempts=1))
        whole = engine.route(_fig_channel(), shards=1)
        result = engine.route(_fig_channel(), shards=4)
        assert not result.success  # an incomplete result is not rerouted
        shard, mighty = result.stats.attempt_log
        assert (shard["stage"], shard["shards"]) == ("shard", 1)
        assert (shard["stop"], shard["expansions"]) == ("declined", 0)
        assert "shard_log" not in shard
        assert mighty["stage"] == "mighty"
        # One Mighty route: the shards=1 paths, counters and work.
        assert _paths(result) == _paths(whole)
        assert _counters(result) == _counters(whole)
        assert mighty["expansions"] == whole.stats.expansions
        assert result.stats.shard_log == []


class TestEngineIntegration:
    def test_engine_routes_with_shards(self):
        engine = RoutingEngine(EngineConfig(max_attempts=1))
        result = engine.route(_shardable_problem(), shards=2)
        assert result.success
        assert result.stats.shards == 2
        records = [
            record
            for record in result.stats.attempt_log
            if record.get("stage") == "shard"
        ]
        assert len(records) == 1
        assert records[0]["verified"] is True
        assert records[0]["shards"] == 2

    def test_engine_falls_back_to_cascade_on_shard_crash(self, monkeypatch):
        import repro.core.shard as shard_module

        def explode(*args, **kwargs):
            raise RuntimeError("injected shard-stage crash")

        # The supervisor imports the pipeline at call time, so patching
        # the definition site intercepts it.
        monkeypatch.setattr(
            shard_module, "route_problem_sharded", explode
        )
        engine = RoutingEngine(EngineConfig(max_attempts=1))
        result = engine.route(_shardable_problem(), shards=2)
        assert result.success  # the ordinary cascade still delivered
        records = [
            record
            for record in result.stats.attempt_log
            if record.get("stage") == "shard"
        ]
        assert len(records) == 1
        assert "injected shard-stage crash" in records[0]["error"]

