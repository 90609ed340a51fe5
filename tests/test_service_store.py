"""Tests for the durable cache store: journal, snapshot, corruption.

The store's contract is crash-shaped: anything a ``kill -9`` (or a
decaying disk) can do to the files must at worst cost the records it
physically destroyed — never the daemon's ability to boot, never an
intact record.  Corruption here is injected deterministically with the
:mod:`repro.testing.faults` helpers, so every failure reproduces.
"""

import json
import os
import struct
import zlib
from collections import OrderedDict
from pathlib import Path

import pytest

from repro.core.serialize import result_to_dict
from repro.engine import EngineConfig, RoutingEngine
from repro.netlist.canonical import canonical_form
from repro.netlist.instances import small_switchbox
from repro.netlist.io import problem_to_dict
from repro.service import store as store_module
from repro.service.cache import CanonicalCache
from repro.service.store import (
    FORMAT_VERSION,
    CacheStore,
    pack_record,
)
from repro.testing import flip_byte, truncate_file

HEADER_BYTES = 8
RECORD_HEADER_BYTES = 8


def make_store(tmp_path) -> CacheStore:
    return CacheStore(str(tmp_path / "cache"))


@pytest.fixture
def open_store(tmp_path):
    """``make_store`` for one test, closing every store it made."""
    stores = []

    def make():
        stores.append(make_store(tmp_path))
        return stores[-1]

    yield make
    for store in stores:
        store.close()


@pytest.fixture
def compaction(monkeypatch):
    """Set the store's compaction thresholds for one test."""

    def set_thresholds(min_records, ratio):
        monkeypatch.setattr(store_module, "COMPACT_MIN_RECORDS", min_records)
        monkeypatch.setattr(store_module, "COMPACT_RATIO", ratio)

    return set_thresholds


def fake_payload(tag: str) -> dict:
    return {"status": "complete", "stats": {"tag": tag}}


class TestRoundTrip:
    def test_journal_append_and_reload(self, tmp_path):
        store = make_store(tmp_path)
        for i in range(5):
            store.append(f"d{i}", fake_payload(f"p{i}"))
        store.close()
        fresh = make_store(tmp_path)
        entries = fresh.load()
        assert list(entries) == [f"d{i}" for i in range(5)]
        assert entries["d3"] == fake_payload("p3")
        assert fresh.counters["loaded"] == 5
        assert fresh.counters["skipped_records"] == 0

    def test_rewrite_of_a_digest_last_one_wins(self, open_store):
        store = open_store()
        store.append("d", fake_payload("old"))
        store.append("d", fake_payload("new"))
        assert open_store().load()["d"] == fake_payload("new")

    def test_empty_directory_loads_empty(self, tmp_path):
        assert make_store(tmp_path).load() == OrderedDict()

    def test_compact_folds_journal_into_snapshot(self, tmp_path):
        store = make_store(tmp_path)
        store.append("d1", fake_payload("a"))
        store.append("d2", fake_payload("b"))
        store.compact({"d1": fake_payload("a"), "d2": fake_payload("b")})
        assert store.journal_records == 0
        # journal holds only the header now; snapshot has everything
        assert os.path.getsize(store.journal_path) == HEADER_BYTES
        entries = make_store(tmp_path).load()
        assert set(entries) == {"d1", "d2"}
        # no temp file left behind — os.replace moved it into place
        assert not any(
            name.endswith(".tmp")
            for name in os.listdir(os.path.dirname(store.journal_path))
        )

    def test_snapshot_plus_later_journal_entries(self, tmp_path):
        store = make_store(tmp_path)
        store.append("d1", fake_payload("a"))
        store.compact({"d1": fake_payload("a")})
        store.append("d2", fake_payload("b"))
        store.append("d1", fake_payload("newer"))  # journal beats snapshot
        store.close()
        entries = make_store(tmp_path).load()
        assert entries["d1"] == fake_payload("newer")
        assert entries["d2"] == fake_payload("b")


class TestCorruptionPolicy:
    def test_torn_final_record_truncates_replay(self, tmp_path):
        store = make_store(tmp_path)
        store.append("d1", fake_payload("a"))
        store.append("d2", fake_payload("b"))
        store.close()
        truncate_file(store.journal_path, 3)  # tear the tail mid-record
        fresh = make_store(tmp_path)
        entries = fresh.load()
        assert list(entries) == ["d1"]
        assert fresh.counters["torn_tails"] == 1

    def test_torn_record_header_truncates_replay(self, tmp_path):
        store = make_store(tmp_path)
        store.append("d1", fake_payload("a"))
        store.close()
        # leave only 4 of the next record's 8 header bytes
        with open(store.journal_path, "ab") as handle:
            handle.write(b"\x00\x00\x00\x09")
        fresh = make_store(tmp_path)
        assert list(fresh.load()) == ["d1"]
        assert fresh.counters["torn_tails"] == 1

    def test_flipped_payload_byte_skips_only_that_record(self, tmp_path):
        store = make_store(tmp_path)
        store.append("d1", fake_payload("a"))
        store.append("d2", fake_payload("b"))
        store.close()
        # flip a byte inside record 1's payload: CRC catches it, framing
        # stays intact, record 2 must survive
        flip_byte(
            store.journal_path, HEADER_BYTES + RECORD_HEADER_BYTES + 4
        )
        events = []
        fresh = CacheStore(store.cache_dir, on_event=events.append)
        entries = fresh.load()
        assert list(entries) == ["d2"]
        assert fresh.counters["skipped_records"] == 1
        assert any("CRC mismatch" in line for line in events)

    def test_unknown_header_ignores_file_with_warning(self, tmp_path):
        store = make_store(tmp_path)
        store.append("d1", fake_payload("a"))
        store.close()
        flip_byte(store.journal_path, 0)  # corrupt the magic itself
        events = []
        fresh = CacheStore(store.cache_dir, on_event=events.append)
        assert fresh.load() == OrderedDict()
        assert fresh.counters["invalid_files"] == 1
        assert any("header" in line for line in events)

    def test_future_format_version_is_not_parsed(self, tmp_path):
        store = make_store(tmp_path)
        with open(store.journal_path, "wb") as handle:
            handle.write(b"RPRC" + struct.pack(">I", FORMAT_VERSION + 1))
            handle.write(pack_record({"digest": "d", "payload": {}}))
        fresh = make_store(tmp_path)
        assert fresh.load() == OrderedDict()
        assert fresh.counters["invalid_files"] == 1

    def test_valid_crc_but_garbage_json_is_skipped(self, tmp_path):
        store = make_store(tmp_path)
        store.append("d1", fake_payload("a"))
        data = b"not json at all"
        with open(store.journal_path, "ab") as handle:
            handle.write(
                struct.pack(">II", len(data), zlib.crc32(data) & 0xFFFFFFFF)
                + data
            )
        store.close()
        fresh = make_store(tmp_path)
        assert list(fresh.load()) == ["d1"]
        assert fresh.counters["skipped_records"] == 1

    def test_stale_snapshot_tmp_from_crashed_compaction(self, tmp_path):
        store = make_store(tmp_path)
        store.append("d1", fake_payload("a"))
        store.close()
        # a crash mid-compaction leaves a half-written temp file; it must
        # never be read, and the next compaction must clobber it
        tmp = Path(store.cache_dir) / "snapshot.repro.tmp"
        tmp.write_bytes(b"half-written garbage")
        fresh = make_store(tmp_path)
        assert list(fresh.load()) == ["d1"]
        fresh.compact({"d1": fake_payload("a")})
        assert not tmp.exists()
        assert list(make_store(tmp_path).load()) == ["d1"]


class TestCompactionPolicy:
    def test_maybe_compact_triggers_on_journal_bloat(
        self, tmp_path, compaction
    ):
        compaction(4, 2.0)
        store = make_store(tmp_path)
        entries = {"d": fake_payload("latest")}
        for i in range(3):
            store.append("d", fake_payload(f"v{i}"))
            assert not store.maybe_compact(lambda: dict(entries))
        store.append("d", fake_payload("latest"))
        # 4 journal records over 1 live entry: due
        assert store.maybe_compact(lambda: dict(entries))
        assert store.journal_records == 0
        assert store.counters["compactions"] == 1
        assert make_store(tmp_path).load() == OrderedDict(entries)

    def test_maybe_compact_respects_ratio(self, open_store, compaction):
        compaction(2, 4.0)
        store = open_store()
        entries = {f"d{i}": fake_payload(str(i)) for i in range(3)}
        for digest, payload in entries.items():
            store.append(digest, payload)
        # 3 records for 3 live entries: not 4x bloat yet
        assert not store.maybe_compact(lambda: dict(entries))
        assert store.journal_records == 3


class TestCanonicalCacheIntegration:
    @pytest.fixture(scope="class")
    def routed(self):
        problem = small_switchbox().to_problem()
        result = RoutingEngine(EngineConfig()).route(problem)
        payload = result_to_dict(result)
        payload["stats"]["cache_hit"] = False
        return problem, payload

    def test_store_then_reload_serves_a_hit(self, open_store, routed):
        problem, payload = routed
        form = canonical_form(problem)
        first = CanonicalCache(8, store=open_store())
        assert first.store(form, dict(payload))
        # a second cache on the same directory is a restarted daemon
        second = CanonicalCache(8, store=open_store())
        assert second.load_from_store() == 1
        rendered = second.render(form, problem_to_dict(problem))
        assert rendered is not None
        assert rendered["stats"]["cache_hit"] is True
        assert rendered["status"] == "complete"

    def test_reload_trims_to_capacity_keeping_most_recent(
        self, tmp_path, routed
    ):
        _, payload = routed
        store = make_store(tmp_path)
        for i in range(6):
            record = json.loads(json.dumps(payload))
            store.append(f"digest-{i}", record)
        cache = CanonicalCache(3, store=store)
        assert cache.load_from_store() == 3
        stats = cache.stats()
        assert stats["entries"] == 3
        # the three most recently journaled digests survived
        entries = cache._snapshot_entries()
        assert set(entries) == {"digest-3", "digest-4", "digest-5"}

    def test_load_compacts_so_restart_cost_is_bounded(
        self, open_store, routed
    ):
        problem, payload = routed
        form = canonical_form(problem)
        cache = CanonicalCache(8, store=open_store())
        cache.store(form, dict(payload))
        fresh_store = open_store()
        fresh = CanonicalCache(8, store=fresh_store)
        fresh.load_from_store()
        # the journal was folded into the snapshot on load
        assert fresh_store.journal_records == 0
        assert fresh_store.counters["compactions"] == 1

    def test_partials_are_not_journaled(self, tmp_path, routed):
        problem, _ = routed
        form = canonical_form(problem)
        store = make_store(tmp_path)
        cache = CanonicalCache(8, store=store)
        assert not cache.store(form, {"status": "partial", "stats": {}})
        assert store.counters["appends"] == 0

    def test_zero_capacity_disables_persistence(self, tmp_path):
        cache = CanonicalCache(0, store=make_store(tmp_path))
        assert not cache.persistent
        assert cache.load_from_store() == 0

    def test_stats_expose_store_counters(self, open_store, routed):
        problem, payload = routed
        cache = CanonicalCache(8, store=open_store())
        cache.store(canonical_form(problem), dict(payload))
        stats = cache.stats()
        assert stats["store"]["journal_records"] == 1
        assert stats["store"]["appends"] == 1
