"""Durable storage for the canonical-instance cache.

The daemon's :class:`~repro.service.cache.CanonicalCache` is the most
expensive state it holds — every entry is a completed routing — yet
until this module existed a ``kill -9`` lost all of it.  The store makes
the cache survive crashes with the classic journal + snapshot scheme:

* **journal** (``journal.repro``) — an append-only log, one record per
  ``CanonicalCache.store``.  Appends are flushed and fsynced before the
  store call returns, so a result acknowledged to a client is on disk
  before the next crash, a power loss included.
* **snapshot** (``snapshot.repro``) — a compacted image of the whole
  cache, rewritten atomically (write ``snapshot.repro.tmp``, then
  ``os.replace``) so a crash mid-compaction never loses the previous
  snapshot.  After a successful snapshot the journal is reset.

Both files share one format: an 8-byte header (``RPRC`` magic plus a
big-endian format version) followed by length-prefixed records —
``>II`` (payload length, CRC32) then the JSON payload
``{"digest": ..., "payload": ...}``.

**Corruption policy.**  Crashes tear files and disks flip bits; neither
may stop the daemon from booting.  Replay is therefore forgiving:

* a record whose CRC32 does not match its bytes is *skipped* with a
  warning — framing is intact, so every later record is still replayed;
* a record whose length prefix runs past end-of-file (the torn tail of
  a crash mid-append) *truncates* replay with a warning — everything
  before it is served;
* a file with an unknown header (foreign file, future format version)
  is ignored entirely with a warning.

Replay order is snapshot first, then journal, later records winning —
so a journal entry that superseded a snapshot entry still wins after a
restart.  Replaying an entry that is already in the snapshot (a crash
between ``os.replace`` and the journal reset) is idempotent.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import threading
import zlib
from collections import OrderedDict
from typing import Callable, Dict, Optional

log = logging.getLogger("repro.service.store")

#: On-disk format revision; bumped on any incompatible layout change.
FORMAT_VERSION = 1

#: File magic: a foreign or future-format file is ignored, not parsed.
MAGIC = b"RPRC"

_HEADER = MAGIC + struct.pack(">I", FORMAT_VERSION)
_RECORD = struct.Struct(">II")  # payload length, CRC32

#: Upper bound on one record; a longer length prefix is treated as
#: corruption (it would otherwise balloon replay memory).
MAX_RECORD_BYTES = 64 * 1024 * 1024

#: Compaction thresholds: the journal is folded into a fresh snapshot
#: once it holds at least ``COMPACT_MIN_RECORDS`` records and at least
#: ``COMPACT_RATIO`` times as many records as the cache has live entries.
COMPACT_MIN_RECORDS = 256
COMPACT_RATIO = 4.0

SNAPSHOT_NAME = "snapshot.repro"
JOURNAL_NAME = "journal.repro"
SNAPSHOT_TMP_NAME = "snapshot.repro.tmp"


def pack_record(record: dict) -> bytes:
    """Encode one length-prefixed, CRC-guarded JSON record."""
    data = json.dumps(record, separators=(",", ":"), sort_keys=True).encode()
    return _RECORD.pack(len(data), zlib.crc32(data) & 0xFFFFFFFF) + data


class CacheStore:
    """Journal + snapshot persistence for one cache directory.

    Thread-safe (one internal lock); owned by a single daemon process.
    Every write is fsynced before the call returns.
    """

    def __init__(
        self,
        cache_dir: str,
        on_event: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.cache_dir = str(cache_dir)
        self._on_event = on_event
        self._lock = threading.Lock()
        self._journal = None
        self.journal_records = 0
        self.counters: Dict[str, int] = {
            "loaded": 0,
            "skipped_records": 0,
            "torn_tails": 0,
            "invalid_files": 0,
            "appends": 0,
            "compactions": 0,
        }
        os.makedirs(self.cache_dir, exist_ok=True)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def snapshot_path(self) -> str:
        """The compacted cache image (atomically replaced)."""
        return os.path.join(self.cache_dir, SNAPSHOT_NAME)

    @property
    def journal_path(self) -> str:
        """The append-only log of entries since the last snapshot."""
        return os.path.join(self.cache_dir, JOURNAL_NAME)

    def _warn(self, line: str) -> None:
        log.warning(line)
        if self._on_event is not None:
            self._on_event(f"cache-store: {line}")

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def load(self) -> "OrderedDict[str, dict]":
        """Replay snapshot then journal; returns digest -> payload.

        Never raises on corruption: torn tails truncate the replay of
        that file, CRC-mismatched records are skipped, unknown files are
        ignored — each with a warning and a counter.
        """
        with self._lock:
            self._close_journal_locked()
            entries: "OrderedDict[str, dict]" = OrderedDict()
            self._replay_file(self.snapshot_path, entries)
            self.journal_records = self._replay_file(
                self.journal_path, entries
            )
            self.counters["loaded"] = len(entries)
            return entries

    def _replay_file(
        self, path: str, into: "OrderedDict[str, dict]"
    ) -> int:
        """Replay one record file into ``into``; returns records applied."""
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            return 0
        except OSError as exc:
            self._warn(f"cannot read {path}: {exc}")
            self.counters["invalid_files"] += 1
            return 0
        if not blob:
            return 0
        if blob[: len(_HEADER)] != _HEADER:
            self._warn(
                f"{path}: unrecognised header (foreign file or future "
                f"format), ignoring the whole file"
            )
            self.counters["invalid_files"] += 1
            return 0
        offset = len(_HEADER)
        total = len(blob)
        applied = 0
        while offset < total:
            if total - offset < _RECORD.size:
                self._warn(
                    f"{path}: torn record header at byte {offset}, "
                    f"truncating replay"
                )
                self.counters["torn_tails"] += 1
                break
            length, crc = _RECORD.unpack_from(blob, offset)
            start = offset + _RECORD.size
            if length > MAX_RECORD_BYTES or start + length > total:
                self._warn(
                    f"{path}: torn or oversized record at byte {offset}, "
                    f"truncating replay"
                )
                self.counters["torn_tails"] += 1
                break
            data = blob[start : start + length]
            offset = start + length
            if zlib.crc32(data) & 0xFFFFFFFF != crc:
                self._warn(
                    f"{path}: CRC mismatch at byte {start}, skipping "
                    f"one record"
                )
                self.counters["skipped_records"] += 1
                continue
            try:
                record = json.loads(data.decode())
                digest = record["digest"]
                payload = record["payload"]
                if not isinstance(digest, str) or not isinstance(
                    payload, dict
                ):
                    raise ValueError("record fields have the wrong types")
            except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                self._warn(
                    f"{path}: undecodable record at byte {start}, "
                    f"skipping it"
                )
                self.counters["skipped_records"] += 1
                continue
            into[digest] = payload
            into.move_to_end(digest)
            applied += 1
        return applied

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, digest: str, payload: dict) -> None:
        """Append one entry to the journal (flushed before returning)."""
        record = pack_record({"digest": digest, "payload": payload})
        with self._lock:
            handle = self._open_journal_locked()
            handle.write(record)
            handle.flush()
            os.fsync(handle.fileno())
            self.journal_records += 1
            self.counters["appends"] += 1

    def _open_journal_locked(self):
        if self._journal is None or self._journal.closed:
            fresh = (
                not os.path.exists(self.journal_path)
                or os.path.getsize(self.journal_path) == 0
            )
            self._journal = open(self.journal_path, "ab")
            if fresh:
                self._journal.write(_HEADER)
        return self._journal

    def _close_journal_locked(self) -> None:
        if self._journal is not None and not self._journal.closed:
            self._journal.close()
        self._journal = None

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self, entries: Dict[str, dict]) -> None:
        """Fold ``entries`` into a fresh snapshot, then reset the journal.

        The snapshot is written to a temp file and moved into place with
        ``os.replace``: a crash at any instant leaves either the old
        snapshot (plus the still-intact journal) or the new one — never
        neither.  A crash after the replace but before the journal reset
        merely replays journal entries the snapshot already holds.
        """
        with self._lock:
            self._compact_locked(entries)

    def maybe_compact(
        self, entries_fn: Callable[[], Dict[str, dict]]
    ) -> bool:
        """Compact when the journal dwarfs the live entry set.

        ``entries_fn`` is only called (outside the store lock — it may
        take the cache's own lock) once the cheap record-count threshold
        passes.
        """
        with self._lock:
            if self.journal_records < COMPACT_MIN_RECORDS:
                return False
        entries = entries_fn()
        with self._lock:
            due = self.journal_records >= max(
                COMPACT_MIN_RECORDS, COMPACT_RATIO * max(1, len(entries))
            )
            if not due:
                return False
            self._compact_locked(entries)
            return True

    def _compact_locked(self, entries: Dict[str, dict]) -> None:
        tmp = os.path.join(self.cache_dir, SNAPSHOT_TMP_NAME)
        with open(tmp, "wb") as handle:
            handle.write(_HEADER)
            for digest, payload in entries.items():
                handle.write(
                    pack_record({"digest": digest, "payload": payload})
                )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.snapshot_path)
        self._close_journal_locked()
        with open(self.journal_path, "wb") as handle:
            handle.write(_HEADER)
            handle.flush()
            os.fsync(handle.fileno())
        self.journal_records = 0
        self.counters["compactions"] += 1

    # ------------------------------------------------------------------
    # Lifecycle / telemetry
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the journal file handle (the files stay on disk)."""
        with self._lock:
            self._close_journal_locked()

    def stats(self) -> Dict[str, object]:
        """Counters for the health endpoint."""
        with self._lock:
            return {
                "cache_dir": self.cache_dir,
                "format_version": FORMAT_VERSION,
                "journal_records": self.journal_records,
                **dict(self.counters),
            }
