"""The :class:`ResultStore`: fixpoints on disk, keyed by content.

On-disk layout (one directory per store)::

    <root>/
      index.sqlite          # the queryable index (see migrate.py)
      blobs/<key>.json      # one JSON blob per entry (tdd/io codec)
      quarantine/           # blobs set aside after failing integrity

An entry is a converged, unbounded reachable-space fixpoint.  Its key
is the sha256 over the four content fingerprints that determine the
result — transition relation, initial subspace, analysis direction,
depth bound (see :func:`~repro.mc.reachability.fixpoint_key`) — so
the store is
*content-addressed*: the same physical system rebuilt in a different
manager, process or machine maps to the same entry, and a changed gate
matrix or seed state maps to a different one.

Crash-safety contract:

* **writes are atomic** — a blob is written to a ``*.tmp.<pid>`` file,
  fsynced and ``os.replace``d into place *before* its index row is
  inserted, so a reader either sees a complete blob or no entry at
  all; a crash in between leaves an invisible orphan blob that
  :meth:`ResultStore.gc` sweeps later;
* **reads degrade to misses** — a missing, truncated, bit-flipped or
  undecodable blob (and an index row whose checksum disagrees with the
  blob) is *quarantined*: the file is moved to ``quarantine/``, the
  index row deleted, an audit row recorded, and the lookup reports a
  miss.  Corruption can cost recomputation, never a wrong answer;
* **the index is expendable** — deleting ``index.sqlite`` (or
  corrupting it: it is set aside and rebuilt empty) orphans the blobs,
  which read as misses; ``repro cache import`` re-adopts exported
  entries, and new fixpoints simply repopulate.

The store implements the same ``lookup``/``store`` protocol as the
in-memory :class:`~repro.mc.reachability.ReachabilityCache`, so it
drops into ``ModelChecker.check(reach_cache=...)`` and the sweep
runner unchanged; ``source = "disk"`` is how warm rows are attributed
(the ``store_hit`` sweep column).
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import StoreError
from repro.mc.reachability import admissible, entry_key, fixpoint_key
from repro.store.migrate import SCHEMA_VERSION, ensure_schema
from repro.subspace.subspace import Subspace
from repro.systems.qts import QuantumTransitionSystem
from repro.tdd.io import from_dict, payload_digest, to_dict

#: orphan blobs / stale temp files younger than this are left alone by
#: gc: they may belong to a concurrent writer that has not yet
#: inserted its index row
ORPHAN_GRACE_SECONDS = 60.0

_INDEX_NAME = "index.sqlite"
_BLOB_DIR = "blobs"
_QUARANTINE_DIR = "quarantine"
_SQLITE_TIMEOUT = 30.0


@dataclass
class StoreStats:
    """One snapshot of a store's shape and this session's traffic."""

    entries: int
    total_bytes: int
    hits: int            # lookups served from disk, this session
    misses: int          # lookups answered empty, this session
    total_hits: int      # lifetime hits summed over the index
    quarantined: int     # lifetime quarantine records
    evictions: int       # lifetime evicted entries (meta counter)
    schema_version: int
    root: str

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class GCReport:
    """What one :meth:`ResultStore.gc` pass did."""

    bytes_before: int
    bytes_after: int
    evicted: int
    bytes_freed: int
    orphans_removed: int

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class ResultStore:
    """A disk-backed, content-addressed reachable-space store.

    ``max_bytes`` (optional) is a standing byte budget: every
    :meth:`store` enforces it by evicting least-recently-hit entries
    (the same policy :meth:`gc` applies on demand).  ``hits`` /
    ``misses`` count this instance's lookups, mirroring the in-memory
    cache's counters; lifetime aggregates live in :meth:`stats`.

    Safe for concurrent use from multiple processes: the index is
    SQLite (write lock + busy timeout), blobs only ever appear via
    atomic rename, and every read verifies the blob's content digest
    against the index before serving it.
    """

    source = "disk"

    def __init__(self, root: str,
                 max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise StoreError(f"max_bytes must be >= 0, got {max_bytes}")
        self.root = os.path.abspath(root)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self._blob_dir = os.path.join(self.root, _BLOB_DIR)
        self._quarantine_dir = os.path.join(self.root, _QUARANTINE_DIR)
        try:
            os.makedirs(self._blob_dir, exist_ok=True)
            os.makedirs(self._quarantine_dir, exist_ok=True)
        except OSError as exc:
            raise StoreError(f"cannot create result store at "
                             f"{self.root}: {exc}") from exc
        self._index_path = os.path.join(self.root, _INDEX_NAME)
        self._conn = self._open_index()

    # ------------------------------------------------------------------
    # index plumbing
    # ------------------------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self._index_path,
                               timeout=_SQLITE_TIMEOUT,
                               isolation_level=None)
        conn.execute("PRAGMA busy_timeout = "
                     f"{int(_SQLITE_TIMEOUT * 1000)}")
        conn.execute("PRAGMA synchronous = NORMAL")
        return conn

    def _open_index(self) -> sqlite3.Connection:
        try:
            conn = self._connect()
            self.schema_version = ensure_schema(conn)
            return conn
        except sqlite3.DatabaseError as exc:
            # a corrupt index is recoverable damage, not a fatal error:
            # set the file aside (audited below) and start empty — the
            # blobs it pointed at become orphans, i.e. misses
            moved = os.path.join(
                self._quarantine_dir,
                f"index.{int(time.time() * 1000)}.sqlite")
            try:
                os.replace(self._index_path, moved)
            except OSError:
                raise StoreError(
                    f"result store index at {self._index_path} is "
                    f"corrupt and could not be set aside: {exc}"
                    ) from exc
            conn = self._connect()
            self.schema_version = ensure_schema(conn)
            self._record_quarantine(conn, key="", reason="index-corrupt",
                                    detail=str(exc), moved_to=moved)
            return conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        row = self._conn.execute(
            "SELECT COUNT(*) FROM entries").fetchone()
        return int(row[0])

    # ------------------------------------------------------------------
    # keys and payloads
    # ------------------------------------------------------------------
    @staticmethod
    def _payload(qts: QuantumTransitionSystem, system: str, seed: str,
                 direction: str, bound: int, trace) -> dict:
        return {"schema": SCHEMA_VERSION,
                "system": system,
                "initial": seed,
                "direction": direction,
                "bound": int(bound),
                "num_qubits": qts.num_qubits,
                "dimension": trace.subspace.dimension,
                "iterations": trace.iterations,
                "basis": [to_dict(v) for v in trace.subspace.basis]}

    def _blob_path(self, key: str) -> str:
        return os.path.join(self._blob_dir, f"{key}.json")

    # ------------------------------------------------------------------
    # quarantine
    # ------------------------------------------------------------------
    @staticmethod
    def _record_quarantine(conn: sqlite3.Connection, key: str,
                           reason: str, detail: str = "",
                           moved_to: str = "") -> None:
        conn.execute("INSERT INTO quarantine VALUES (?, ?, ?, ?, ?)",
                     (time.time(), key, reason, detail, moved_to))

    def _quarantine(self, key: str, reason: str,
                    detail: str = "") -> None:
        """Set a bad entry aside: move blob, drop row, audit.

        Every step tolerates the artefact already being gone — two
        readers can race to quarantine the same corrupt blob, and the
        loser must degrade to a plain miss, not an exception.
        """
        moved_to = ""
        blob = self._blob_path(key)
        target = os.path.join(self._quarantine_dir, f"{key}.json")
        try:
            os.replace(blob, target)
            moved_to = target
        except OSError:
            pass  # already moved/deleted by a concurrent reader or gc
        try:
            self._conn.execute("DELETE FROM entries WHERE key=?", (key,))
            self._record_quarantine(self._conn, key, reason, detail,
                                    moved_to)
        except sqlite3.Error:
            pass  # the audit trail is best-effort; the miss is not

    def quarantine_records(self) -> List[dict]:
        rows = self._conn.execute(
            "SELECT at, key, reason, detail, moved_to FROM quarantine "
            "ORDER BY at").fetchall()
        return [{"at": at, "key": key, "reason": reason,
                 "detail": detail, "moved_to": moved_to}
                for at, key, reason, detail, moved_to in rows]

    # ------------------------------------------------------------------
    # the cache protocol (ReachabilityCache-compatible)
    # ------------------------------------------------------------------
    def lookup(self, qts: QuantumTransitionSystem, initial: Subspace,
               direction: str = "forward",
               bound: int = 0) -> Optional[Subspace]:
        """The stored reachable space, re-interned into ``qts``.

        The decoded vectors are adopted as the basis after a Gram-matrix
        check (:meth:`~repro.subspace.subspace.StateSpace.adopt`), so a
        healthy entry runs no Gram-Schmidt step; a basis that fails the
        check is spanned again instead.  Never raises on damaged
        entries: any failure between the index row and a verified,
        decoded basis of the recorded rank quarantines the entry and
        reports a miss.
        """
        key, system, seed = fixpoint_key(qts, initial, direction, bound)
        row = self._conn.execute(
            "SELECT checksum, dimension FROM entries WHERE key=?",
            (key,)).fetchone()
        if row is None:
            self.misses += 1
            return None
        checksum, dimension = row[0], int(row[1])
        try:
            with open(self._blob_path(key), "r",
                      encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            self._quarantine(key, "unreadable", f"{type(exc).__name__}: "
                                                f"{exc}")
            self.misses += 1
            return None
        digest = payload_digest(payload)
        if checksum and digest != checksum:
            self._quarantine(key, "checksum",
                             f"index {checksum[:12]}… != blob "
                             f"{digest[:12]}…")
            self.misses += 1
            return None
        try:
            if (payload["system"] != system
                    or payload["initial"] != seed
                    or payload["direction"] != direction
                    or int(payload["bound"]) != int(bound)
                    or int(payload["num_qubits"]) != qts.num_qubits):
                raise StoreError("blob describes a different fixpoint")
            basis = payload["basis"]
            if len(basis) != int(payload["dimension"]) \
                    or len(basis) != dimension:
                raise StoreError("basis length disagrees with the "
                                 "recorded dimension")
            vectors = [from_dict(qts.manager, data) for data in basis]
            result = qts.space.adopt(vectors)
            if result.dimension != dimension:
                raise StoreError("re-interned basis lost rank")
        except Exception as exc:  # noqa: BLE001 — miss, never a wrong answer
            self._quarantine(key, "decode", f"{type(exc).__name__}: "
                                            f"{exc}")
            self.misses += 1
            return None
        if not checksum:
            # lazy v0->v1 backfill: adopt the digest of a blob that
            # just read back clean (see migrate._migrate_v0_to_v1)
            self._conn.execute(
                "UPDATE entries SET checksum=? WHERE key=?",
                (digest, key))
        self._conn.execute(
            "UPDATE entries SET hits=hits+1, last_hit=? WHERE key=?",
            (time.time(), key))
        self.hits += 1
        return result

    def discard(self, qts: QuantumTransitionSystem, initial: Subspace,
                direction: str = "forward", bound: int = 0) -> None:
        """Quarantine the entry under this key with reason
        ``"witness"``: a verdict it served had no witness replaying
        from the initial space."""
        key, _, _ = fixpoint_key(qts, initial, direction, bound)
        self._quarantine(key, "witness", "witness did not replay")

    def store(self, qts: QuantumTransitionSystem, initial: Subspace,
              direction: str, bound: int, trace) -> bool:
        """Persist a finished fixpoint; returns True when written.

        Same key and admission rule as the in-memory cache
        (:func:`~repro.mc.reachability.admissible`).
        """
        if not admissible(trace, bound):
            return False
        key, system, seed = fixpoint_key(qts, initial, direction, bound)
        row = self._conn.execute("SELECT 1 FROM entries WHERE key=?",
                                 (key,)).fetchone()
        if row is not None:
            return False  # content-addressed: an existing entry is equal
        payload = self._payload(qts, system, seed, direction, bound,
                                trace)
        text = json.dumps(payload, indent=1, sort_keys=True)
        digest = payload_digest(payload)
        blob = self._blob_path(key)
        tmp = f"{blob}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, blob)  # the blob is complete before it is
        finally:                   # visible under its final name
            if os.path.exists(tmp):
                os.unlink(tmp)
        now = time.time()
        self._conn.execute(
            "INSERT OR REPLACE INTO entries VALUES "
            "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (key, system, seed, direction, int(bound), digest,
             qts.num_qubits, trace.subspace.dimension, trace.iterations,
             len(text.encode()), now, now, 0))
        if self.max_bytes is not None:
            self._evict_to_budget(self.max_bytes)
        return True

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def total_bytes(self) -> int:
        row = self._conn.execute(
            "SELECT COALESCE(SUM(bytes), 0) FROM entries").fetchone()
        return int(row[0])

    def _bump_meta_counter(self, key: str, amount: int) -> None:
        self._conn.execute(
            "INSERT INTO meta VALUES (?, ?) ON CONFLICT(key) DO UPDATE "
            "SET value = CAST(CAST(value AS INTEGER) + ? AS TEXT)",
            (key, str(amount), amount))

    def _meta_counter(self, key: str) -> int:
        row = self._conn.execute("SELECT value FROM meta WHERE key=?",
                                 (key,)).fetchone()
        return int(row[0]) if row is not None else 0

    def _evict_to_budget(self, max_bytes: int) -> Tuple[int, int]:
        """LRU-by-last-hit eviction down to ``max_bytes``; returns
        ``(entries evicted, bytes freed)``."""
        evicted = freed = 0
        while self.total_bytes() > max_bytes:
            row = self._conn.execute(
                "SELECT key, bytes FROM entries "
                "ORDER BY last_hit ASC, created ASC LIMIT 1").fetchone()
            if row is None:
                break
            key, size = row[0], int(row[1])
            self._conn.execute("DELETE FROM entries WHERE key=?",
                               (key,))
            try:
                os.unlink(self._blob_path(key))
            except OSError:
                pass  # a concurrent gc got there first
            evicted += 1
            freed += size
        if evicted:
            self._bump_meta_counter("evictions", evicted)
        return evicted, freed

    def gc(self, max_bytes: Optional[int] = None) -> GCReport:
        """Evict down to a byte budget and sweep orphan/temp files.

        ``max_bytes=None`` uses the store's standing budget (no
        eviction when neither is set); orphan blobs — complete files
        with no index row, the residue of a crash between blob write
        and index insert — are removed once older than
        :data:`ORPHAN_GRACE_SECONDS`.
        """
        before = self.total_bytes()
        budget = max_bytes if max_bytes is not None else self.max_bytes
        evicted = freed = 0
        if budget is not None:
            evicted, freed = self._evict_to_budget(budget)
        orphans = 0
        known = {row[0] for row in
                 self._conn.execute("SELECT key FROM entries")}
        cutoff = time.time() - ORPHAN_GRACE_SECONDS
        for name in os.listdir(self._blob_dir):
            path = os.path.join(self._blob_dir, name)
            stale_tmp = ".tmp." in name
            orphan = (name.endswith(".json")
                      and name[:-len(".json")] not in known)
            if not (stale_tmp or orphan):
                continue
            try:
                if os.path.getmtime(path) > cutoff:
                    continue
                os.unlink(path)
                orphans += 1
            except OSError:
                continue
        return GCReport(bytes_before=before,
                        bytes_after=self.total_bytes(),
                        evicted=evicted, bytes_freed=freed,
                        orphans_removed=orphans)

    def stats(self) -> StoreStats:
        total_hits = self._conn.execute(
            "SELECT COALESCE(SUM(hits), 0) FROM entries").fetchone()
        quarantined = self._conn.execute(
            "SELECT COUNT(*) FROM quarantine").fetchone()
        return StoreStats(entries=len(self),
                          total_bytes=self.total_bytes(),
                          hits=self.hits, misses=self.misses,
                          total_hits=int(total_hits[0]),
                          quarantined=int(quarantined[0]),
                          evictions=self._meta_counter("evictions"),
                          schema_version=self.schema_version,
                          root=self.root)

    def ls(self) -> List[dict]:
        """Index rows as dicts, most recently hit first."""
        rows = self._conn.execute(
            "SELECT key, system, initial, direction, bound, num_qubits,"
            " dimension, iterations, bytes, created, last_hit, hits "
            "FROM entries ORDER BY last_hit DESC, created DESC")
        names = ("key", "system", "initial", "direction", "bound",
                 "num_qubits", "dimension", "iterations", "bytes",
                 "created", "last_hit", "hits")
        return [dict(zip(names, row)) for row in rows]

    # ------------------------------------------------------------------
    # export / import
    # ------------------------------------------------------------------
    def export_file(self, path: str) -> int:
        """Write every entry's payload to one JSON file; returns count.

        Entries whose blob fails integrity on the way out are
        quarantined and skipped — an export never launders corruption
        into another store.
        """
        payloads: List[dict] = []
        for row in self.ls():
            key, checksum = row["key"], None
            checksum_row = self._conn.execute(
                "SELECT checksum FROM entries WHERE key=?",
                (key,)).fetchone()
            if checksum_row is None:
                continue
            checksum = checksum_row[0]
            try:
                with open(self._blob_path(key), "r",
                          encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, ValueError) as exc:
                self._quarantine(key, "unreadable",
                                 f"export: {type(exc).__name__}: {exc}")
                continue
            if checksum and payload_digest(payload) != checksum:
                self._quarantine(key, "checksum", "export")
                continue
            payloads.append(payload)
        bundle = {"schema": SCHEMA_VERSION, "kind": "repro-result-store",
                  "entries": payloads}
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(bundle, handle, indent=1, sort_keys=True)
        os.replace(tmp, path)
        return len(payloads)

    def import_file(self, path: str) -> Tuple[int, int]:
        """Merge an exported bundle; returns ``(imported, skipped)``.

        Entries already present (same content address) are skipped;
        malformed bundle structure raises :class:`StoreError`, while a
        single malformed entry is skipped (imports are additive and
        must not be all-or-nothing).
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                bundle = json.load(handle)
        except (OSError, ValueError) as exc:
            raise StoreError(f"cannot read store export {path}: "
                             f"{exc}") from exc
        if (not isinstance(bundle, dict)
                or bundle.get("kind") != "repro-result-store"
                or not isinstance(bundle.get("entries"), list)):
            raise StoreError(f"{path} is not a result-store export")
        if int(bundle.get("schema", 0)) > SCHEMA_VERSION:
            raise StoreError(
                f"export {path} has schema "
                f"{bundle.get('schema')} > supported {SCHEMA_VERSION}")
        imported = skipped = 0
        for payload in bundle["entries"]:
            try:
                key = entry_key(payload["system"], payload["initial"],
                                payload["direction"],
                                int(payload["bound"]))
                basis = payload["basis"]
                assert len(basis) == int(payload["dimension"])
            except (KeyError, TypeError, ValueError, AssertionError):
                skipped += 1
                continue
            row = self._conn.execute(
                "SELECT 1 FROM entries WHERE key=?", (key,)).fetchone()
            if row is not None:
                skipped += 1
                continue
            text = json.dumps(payload, indent=1, sort_keys=True)
            blob = self._blob_path(key)
            tmp = f"{blob}.tmp.{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, blob)
            now = time.time()
            self._conn.execute(
                "INSERT OR REPLACE INTO entries VALUES "
                "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (key, payload["system"], payload["initial"],
                 payload["direction"], int(payload["bound"]),
                 payload_digest(payload), int(payload["num_qubits"]),
                 int(payload["dimension"]),
                 int(payload.get("iterations", 0)),
                 len(text.encode()), now, now, 0))
            imported += 1
        if self.max_bytes is not None:
            self._evict_to_budget(self.max_bytes)
        return imported, skipped

    def __repr__(self) -> str:
        return (f"ResultStore({self.root!r}, entries={len(self)}, "
                f"hits={self.hits}, misses={self.misses})")
