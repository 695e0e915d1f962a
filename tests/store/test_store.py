"""The disk-backed result store: API, persistence, budget, bundles.

Corruption/fault-injection lives in ``test_corruption.py``; the
multi-process hammering in ``test_concurrency.py``; round-trip
property tests in ``tests/property/test_store_roundtrip.py``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time

import pytest

from repro.errors import StoreError
from repro.mc.checker import ModelChecker
from repro.mc.config import CheckerConfig
from repro.mc.reachability import ReachabilityCache, reachable_space
from repro.store import SCHEMA_VERSION, ResultStore
from repro.store.migrate import ensure_schema
from repro.subspace.subspace import Subspace
from repro.systems import models
from tests.helpers import subspace_to_dense

#: the basic image method (no partitioning)
BASIC = CheckerConfig(method="basic")
#: the contraction method with small partition blocks
CONTRACTION_K2 = CheckerConfig(method="contraction",
                               method_params={"k1": 2, "k2": 2})


@pytest.fixture
def store(tmp_path):
    with ResultStore(tmp_path / "store") as st:
        yield st


def _populated(store, build=lambda: models.qrw_qts(3, 0.2)):
    qts = build()
    trace = reachable_space(qts, BASIC)
    assert store.store(qts, qts.initial, "forward", 0, trace)
    return qts, trace


class TestStoreBasics:
    def test_miss_then_hit_across_instances(self, tmp_path, store):
        qts, trace = _populated(store)
        assert store.lookup(models.ghz_qts(3),
                            models.ghz_qts(3).initial) is None
        store.close()
        # a fresh process would see exactly this: new instance, new
        # manager, same directory
        with ResultStore(tmp_path / "store") as reopened:
            rebuilt = models.qrw_qts(3, 0.2)
            warm = reopened.lookup(rebuilt, rebuilt.initial)
            assert warm is not None
            assert warm.space is rebuilt.space
            assert subspace_to_dense(warm).equals(
                subspace_to_dense(trace.subspace))
            assert reopened.hits == 1

    def test_store_is_idempotent_per_key(self, store):
        qts, trace = _populated(store)
        assert len(store) == 1
        assert store.store(qts, qts.initial, "forward", 0,
                           trace) is False
        assert len(store) == 1

    def test_admission_rule_judges_the_trace(self, store):
        # same regression as the in-memory cache: a bounded or
        # truncated trace must be refused even when the caller claims
        # bound=0
        qts = models.qrw_qts(3, 0.2)
        bounded = reachable_space(qts, CheckerConfig(method="basic", bound=1))
        truncated = reachable_space(qts, BASIC, max_iterations=1)
        assert store.store(qts, qts.initial, "forward", 0,
                           bounded) is False
        assert store.store(qts, qts.initial, "forward", 0,
                           truncated) is False
        assert store.store(qts, qts.initial, "forward", 1,
                           bounded) is False
        assert len(store) == 0

    def test_bounded_query_misses_unbounded_entry(self, store):
        qts, _ = _populated(store)
        assert store.lookup(qts, qts.initial, bound=2) is None
        assert store.lookup(qts, qts.initial, bound=0) is not None

    def test_warm_start_collapses_iterations(self, store):
        qts, cold = _populated(store)
        assert cold.iterations > 1
        rebuilt = models.qrw_qts(3, 0.2)
        warm_space = store.lookup(rebuilt, rebuilt.initial)
        warm = reachable_space(rebuilt, CONTRACTION_K2, warm_start=warm_space)
        assert warm.iterations == 1
        assert warm.converged
        assert warm.dimension == cold.dimension

    @pytest.mark.parametrize("kind", ["disk", "memory"])
    def test_healthy_hit_adopts_the_stored_basis(self, kind, store,
                                                 monkeypatch):
        cache = store if kind == "disk" else ReachabilityCache()
        qts, cold = _populated(cache)
        rebuilt = models.qrw_qts(3, 0.2)

        def refuse(self, *args, **kwargs):
            raise AssertionError("a healthy hit ran Gram-Schmidt")

        monkeypatch.setattr(Subspace, "add_state", refuse)
        warm_space = cache.lookup(rebuilt, rebuilt.initial)
        assert warm_space.dimension == cold.dimension
        monkeypatch.undo()
        warm = reachable_space(rebuilt, BASIC, warm_start=warm_space)
        # the stored basis is the seed's prefix; the initial state only
        # gets screened against it
        assert warm.subspace.basis[:cold.dimension] == warm_space.basis
        assert warm.dimensions == [cold.dimension, cold.dimension]

    def test_checker_protocol_and_source_attribution(self, tmp_path):
        assert ResultStore.source == "disk"
        config = CheckerConfig(method="basic")
        with ResultStore(tmp_path / "store") as st:
            cold = ModelChecker(models.grover_qts(3), config).check(
                "AG inv", reach_cache=st)
        with ResultStore(tmp_path / "store") as st:
            warm = ModelChecker(models.grover_qts(3), config).check(
                "AG inv", reach_cache=st)
        assert cold.stats.extra["cache_warm"] is False
        assert warm.stats.extra["cache_warm"] is True
        assert warm.stats.extra["cache_source"] == "disk"
        assert warm.holds == cold.holds
        assert warm.reachable_dimension == cold.reachable_dimension

    def test_ls_and_stats_shape(self, store):
        qts, trace = _populated(store)
        assert store.lookup(qts, qts.initial) is not None
        rows = store.ls()
        assert len(rows) == 1
        row = rows[0]
        assert row["dimension"] == trace.dimension
        assert row["num_qubits"] == qts.num_qubits
        assert row["direction"] == "forward"
        assert row["bound"] == 0
        assert row["hits"] == 1
        assert row["bytes"] > 0
        stats = store.stats()
        assert stats.entries == 1
        assert stats.total_bytes == row["bytes"]
        assert stats.hits == 1 and stats.misses == 0
        assert stats.total_hits == 1
        assert stats.schema_version == SCHEMA_VERSION
        assert stats.quarantined == 0


class TestEvictionAndGC:
    def test_lru_eviction_respects_last_hit(self, tmp_path):
        with ResultStore(tmp_path / "store") as st:
            first = models.ghz_qts(3)
            first_trace = reachable_space(first, BASIC)
            st.store(first, first.initial, "forward", 0, first_trace)
            second = models.qrw_qts(3, 0.2)
            st.store(second, second.initial, "forward", 0,
                     reachable_space(second, BASIC))
            # make `first` the more recently hit entry, then shrink the
            # budget so only one survives
            st._conn.execute("UPDATE entries SET last_hit = last_hit"
                             " - 1000")
            assert st.lookup(first, first.initial) is not None
            report = st.gc(max_bytes=st.ls()[0]["bytes"])
            assert report.evicted >= 1
            assert st.lookup(first, first.initial) is not None
            assert st.lookup(second, second.initial) is None
            assert st.stats().evictions == report.evicted

    def test_standing_budget_enforced_on_store(self, tmp_path):
        with ResultStore(tmp_path / "store", max_bytes=1) as st:
            qts = models.ghz_qts(3)
            st.store(qts, qts.initial, "forward", 0,
                     reachable_space(qts, BASIC))
            assert len(st) == 0
            assert st.stats().evictions == 1

    def test_gc_sweeps_aged_orphans_but_not_fresh_ones(self, store):
        _populated(store)
        blob_dir = os.path.join(store.root, "blobs")
        fresh = os.path.join(blob_dir, "0" * 64 + ".json")
        aged = os.path.join(blob_dir, "1" * 64 + ".json")
        stale_tmp = os.path.join(blob_dir, "2" * 64 + ".json.tmp.999")
        for path in (fresh, aged, stale_tmp):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("{}")
        past = time.time() - 3600
        os.utime(aged, (past, past))
        os.utime(stale_tmp, (past, past))
        report = store.gc()
        assert report.orphans_removed == 2
        assert os.path.exists(fresh)          # inside the grace period
        assert not os.path.exists(aged)
        assert not os.path.exists(stale_tmp)
        assert len(store) == 1                # real entry untouched

    def test_negative_budget_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            ResultStore(tmp_path / "store", max_bytes=-1)


class TestExportImport:
    def test_bundle_round_trip(self, tmp_path, store):
        qts, trace = _populated(store)
        bundle = tmp_path / "bundle.json"
        assert store.export_file(str(bundle)) == 1
        with ResultStore(tmp_path / "other") as other:
            assert other.import_file(str(bundle)) == (1, 0)
            # re-import is additive, not duplicating
            assert other.import_file(str(bundle)) == (0, 1)
            rebuilt = models.qrw_qts(3, 0.2)
            warm = other.lookup(rebuilt, rebuilt.initial)
            assert warm is not None
            assert subspace_to_dense(warm).equals(
                subspace_to_dense(trace.subspace))

    def test_import_rejects_foreign_files(self, tmp_path, store):
        not_a_bundle = tmp_path / "junk.json"
        not_a_bundle.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(StoreError):
            store.import_file(str(not_a_bundle))
        with pytest.raises(StoreError):
            store.import_file(str(tmp_path / "missing.json"))

    def test_import_skips_malformed_entries(self, tmp_path, store):
        _populated(store)
        bundle = tmp_path / "bundle.json"
        store.export_file(str(bundle))
        data = json.loads(bundle.read_text())
        data["entries"].append({"system": "x"})  # missing fields
        bundle.write_text(json.dumps(data))
        with ResultStore(tmp_path / "other") as other:
            assert other.import_file(str(bundle)) == (1, 1)

    def test_import_refuses_newer_schema(self, tmp_path, store):
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps({
            "kind": "repro-result-store",
            "schema": SCHEMA_VERSION + 1, "entries": []}))
        with pytest.raises(StoreError):
            store.import_file(str(bundle))


def _make_v0_store(root, qts, trace) -> str:
    """Hand-build a pre-versioning (v0) store directory."""
    from repro.store.store import entry_key
    from repro.mc.reachability import (subspace_fingerprint,
                                       system_fingerprint)
    from repro.tdd.io import to_dict
    os.makedirs(os.path.join(root, "blobs"))
    system = system_fingerprint(qts)
    seed = subspace_fingerprint(qts.initial)
    key = entry_key(system, seed, "forward", 0)
    payload = {"schema": 1, "system": system, "initial": seed,
               "direction": "forward", "bound": 0,
               "num_qubits": qts.num_qubits,
               "dimension": trace.subspace.dimension,
               "iterations": trace.iterations,
               "basis": [to_dict(v) for v in trace.subspace.basis]}
    text = json.dumps(payload, indent=1, sort_keys=True)
    with open(os.path.join(root, "blobs", f"{key}.json"), "w",
              encoding="utf-8") as handle:
        handle.write(text)
    conn = sqlite3.connect(os.path.join(root, "index.sqlite"))
    # v0 layout: entries without checksum, no meta, no quarantine
    conn.execute("""
        CREATE TABLE entries (
            key TEXT PRIMARY KEY, system TEXT NOT NULL,
            initial TEXT NOT NULL, direction TEXT NOT NULL,
            bound INTEGER NOT NULL, num_qubits INTEGER NOT NULL,
            dimension INTEGER NOT NULL, iterations INTEGER NOT NULL,
            bytes INTEGER NOT NULL, created REAL NOT NULL,
            last_hit REAL NOT NULL, hits INTEGER NOT NULL DEFAULT 0
        )""")
    now = time.time()
    conn.execute("INSERT INTO entries VALUES "
                 "(?, ?, ?, ?, 0, ?, ?, ?, ?, ?, ?, 0)",
                 (key, system, seed, "forward", qts.num_qubits,
                  trace.subspace.dimension, trace.iterations,
                  len(text.encode()), now, now))
    conn.commit()
    conn.close()
    return key


class TestMigration:
    def test_v0_store_upgrades_and_serves(self, tmp_path):
        root = str(tmp_path / "legacy")
        qts = models.qrw_qts(3, 0.2)
        trace = reachable_space(qts, BASIC)
        key = _make_v0_store(root, qts, trace)
        with ResultStore(root) as st:
            assert st.schema_version == SCHEMA_VERSION
            # checksum is lazily backfilled on the first verified read
            row = st._conn.execute(
                "SELECT checksum FROM entries WHERE key=?",
                (key,)).fetchone()
            assert row[0] == ""
            rebuilt = models.qrw_qts(3, 0.2)
            warm = st.lookup(rebuilt, rebuilt.initial)
            assert warm is not None
            assert subspace_to_dense(warm).equals(
                subspace_to_dense(trace.subspace))
            row = st._conn.execute(
                "SELECT checksum FROM entries WHERE key=?",
                (key,)).fetchone()
            assert len(row[0]) == 64  # digest adopted
        # and the adopted checksum now guards the blob like a v1 one
        with ResultStore(root) as st:
            assert st.lookup(models.qrw_qts(3, 0.2),
                             models.qrw_qts(3, 0.2).initial) is not None

    def test_migration_is_idempotent(self, tmp_path):
        root = str(tmp_path / "legacy")
        qts = models.ghz_qts(3)
        _make_v0_store(root, qts, reachable_space(qts, BASIC))
        for _ in range(3):
            with ResultStore(root) as st:
                assert st.schema_version == SCHEMA_VERSION
                assert len(st) == 1

    def test_newer_schema_refused_loudly(self, tmp_path):
        root = tmp_path / "future"
        root.mkdir()
        conn = sqlite3.connect(root / "index.sqlite")
        ensure_schema(conn)
        conn.execute("UPDATE meta SET value=? WHERE key='schema_version'",
                     (str(SCHEMA_VERSION + 1),))
        conn.commit()
        conn.close()
        with pytest.raises(StoreError, match="newer"):
            ResultStore(str(root))
