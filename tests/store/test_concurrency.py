"""Multi-process hammering: one directory, many writers and readers.

Several worker processes race lookup-or-compute-and-store cycles over
a handful of distinct keys in one store directory, one of them
additionally vandalising blobs mid-flight.  The contract under test:
no worker ever crashes or observes a wrong subspace (a partially
written or damaged blob must surface as a miss), and afterwards the
index passes SQLite's integrity check with every surviving row's blob
verifying against its recorded checksum.
"""

from __future__ import annotations

import json
import os
import random
import sqlite3
from concurrent.futures import ProcessPoolExecutor

from repro.mc.config import CheckerConfig
from repro.mc.reachability import reachable_space
from repro.store import ResultStore
from repro.systems import models
from repro.tdd.io import payload_digest

#: the basic image method (no partitioning)
BASIC = CheckerConfig(method="basic")

#: one key per initial basis state — all cheap 3-qubit ghz fixpoints
VARIANTS = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]


def _build(variant):
    qts = models.ghz_qts(3)
    qts.set_initial_basis_states([list(variant)])
    return qts


def _expected_dimensions():
    return {tuple(v): reachable_space(_build(v), BASIC).dimension
            for v in VARIANTS}


def _hammer(root: str, seed: int, rounds: int, vandal: bool) -> dict:
    """One worker's life; returns its tally (raises = test failure)."""
    rng = random.Random(seed)
    expected = _expected_dimensions()
    tally = {"hits": 0, "misses": 0, "stores": 0, "vandalised": 0}
    with ResultStore(root) as store:
        for _ in range(rounds):
            variant = rng.choice(VARIANTS)
            qts = _build(variant)
            warm = store.lookup(qts, qts.initial)
            if warm is not None:
                # the one property that must never break: a served
                # subspace is the right subspace
                assert warm.dimension == expected[tuple(variant)], \
                    f"wrong answer served for {variant}"
                tally["hits"] += 1
            else:
                tally["misses"] += 1
                trace = reachable_space(qts, BASIC, warm_start=warm)
                if store.store(qts, qts.initial, "forward", 0, trace):
                    tally["stores"] += 1
            if vandal and rng.random() < 0.4:
                blob_dir = os.path.join(root, "blobs")
                blobs = [n for n in os.listdir(blob_dir)
                         if n.endswith(".json")]
                if blobs:
                    path = os.path.join(blob_dir, rng.choice(blobs))
                    try:
                        with open(path, "r+", encoding="utf-8") as fh:
                            fh.truncate(max(1, os.path.getsize(path)
                                            // 2))
                        tally["vandalised"] += 1
                    except OSError:
                        pass  # lost a race with quarantine/eviction
            if rng.random() < 0.2:
                store.gc()
    return tally


def _verify_store_consistent(root: str) -> int:
    """Index passes integrity_check; every row's blob verifies."""
    conn = sqlite3.connect(os.path.join(root, "index.sqlite"))
    assert conn.execute("PRAGMA integrity_check").fetchone()[0] == "ok"
    rows = conn.execute(
        "SELECT key, checksum FROM entries").fetchall()
    conn.close()
    for key, checksum in rows:
        blob = os.path.join(root, "blobs", f"{key}.json")
        with open(blob, "r", encoding="utf-8") as handle:
            payload = json.load(handle)  # complete, parseable
        assert payload_digest(payload) == checksum, \
            f"index/blob mismatch for {key}"
    return len(rows)


def test_two_processes_same_store(tmp_path):
    root = str(tmp_path / "store")
    with ProcessPoolExecutor(max_workers=2) as pool:
        tallies = list(pool.map(_hammer, [root] * 2, [11, 22],
                                [12] * 2, [False] * 2))
    assert all(t["hits"] + t["misses"] == 12 for t in tallies)
    # every variant got computed by somebody and the index agrees
    assert _verify_store_consistent(root) == len(VARIANTS)
    with ResultStore(root) as store:
        for variant in VARIANTS:
            qts = _build(variant)
            assert store.lookup(qts, qts.initial) is not None


def test_hammering_with_a_vandal(tmp_path):
    # three honest workers plus one that truncates random blobs while
    # they read: nobody crashes, nobody serves a partial blob, and the
    # store is internally consistent afterwards
    root = str(tmp_path / "store")
    with ProcessPoolExecutor(max_workers=4) as pool:
        tallies = list(pool.map(_hammer, [root] * 4, [1, 2, 3, 4],
                                [10] * 4, [False, False, False, True]))
    assert sum(t["stores"] for t in tallies) >= len(VARIANTS)
    expected = _expected_dimensions()
    with ResultStore(root) as store:
        # reading every key flushes out any at-rest damage the vandal
        # left behind: each lookup is either the right subspace or a
        # miss that quarantines the broken blob — never a wrong answer
        for variant in VARIANTS:
            qts = _build(variant)
            warm = store.lookup(qts, qts.initial)
            if warm is None:  # vandalised away — a cold run restores it
                trace = reachable_space(qts, BASIC)
                store.store(qts, qts.initial, "forward", 0, trace)
                warm = store.lookup(qts, qts.initial)
            assert warm is not None
            assert warm.dimension == expected[tuple(variant)]
        store.quarantine_records()  # the audit table stays readable
    # with the damage quarantined, what remains is fully consistent
    assert _verify_store_consistent(root) == len(VARIANTS)
