"""Fault injection: every kind of damage is a miss, never a wrong answer.

Each test corrupts one artefact of a healthy store — blob truncated,
blob bit-flipped, blob deleted, index row deleted, whole index
clobbered — reopens it the way a fresh process would, and checks the
same three-part contract: the lookup returns ``None`` (miss), a
quarantine record documents what happened, and no exception escapes.
A subsequent cold run then repopulates the entry.
"""

from __future__ import annotations

import glob
import json
import os
import sqlite3

import pytest

from repro.mc.config import CheckerConfig
from repro.mc.reachability import reachable_space
from repro.store import ResultStore
from repro.systems import models
from repro.tdd.io import from_dict, payload_digest, to_dict
from tests.helpers import subspace_to_dense

#: the basic image method (no partitioning)
BASIC = CheckerConfig(method="basic")


@pytest.fixture
def populated(tmp_path):
    """A store directory holding one qrw(3) fixpoint, plus its trace."""
    root = str(tmp_path / "store")
    qts = models.qrw_qts(3, 0.2)
    trace = reachable_space(qts, BASIC)
    with ResultStore(root) as st:
        assert st.store(qts, qts.initial, "forward", 0, trace)
        (key,) = [row["key"] for row in st.ls()]
    return root, key, trace


def _blob_path(root: str, key: str) -> str:
    return os.path.join(root, "blobs", f"{key}.json")


def _assert_miss_quarantine_recover(root, key, trace, reason):
    """The shared postcondition of every corruption scenario."""
    with ResultStore(root) as st:
        qts = models.qrw_qts(3, 0.2)
        assert st.lookup(qts, qts.initial) is None
        assert st.misses == 1
        records = st.quarantine_records()
        assert any(r["reason"] == reason and r["key"] == key
                   for r in records)
        # the damaged entry is gone from the index, so a cold run can
        # repopulate the same key and serve it again
        fresh = reachable_space(qts, BASIC)
        assert st.store(qts, qts.initial, "forward", 0, fresh)
        warm = st.lookup(qts, qts.initial)
        assert warm is not None
        assert subspace_to_dense(warm).equals(
            subspace_to_dense(trace.subspace))


class TestBlobDamage:
    def test_truncated_blob(self, populated):
        root, key, trace = populated
        blob = _blob_path(root, key)
        with open(blob, "r+", encoding="utf-8") as handle:
            handle.truncate(os.path.getsize(blob) // 2)
        _assert_miss_quarantine_recover(root, key, trace, "unreadable")
        # the damaged blob is preserved for post-mortem, not deleted
        assert os.path.exists(
            os.path.join(root, "quarantine", f"{key}.json"))

    def test_bit_flipped_weight(self, populated):
        # JSON stays parseable — only the checksum can catch this
        root, key, trace = populated
        blob = _blob_path(root, key)
        with open(blob, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        text = json.dumps(payload, indent=1, sort_keys=True)
        for i, ch in enumerate(text):
            if ch.isdigit():
                flipped = text[:i] + str((int(ch) + 1) % 10) + text[i + 1:]
                break
        with open(blob, "w", encoding="utf-8") as handle:
            handle.write(flipped)
        _assert_miss_quarantine_recover(root, key, trace, "checksum")

    def test_blob_deleted_index_kept(self, populated):
        root, key, trace = populated
        os.unlink(_blob_path(root, key))
        _assert_miss_quarantine_recover(root, key, trace, "unreadable")

    def test_blob_swapped_for_other_fixpoint(self, populated):
        # a well-formed blob describing a *different* fixpoint must not
        # be served under this key, digest aside: regenerate a valid
        # payload for another system and splice it in with a matching
        # index checksum
        root, key, trace = populated
        other_root = root + ".other"
        ghz = models.ghz_qts(3)
        with ResultStore(other_root) as other:
            other.store(ghz, ghz.initial, "forward", 0,
                        reachable_space(ghz, BASIC))
            (other_key,) = [row["key"] for row in other.ls()]
        os.replace(_blob_path(other_root, other_key),
                   _blob_path(root, key))
        conn = sqlite3.connect(os.path.join(root, "index.sqlite"))
        checksum = conn.execute(
            "ATTACH ? AS other", (os.path.join(other_root,
                                               "index.sqlite"),)
        ) and conn.execute(
            "SELECT checksum FROM other.entries").fetchone()[0]
        conn.execute("UPDATE entries SET checksum=?", (checksum,))
        conn.commit()
        conn.close()
        _assert_miss_quarantine_recover(root, key, trace, "decode")


def _rewrite_basis(root, key, damage):
    """Replace the blob's basis by ``damage(basis)`` under an honest
    checksum, so only the decode checks stand between it and a hit."""
    blob = _blob_path(root, key)
    with open(blob, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    payload["basis"] = damage(payload["basis"])
    with open(blob, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    conn = sqlite3.connect(os.path.join(root, "index.sqlite"))
    conn.execute("UPDATE entries SET checksum=? WHERE key=?",
                 (payload_digest(payload), key))
    conn.commit()
    conn.close()


class TestBasisDamage:
    def test_scaled_vector_is_spanned_again(self, populated):
        # not orthonormal, still the right span: the Gram check refuses
        # to adopt it and Gram-Schmidt serves the stored space
        root, key, trace = populated
        scratch = models.qrw_qts(3, 0.2).manager

        def scale_first(basis):
            vector = from_dict(scratch, basis[0]).scaled(2)
            return [to_dict(vector)] + basis[1:]

        _rewrite_basis(root, key, scale_first)
        with ResultStore(root) as st:
            qts = models.qrw_qts(3, 0.2)
            warm = st.lookup(qts, qts.initial)
            assert warm is not None and st.hits == 1
            assert st.quarantine_records() == []
            assert subspace_to_dense(warm).equals(
                subspace_to_dense(trace.subspace))

    def test_duplicated_vector_is_quarantined(self, populated):
        root, key, trace = populated
        _rewrite_basis(root, key, lambda basis: [basis[0]] + basis[:-1])
        _assert_miss_quarantine_recover(root, key, trace, "decode")


class TestIndexDamage:
    def test_index_deleted_blobs_kept(self, populated):
        # orphan blobs are invisible: no row, no answer — and gc only
        # reaps them after the grace period
        root, key, trace = populated
        os.unlink(os.path.join(root, "index.sqlite"))
        with ResultStore(root) as st:
            qts = models.qrw_qts(3, 0.2)
            assert st.lookup(qts, qts.initial) is None
            assert len(st) == 0
            report = st.gc()
            assert report.orphans_removed == 0  # inside grace period
            assert os.path.exists(_blob_path(root, key))

    def test_index_clobbered_with_garbage(self, populated):
        root, key, trace = populated
        with open(os.path.join(root, "index.sqlite"), "wb") as handle:
            handle.write(b"this is not a sqlite database at all")
        with ResultStore(root) as st:
            qts = models.qrw_qts(3, 0.2)
            assert st.lookup(qts, qts.initial) is None
            records = st.quarantine_records()
            assert any(r["reason"] == "index-corrupt" for r in records)
            # the bad file was set aside for post-mortem
            moved = [r["moved_to"] for r in records
                     if r["reason"] == "index-corrupt"]
            assert moved and os.path.exists(moved[0])
            # and the store works again immediately
            fresh = reachable_space(qts, BASIC)
            assert st.store(qts, qts.initial, "forward", 0, fresh)
            assert st.lookup(qts, qts.initial) is not None

    def test_row_deleted_blob_kept(self, populated):
        root, key, trace = populated
        conn = sqlite3.connect(os.path.join(root, "index.sqlite"))
        conn.execute("DELETE FROM entries WHERE key=?", (key,))
        conn.commit()
        conn.close()
        with ResultStore(root) as st:
            qts = models.qrw_qts(3, 0.2)
            assert st.lookup(qts, qts.initial) is None
            # repopulating reuses the key; the orphan blob is simply
            # overwritten by the atomic rename
            fresh = reachable_space(qts, BASIC)
            assert st.store(qts, qts.initial, "forward", 0, fresh)
            assert st.lookup(qts, qts.initial) is not None


class TestCrashResidue:
    def test_stale_tmp_files_never_served_and_swept(self, populated):
        # the residue of a writer that died between write and rename
        root, key, trace = populated
        stale = _blob_path(root, key) + ".tmp.99999"
        with open(stale, "w", encoding="utf-8") as handle:
            handle.write('{"partial":')
        past = os.path.getmtime(stale) - 3600
        os.utime(stale, (past, past))
        with ResultStore(root) as st:
            qts = models.qrw_qts(3, 0.2)
            assert st.lookup(qts, qts.initial) is not None  # unaffected
            report = st.gc()
            assert report.orphans_removed == 1
        assert not os.path.exists(stale)
        assert glob.glob(os.path.join(root, "blobs", "*.tmp.*")) == []
