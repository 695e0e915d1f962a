"""Store round-trip properties: persist, reload, and nothing changes.

Three layers, from codec to fixpoint:

* random TDDs survive the ``tdd/io`` dict codec that the store
  serialises payloads through — including a detour through canonical
  JSON text, which is exactly what lands on disk — while a blob
  carrying the removed vector-weight form is a quarantined miss;
* random small subspaces written to a :class:`ResultStore` come back
  dense-identical from a fresh instance with a fresh manager;
* a warm start loaded from disk reproduces the cold fixpoint — same
  subspace, one confirming iteration — on the multi-Kraus table-1
  families (bitflip syndrome extraction, depolarizing-noise GHZ).
"""

from __future__ import annotations

import json
import sqlite3
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.mc.reachability import ReachabilityTrace, reachable_space
from repro.store import ResultStore
from repro.systems import models
from repro.systems.noise import noisy_operation
from repro.systems.qts import QuantumTransitionSystem
from repro.tdd import construction as tc
from repro.tdd.io import canonical_json, from_dict, payload_digest, \
    to_dict
from repro.indices.index import Index
from repro.mc.config import CheckerConfig
from tests.helpers import fresh_manager, subspace_to_dense

#: the basic image method (no partitioning)
BASIC = CheckerConfig(method="basic")

N_QUBITS = 2
DIM = 2 ** N_QUBITS

#: well-separated amplitudes (see test_subspace_properties) so span
#: rank decisions stay away from the tolerance threshold
GRID = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
COMPLEX_GRID = st.tuples(GRID, GRID).map(lambda p: complex(*p))


def _roundtrip(manager, tdd):
    """dict -> canonical JSON text -> parsed dict -> re-interned TDD."""
    data = json.loads(canonical_json(to_dict(tdd)))
    return from_dict(manager, data)


class TestCodecRoundTrip:
    @given(arrays(np.complex128, (DIM,), elements=COMPLEX_GRID))
    def test_scalar_weights(self, amplitudes):
        m = fresh_manager(["a0", "a1"])
        t = tc.from_numpy(m, amplitudes.reshape(2, 2),
                          [Index("a0"), Index("a1")])
        m2 = fresh_manager(["a0", "a1"])
        back = _roundtrip(m2, t)
        assert np.allclose(back.to_numpy(), t.to_numpy())
        # content addressing depends on the codec being deterministic
        assert payload_digest(to_dict(back)) == payload_digest(to_dict(t))

    def test_vector_weight_blob_is_a_decode_miss(self, tmp_path):
        # an entry written while the batched kernel existed may carry
        # {"re": [...], "im": [...]} weight vectors under an honest
        # checksum; the codec refuses them, so the lookup quarantines
        # the entry as a decode failure and reports a miss
        root = tmp_path / "store"
        qts = models.qrw_qts(3, 0.2)
        with ResultStore(root) as store:
            assert store.store(qts, qts.initial, "forward", 0,
                               reachable_space(qts, BASIC))
            (key,) = [row["key"] for row in store.ls()]
        blob = root / "blobs" / f"{key}.json"
        payload = json.loads(blob.read_text(encoding="utf-8"))
        re, im = payload["basis"][0]["root_weight"]
        payload["basis"][0]["root_weight"] = {"re": [re, re],
                                              "im": [im, im]}
        blob.write_text(canonical_json(payload), encoding="utf-8")
        conn = sqlite3.connect(root / "index.sqlite")
        conn.execute("UPDATE entries SET checksum=? WHERE key=?",
                     (payload_digest(payload), key))
        conn.commit()
        conn.close()
        rebuilt = models.qrw_qts(3, 0.2)
        with ResultStore(root) as store:
            assert store.lookup(rebuilt, rebuilt.initial) is None
            assert store.misses == 1
            (record,) = store.quarantine_records()
        assert record["key"] == key
        assert record["reason"] == "decode"
        assert "batched" in record["detail"]


class TestSubspaceRoundTrip:
    @given(st.lists(arrays(np.float64, (DIM,), elements=GRID),
                    min_size=1, max_size=3))
    @settings(max_examples=15)
    def test_random_subspace_survives_the_store(self, raw_vectors):
        def span(qts):
            states = [qts.space.from_amplitudes(v.astype(complex))
                      for v in raw_vectors
                      if np.linalg.norm(v) > 1e-6]
            return qts.space.span(states)

        qts = models.ghz_qts(N_QUBITS)
        subspace = span(qts)
        if subspace.dimension == 0:
            return  # nothing to persist
        trace = ReachabilityTrace(subspace=subspace, converged=True)
        with tempfile.TemporaryDirectory() as tmp:
            with ResultStore(tmp) as store:
                assert store.store(qts, subspace, "forward", 0, trace)
            rebuilt = models.ghz_qts(N_QUBITS)
            with ResultStore(tmp) as store:
                warm = store.lookup(rebuilt, span(rebuilt))
            assert warm is not None
            assert warm.space is rebuilt.space
            assert warm.dimension == subspace.dimension
            assert subspace_to_dense(warm).equals(
                subspace_to_dense(subspace))


def _noisy_ghz() -> QuantumTransitionSystem:
    """A four-branch depolarizing variant of the GHZ preparation."""
    base = models.ghz_qts(3)
    circuit = base.operations[0].kraus_circuits[0]
    op = noisy_operation("g", circuit, position=1, qubit=0,
                         channel="depolarizing", parameter=0.25)
    qts = QuantumTransitionSystem(base.num_qubits, [op],
                                  name="noisy_ghz")
    qts.set_initial_basis_states([[0] * base.num_qubits])
    return qts


FAMILIES = {
    "bitflip": lambda: models.bitflip_qts(),
    "noisy_ghz": _noisy_ghz,
}


class TestWarmEqualsCold:
    def _assert_warm_equals_cold(self, tmp_path, build):
        cold_qts = build()
        cold = reachable_space(cold_qts, CheckerConfig(method="contraction"))
        assert cold.converged
        with ResultStore(tmp_path / "store") as store:
            assert store.store(cold_qts, cold_qts.initial, "forward", 0,
                               cold)
        # a different process: fresh store instance, rebuilt system,
        # different image method — the fixpoint must not care
        rebuilt = build()
        with ResultStore(tmp_path / "store") as store:
            seed = store.lookup(rebuilt, rebuilt.initial)
        assert seed is not None
        warm = reachable_space(rebuilt, BASIC, warm_start=seed)
        assert warm.iterations == 1
        assert warm.converged
        assert warm.dimension == cold.dimension
        assert subspace_to_dense(warm.subspace).equals(
            subspace_to_dense(cold.subspace))

    def test_bitflip(self, tmp_path):
        self._assert_warm_equals_cold(tmp_path, FAMILIES["bitflip"])

    def test_noisy_ghz(self, tmp_path):
        self._assert_warm_equals_cold(tmp_path, FAMILIES["noisy_ghz"])
