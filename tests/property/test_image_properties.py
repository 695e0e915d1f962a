"""Properties of image computation itself.

The load-bearing guarantees: the three algorithms agree with each other
and with dense linear algebra on random circuits, and the image
operator is linear over joins (Proposition 1 of the paper).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.library import random_circuit
from repro.image.engine import compute_image
from repro.mc.config import CheckerConfig
from repro.systems.operations import QuantumOperation
from repro.systems.qts import QuantumTransitionSystem

from tests.helpers import (assert_subspace_matches_dense,
                           dense_image_oracle)

#: the basic image method (no partitioning)
BASIC = CheckerConfig(method="basic")
#: the contraction method with small partition blocks
CONTRACTION_K2 = CheckerConfig(method="contraction",
                               method_params={"k1": 2, "k2": 2})

N_QUBITS = 3


def random_qts(seed: int, num_states: int = 1) -> QuantumTransitionSystem:
    circuit = random_circuit(N_QUBITS, 10, seed=seed)
    op = QuantumOperation.unitary("u", circuit)
    qts = QuantumTransitionSystem(N_QUBITS, [op])
    rng = np.random.default_rng(seed + 1000)
    states = [qts.space.from_amplitudes(
        rng.normal(size=2 ** N_QUBITS) + 1j * rng.normal(size=2 ** N_QUBITS))
        for _ in range(num_states)]
    qts.set_initial_states(states)
    return qts


class TestMethodAgreement:
    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=10)
    def test_all_methods_match_oracle(self, seed):
        expected = dense_image_oracle(random_qts(seed))
        for method, params in (("basic", {}), ("addition", {"k": 1}),
                               ("contraction", {"k1": 2, "k2": 2})):
            result = compute_image(random_qts(seed),
                                   config=CheckerConfig(method=method,
                                                        method_params=params))
            assert_subspace_matches_dense(result.subspace, expected)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=8)
    def test_multi_state_subspaces(self, seed):
        expected = dense_image_oracle(random_qts(seed, num_states=2))
        result = compute_image(random_qts(seed, num_states=2),
                               config=CONTRACTION_K2)
        assert_subspace_matches_dense(result.subspace, expected)


class TestImageLaws:
    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=8)
    def test_image_distributes_over_join(self, seed):
        """Proposition 1(1): T(S1 v S2) = T(S1) v T(S2)."""
        qts = random_qts(seed, num_states=2)
        s1 = qts.space.span([qts.initial.basis[0]])
        s2 = qts.space.span([qts.initial.basis[1]])
        joint = compute_image(qts, subspace=s1.join(s2), config=BASIC).subspace
        separate = compute_image(qts, subspace=s1, config=BASIC).subspace \
            .join(compute_image(qts, subspace=s2, config=BASIC).subspace)
        assert joint.equals(separate)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=8)
    def test_unitary_preserves_dimension(self, seed):
        qts = random_qts(seed, num_states=2)
        image = compute_image(qts, config=BASIC).subspace
        assert image.dimension == qts.initial.dimension

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=5)
    def test_image_monotone(self, seed):
        """S1 <= S2 implies T(S1) <= T(S2)."""
        qts = random_qts(seed, num_states=2)
        small = qts.space.span([qts.initial.basis[0]])
        big = qts.initial
        image_small = compute_image(qts, subspace=small, config=BASIC).subspace
        image_big = compute_image(qts, subspace=big, config=BASIC).subspace
        assert image_big.contains(image_small)
