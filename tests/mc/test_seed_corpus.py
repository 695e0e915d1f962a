"""Seed-corpus differential test: noisy random circuits against oracles.

Each system pairs a random unitary circuit ``U`` with the same circuit
carrying one noise channel of :mod:`repro.systems.noise`.  The flip and
depolarizing channels have a ``c·I`` element, so that branch of the
noisy operation is a scalar multiple of ``U`` and folds into its class
(:meth:`~repro.systems.qts.QuantumTransitionSystem.image_circuits`);
the damping channels have none and fold nothing.  Every method and
both directions must reach the dense oracle's space, climb the same
dimension ladder as a fixpoint that images every Kraus circuit, and
agree with the dense backend on verdicts and witness-trace lengths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.library.random_circuits import random_circuit
from repro.image.engine import METHODS, ImageEngine
from repro.mc.checker import cross_validate
from repro.mc.config import CheckerConfig
from repro.mc.reachability import reachable_space
from repro.systems.noise import CHANNELS, noisy_operation
from repro.systems.operations import QuantumOperation
from repro.systems.qts import QuantumTransitionSystem
from tests.helpers import dense_reach_oracle, subspace_to_dense

#: channel -> does its identity-proportional element fold into ``U``?
FOLDS = {"bit_flip": True, "phase_flip": True, "bit_phase_flip": True,
         "depolarizing": True, "amplitude_damping": False,
         "phase_damping": False}

#: (channel, qubit count, seed) of every corpus system
CORPUS = [(channel, 2 + number % 3, 11 * number + 5)
          for number, channel in enumerate(sorted(CHANNELS))]


def corpus_system(channel: str, num_qubits: int,
                  seed: int) -> QuantumTransitionSystem:
    rng = np.random.default_rng(seed)
    circuit = random_circuit(num_qubits, 6, seed=seed)
    noisy = noisy_operation("N", circuit,
                            int(rng.integers(0, circuit.num_gates + 1)),
                            int(rng.integers(0, num_qubits)), channel, 0.2)
    qts = QuantumTransitionSystem(
        num_qubits, [QuantumOperation.unitary("U", circuit), noisy],
        name=f"{channel}{num_qubits}")
    qts.set_initial_basis_states([[0] * num_qubits])
    qts.register_subspace("start", qts.initial)
    qts.register_subspace("far", qts.space.span(
        [qts.space.basis_state([1] * num_qubits)]))
    return qts


def ladder_over_every_circuit(qts, config):
    """The frontier fixpoint's ladder with no circuit dropped."""
    engine = ImageEngine(qts, config)
    circuits = engine.system.all_kraus_circuits()
    current = frontier = qts.initial
    ladder = [current.dimension]
    while True:
        grown = engine.computer.partial_image(
            frontier, circuits, into=current.copy()).subspace
        ladder.append(grown.dimension)
        if grown.dimension == current.dimension:
            return ladder
        frontier = grown.tail(current.dimension)
        current = grown


@pytest.mark.parametrize("channel, num_qubits, seed", CORPUS)
def test_channel_classes(channel, num_qubits, seed):
    qts = corpus_system(channel, num_qubits, seed)
    total = len(qts.all_kraus_circuits())
    expected = total - 1 if FOLDS[channel] else total
    assert len(qts.image_circuits()) == expected
    assert len(qts.adjoint().image_circuits()) == expected


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("channel, num_qubits, seed", CORPUS)
def test_corpus_matches_the_oracles(channel, num_qubits, seed, method,
                                    direction):
    config = CheckerConfig(method=method, direction=direction)
    qts = corpus_system(channel, num_qubits, seed)
    trace = reachable_space(qts, config)
    expected, ladder = dense_reach_oracle(
        corpus_system(channel, num_qubits, seed), direction=direction)
    assert subspace_to_dense(trace.subspace).equals(expected)
    system = qts if direction == "forward" else qts.adjoint()
    assert trace.stats.extra["kraus_imaged"] == len(system.image_circuits())
    assert trace.stats.extra["kraus_circuits"] == \
        len(qts.all_kraus_circuits())
    assert trace.dimensions == ladder == ladder_over_every_circuit(
        corpus_system(channel, num_qubits, seed), config)
    for spec in ("AG start", "EF far"):
        report = cross_validate(corpus_system(channel, num_qubits, seed),
                                spec=spec, config=config)
        assert report.agree, (spec, report)
        assert report.tdd_trace_length == report.dense_trace_length
