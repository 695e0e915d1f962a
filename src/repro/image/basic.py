"""The basic image computation algorithm (paper, Algorithm 1).

Every Kraus circuit is contracted into a single (monolithic) operator
TDD; the image of a subspace is the join of ``cont(|psi>, E)`` over all
basis states ``|psi>`` and Kraus operators ``E``.  The operator TDDs
are cached so that repeated image computations (reachability fixpoints)
pay the — potentially exponential — contraction only once.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.network import circuit_to_tdd
from repro.image.base import (ImageComputerBase, input_sum_indices,
                              rename_outputs_to_kets)
from repro.indices.index import Index
from repro.systems.qts import QuantumTransitionSystem
from repro.tdd.tdd import TDD
from repro.utils.stats import StatsRecorder


class BasicImageComputer(ImageComputerBase):
    """Algorithm 1: monolithic operator TDD per Kraus circuit."""

    method = "basic"

    def __init__(self, qts: QuantumTransitionSystem) -> None:
        super().__init__(qts)
        self._operators: Dict[int, Tuple[TDD, List[Index],
                                         List[Index]]] = {}

    # ------------------------------------------------------------------
    def operator_for(self, circuit: QuantumCircuit,
                     stats: StatsRecorder
                     ) -> Tuple[TDD, List[Index], List[Index]]:
        """The cached monolithic ``(operator, inputs, outputs)`` triple."""
        key = id(circuit)
        if key not in self._operators:
            self._operators[key] = circuit_to_tdd(
                circuit, self.qts.manager,
                observer=self.build_stats.observe_tdd)
        stats.merge(self.build_stats)
        return self._operators[key]

    # ------------------------------------------------------------------
    def _circuit_images(self, state: TDD, circuit: QuantumCircuit,
                        stats: StatsRecorder) -> Iterator[TDD]:
        operator, inputs, outputs = self.operator_for(circuit, stats)
        sum_over = input_sum_indices(inputs, outputs)
        image_state = self.executor.contract(state, operator, sum_over,
                                             stats)
        stats.contractions += 1
        stats.observe_tdd(image_state)
        yield rename_outputs_to_kets(self.qts.space, image_state, outputs)
