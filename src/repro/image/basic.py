"""The basic image computation algorithm (paper, Algorithm 1).

Every Kraus circuit is contracted into a single (monolithic) operator
TDD; the image of a subspace is the join of ``cont(|psi>, E)`` over all
basis states ``|psi>`` and Kraus operators ``E``.  The operator TDDs
are cached on the system so that repeated image computations
(reachability fixpoints, witness traces) pay the — potentially
exponential — contraction only once.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.network import circuit_to_tdd
from repro.image.base import (ImageComputerBase, input_sum_indices,
                              rename_outputs_to_kets)
from repro.indices.index import Index
from repro.tdd.tdd import TDD
from repro.utils.stats import StatsRecorder


class BasicImageComputer(ImageComputerBase):
    """Algorithm 1: monolithic operator TDD per Kraus circuit."""

    method = "basic"

    # ------------------------------------------------------------------
    def operator_for(self, circuit: QuantumCircuit,
                     stats: StatsRecorder
                     ) -> Tuple[TDD, List[Index], List[Index]]:
        """The cached monolithic ``(operator, inputs, outputs)`` triple."""
        return self._cached(
            circuit, lambda observer: circuit_to_tdd(
                circuit, self.qts.manager, observer=observer), stats)

    def prepare(self, circuit: QuantumCircuit,
                stats: StatsRecorder) -> None:
        self.operator_for(circuit, stats)

    # ------------------------------------------------------------------
    def circuit_image(self, state: TDD, circuit: QuantumCircuit,
                      stats: StatsRecorder) -> TDD:
        operator, inputs, outputs = self.operator_for(circuit, stats)
        sum_over = input_sum_indices(inputs, outputs)
        image_state = state.contract(operator, sum_over)
        stats.contractions += 1
        stats.observe_tdd(image_state)
        return rename_outputs_to_kets(self.qts.space, image_state, outputs)
