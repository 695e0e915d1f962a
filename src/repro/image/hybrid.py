"""Hybrid partition image computation.

The paper presents addition partition and contraction partition as
alternatives, but they compose naturally (both are "partitions of the
transition tensor" in the classical sense of [8]): first slice the
``k`` highest-degree internal indices (addition), then contract each of
the ``2^k`` sliced circuits *blockwise* (contraction) instead of
monolithically.  The image of a state is the sum over slices of the
state-through-blocks contraction.

This is an extension beyond the paper's experiments, benchmarked in
``benchmarks/test_ablation_partition.py``; correctness follows from
the same linearity (Proposition 1) and block-contraction equality used
by the two base schemes, and is differentially tested against them.
"""

from __future__ import annotations

import itertools
from typing import List, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.network import register_circuit_indices
from repro.config import (DEFAULT_ADDITION_K, DEFAULT_CONTRACTION_K1,
                          DEFAULT_CONTRACTION_K2)
from repro.image.addition import select_slice_indices
from repro.image.base import ImageComputerBase, rename_outputs_to_kets
from repro.image.contraction import ContractionImageComputer
from repro.image.partition import partition_circuit
from repro.indices.index import Index
from repro.systems.qts import QuantumTransitionSystem
from repro.tdd.tdd import TDD
from repro.tensor.network import TensorNetwork
from repro.utils.stats import StatsRecorder


class HybridImageComputer(ImageComputerBase):
    """Addition slicing over contraction-partitioned blocks."""

    method = "hybrid"

    def __init__(self, qts: QuantumTransitionSystem,
                 k: int = DEFAULT_ADDITION_K,
                 k1: int = DEFAULT_CONTRACTION_K1,
                 k2: int = DEFAULT_CONTRACTION_K2) -> None:
        super().__init__(qts)
        if k < 0:
            raise ValueError("k must be non-negative")
        self.k = k
        self.k1 = k1
        self.k2 = k2

    def shape(self) -> tuple:
        return (self.method, self.k, self.k1, self.k2)

    # ------------------------------------------------------------------
    def slices_for(self, circuit: QuantumCircuit, stats: StatsRecorder
                   ) -> Tuple[List[List[TDD]], List[Index], List[Index]]:
        """The cached ``(per-slice block TDD lists, inputs, outputs)``."""
        def build(observer):
            manager = self.qts.manager
            wirings, inputs, outputs = register_circuit_indices(circuit,
                                                                manager)
            # pick slice indices from the whole-circuit index graph
            sliced_indices = select_slice_indices(
                wirings, self.k, set(inputs) | set(outputs))
            blocks = partition_circuit(circuit, self.k1, self.k2, wirings)
            boundary = ContractionImageComputer._boundary_indices(
                blocks, inputs, outputs)
            all_parts: List[List[TDD]] = []
            for bits in itertools.product((0, 1),
                                          repeat=len(sliced_indices)):
                assignment = dict(zip(sliced_indices, bits))
                part_tdds: List[TDD] = []
                for block in blocks:
                    tensors = []
                    for wiring in block.wirings:
                        tensor = wiring.gate.to_tdd(
                            manager, wiring.control_indices,
                            wiring.target_in, wiring.target_out)
                        local = {idx: bit
                                 for idx, bit in assignment.items()
                                 if idx in set(tensor.indices)}
                        if local:
                            tensor = tensor.slice(local)
                        tensors.append(tensor)
                    open_set = set()
                    block_boundary = boundary[block.key] - set(assignment)
                    for tensor in tensors:
                        open_set.update(set(tensor.indices)
                                        & block_boundary)
                    block_network = TensorNetwork(tensors, open_set)
                    part_tdds.append(block_network.contract_all(
                        observer=observer))
                all_parts.append(part_tdds)
            return all_parts, inputs, outputs
        return self._cached(circuit, build, stats)

    def prepare(self, circuit: QuantumCircuit,
                stats: StatsRecorder) -> None:
        self.slices_for(circuit, stats)

    # ------------------------------------------------------------------
    def circuit_image(self, state: TDD, circuit: QuantumCircuit,
                      stats: StatsRecorder) -> TDD:
        all_parts, inputs, outputs = self.slices_for(circuit, stats)
        total = None
        for part_tdds in all_parts:
            network = TensorNetwork([state] + part_tdds, set(outputs))
            contribution = network.contract_all(
                observer=stats.observe_tdd)
            stats.contractions += len(part_tdds)
            total = (contribution if total is None
                     else total + contribution)
            stats.observe_tdd(total)
        if len(all_parts) > 1:
            stats.additions += len(all_parts) - 1
        return rename_outputs_to_kets(self.qts.space, total, outputs)
