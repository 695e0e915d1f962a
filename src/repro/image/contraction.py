"""Contraction-partition image computation (paper, Section V.B).

Each Kraus circuit is cut into blocks by
:func:`~repro.image.partition.partition_circuit`; every block is
contracted once into a small TDD.  The image of a state is then the
contraction of the network ``{|psi>, phi_1, ..., phi_k}`` folded in
circuit time order (state first, then blocks by column) — the
monolithic operator TDD is never materialised, which is why the peak
node count stays small (linearly bounded for QFT/BV/GHZ/QRW in the
paper's Table I).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.network import register_circuit_indices
from repro.config import DEFAULT_CONTRACTION_K1, DEFAULT_CONTRACTION_K2
from repro.image.base import ImageComputerBase, rename_outputs_to_kets
from repro.image.partition import Block, partition_circuit
from repro.indices.index import Index
from repro.systems.qts import QuantumTransitionSystem
from repro.tdd.tdd import TDD
from repro.tensor.network import TensorNetwork
from repro.tensor.ordering import greedy_order
from repro.utils.stats import StatsRecorder


class ContractionImageComputer(ImageComputerBase):
    """Section V.B: block-partitioned contraction."""

    method = "contraction"

    def __init__(self, qts: QuantumTransitionSystem,
                 k1: int = DEFAULT_CONTRACTION_K1,
                 k2: int = DEFAULT_CONTRACTION_K2,
                 order_policy: str = "sequential") -> None:
        super().__init__(qts)
        if order_policy not in ("sequential", "greedy"):
            raise ValueError("order_policy must be 'sequential' or 'greedy'")
        self.k1 = k1
        self.k2 = k2
        self.order_policy = order_policy

    def shape(self) -> tuple:
        # the fold order does not change the blocks
        return (self.method, self.k1, self.k2)

    # ------------------------------------------------------------------
    def blocks_for(self, circuit: QuantumCircuit, stats: StatsRecorder
                   ) -> Tuple[List[TDD], List[Index], List[Index]]:
        """Contract each block of the circuit into one TDD (cached)."""
        def build(observer):
            wirings, inputs, outputs = register_circuit_indices(
                circuit, self.qts.manager)
            blocks = partition_circuit(circuit, self.k1, self.k2, wirings)
            boundary = self._boundary_indices(blocks, inputs, outputs)
            block_tdds: List[TDD] = []
            for block in blocks:
                tensors = [w.gate.to_tdd(self.qts.manager,
                                         w.control_indices, w.target_in,
                                         w.target_out)
                           for w in block.wirings]
                open_set = set()
                for tensor in tensors:
                    open_set.update(set(tensor.indices) & boundary[block.key])
                network = TensorNetwork(tensors, open_set)
                block_tdds.append(network.contract_all(observer=observer))
            return block_tdds, inputs, outputs
        entry = self._cached(circuit, build, stats)
        stats.extra.setdefault("blocks", len(entry[0]))
        return entry

    @staticmethod
    def _boundary_indices(blocks: List[Block], inputs, outputs
                          ) -> Dict[Tuple[int, int], set]:
        """Per block: its indices that are visible outside the block."""
        usage: Dict[Index, set] = {}
        for block in blocks:
            for wiring in block.wirings:
                for idx in wiring.indices:
                    usage.setdefault(idx, set()).add(block.key)
        external = set(inputs) | set(outputs)
        out: Dict[Tuple[int, int], set] = {}
        for block in blocks:
            mine = set()
            for wiring in block.wirings:
                mine.update(wiring.indices)
            out[block.key] = {idx for idx in mine
                              if idx in external or len(usage[idx]) > 1}
        return out

    def prepare(self, circuit: QuantumCircuit,
                stats: StatsRecorder) -> None:
        self.blocks_for(circuit, stats)

    # ------------------------------------------------------------------
    def circuit_image(self, state: TDD, circuit: QuantumCircuit,
                      stats: StatsRecorder) -> TDD:
        block_tdds, inputs, outputs = self.blocks_for(circuit, stats)
        tensors = [state] + list(block_tdds)
        network = TensorNetwork(tensors, set(outputs))
        order = None
        if self.order_policy == "greedy":
            order = greedy_order(tensors, network.open_indices)
        image_state = network.contract_all(order=order,
                                           observer=stats.observe_tdd)
        stats.contractions += len(block_tdds)
        return rename_outputs_to_kets(self.qts.space, image_state, outputs)
