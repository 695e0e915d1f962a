"""Circuit block partitioning (Section V.B cut rule)."""

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import (bitflip_syndrome_circuit, ghz_circuit,
                                    grover_iteration)
from repro.errors import PartitionError
from repro.image.partition import partition_circuit


class TestCutRule:
    def test_invalid_parameters(self):
        circuit = ghz_circuit(4)
        with pytest.raises(PartitionError):
            partition_circuit(circuit, 0, 1)
        with pytest.raises(PartitionError):
            partition_circuit(circuit, 1, 0)

    def test_every_gate_in_exactly_one_block(self):
        circuit = grover_iteration(5)
        blocks = partition_circuit(circuit, 2, 2)
        total = sum(len(b) for b in blocks)
        assert total == circuit.num_gates

    def test_wide_k1_single_band(self):
        circuit = ghz_circuit(4)
        blocks = partition_circuit(circuit, 10, 100)
        assert len(blocks) == 1
        assert blocks[0].band == 0

    def test_band_assignment(self):
        circuit = QuantumCircuit(4).h(0).h(3)
        blocks = partition_circuit(circuit, 2, 10)
        bands = sorted(b.band for b in blocks)
        assert bands == [0, 1]

    def test_vertical_cut_after_k2_crossings(self):
        # CX(0,1) with k1=1 crosses bands; k2=1 cuts after every one
        circuit = QuantumCircuit(2).cx(0, 1).cx(0, 1).cx(0, 1)
        blocks = partition_circuit(circuit, 1, 1)
        columns = {b.column for b in blocks}
        assert columns == {0, 1, 2}

    def test_no_cut_when_k2_large(self):
        circuit = QuantumCircuit(2).cx(0, 1).cx(0, 1).cx(0, 1)
        blocks = partition_circuit(circuit, 1, 10)
        assert {b.column for b in blocks} == {0}

    def test_single_qubit_gates_never_cross(self):
        circuit = QuantumCircuit(4)
        for q in range(4):
            circuit.h(q).x(q)
        blocks = partition_circuit(circuit, 2, 1)
        assert {b.column for b in blocks} == {0}

    def test_bitflip_paper_example(self):
        """Paper Section V.B: the Fig. 3 syndrome circuit with
        k1 = 3, k2 = 2 is cut into blocks spanning 2 bands and 3
        columns (the six CX gates all cross the horizontal cut)."""
        circuit = bitflip_syndrome_circuit()
        blocks = partition_circuit(circuit, 3, 2)
        assert 1 + max(b.column for b in blocks) == 3
        bands = {b.band for b in blocks}
        assert bands == {0}  # all CX homes are data qubits (band 0)
        assert sum(len(b) for b in blocks) == 6

    def test_ordering_by_column_then_band(self):
        circuit = grover_iteration(6)
        blocks = partition_circuit(circuit, 2, 2)
        keys = [b.key for b in blocks]
        assert keys == sorted(keys)

    def test_scalar_gate_lands_in_band_zero(self):
        circuit = QuantumCircuit(3).scalar(0.5).h(2)
        blocks = partition_circuit(circuit, 1, 1)
        scalar_blocks = [b for b in blocks
                         if any(w.gate.is_scalar for w in b.wirings)]
        assert scalar_blocks[0].band == 0

