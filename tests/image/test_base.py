"""Shared image-computation plumbing."""

import pytest

from repro.image.base import input_sum_indices, rename_outputs_to_kets
from repro.indices.index import wire
from repro.mc.config import CheckerConfig
from repro.systems import models

#: the basic image method (no partitioning)
BASIC = CheckerConfig(method="basic")


class TestInputSumIndices:
    def test_all_advanced(self):
        inputs = [wire(0, 0), wire(1, 0)]
        outputs = [wire(0, 3), wire(1, 2)]
        assert input_sum_indices(inputs, outputs) == inputs

    def test_fused_wire_excluded(self):
        inputs = [wire(0, 0), wire(1, 0)]
        outputs = [wire(0, 3), wire(1, 0)]  # qubit 1 diagonal-only
        assert input_sum_indices(inputs, outputs) == [wire(0, 0)]

    def test_identity_circuit(self):
        inputs = [wire(0, 0)]
        assert input_sum_indices(inputs, inputs) == []


class TestRenameOutputs:
    def test_renames_advanced_wires(self):
        qts = models.ghz_qts(3)
        circuit = qts.operations[0].kraus_circuits[0]
        wirings, inputs, outputs = circuit.wirings()
        from repro.tdd import construction as tc
        state = tc.basis_state(qts.manager, outputs, [0, 1, 1])
        renamed = rename_outputs_to_kets(qts.space, state, outputs)
        assert set(renamed.indices) == set(qts.space.kets)

    def test_noop_for_identity_outputs(self):
        qts = models.ghz_qts(2)
        state = qts.space.basis_state([0, 1])
        renamed = rename_outputs_to_kets(qts.space, state, qts.space.kets)
        assert renamed is state


class TestImageComputerContract:
    def test_base_class_abstract(self):
        from repro.image.base import ImageComputerBase
        computer = ImageComputerBase(models.ghz_qts(2))
        with pytest.raises(NotImplementedError):
            computer.image()

    def test_result_dimension_property(self):
        from repro.image.engine import compute_image
        result = compute_image(models.ghz_qts(3), config=BASIC)
        assert result.dimension == result.subspace.dimension
