"""Shared image-computation plumbing."""

from repro.image.base import rename_outputs_to_kets
from repro.mc.config import CheckerConfig
from repro.systems import models

#: the basic image method (no partitioning)
BASIC = CheckerConfig(method="basic")


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
    def test_result_dimension_property(self):
        from repro.image.engine import compute_image
        result = compute_image(models.ghz_qts(3), config=BASIC)
        assert result.dimension == result.subspace.dimension
