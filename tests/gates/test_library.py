"""Named gate factories."""

import numpy as np
import pytest

from repro.gates import library as gl
from repro.gates import matrices as gm


class TestFactories:
    def test_single_qubit_names_and_targets(self):
        for name in ("h", "x", "y", "z", "s", "t", "sx"):
            gate = getattr(gl, name)(3)
            assert gate.targets == (3,)
            assert gate.name == name

    def test_rotations_carry_angle(self):
        assert np.allclose(gl.rx(0.5, 0).matrix, gm.rx(0.5))
        assert np.allclose(gl.rz(1.5, 0).matrix, gm.rz(1.5))
        assert np.allclose(gl.p(2.5, 0).matrix, gm.phase(2.5))

    def test_controlled_factories(self):
        assert gl.cx(0, 1).controls == (0,)
        assert gl.cz(2, 5).targets == (5,)
        assert gl.ccx(0, 1, 2).controls == (0, 1)
        assert gl.cnx([3, 4, 5], 6).controls == (3, 4, 5)

    def test_cnx_anti_controls(self):
        gate = gl.cnx([0, 1], 2, control_states=[0, 0])
        assert gate.control_states == (0, 0)

    def test_cnz(self):
        gate = gl.cnz([0, 1], 2)
        assert np.allclose(gate.matrix, gm.Z)
        assert gate.diagonal

    def test_proj_outcomes(self):
        assert np.allclose(gl.proj(0, 0).matrix, gm.P0)
        assert np.allclose(gl.proj(0, 1).matrix, gm.P1)
        with pytest.raises(ValueError):
            gl.proj(0, 2)

    def test_kraus_scaled(self):
        assert np.allclose(gl.scaled_i(0, 0.5).matrix, 0.5 * gm.I)
        assert np.allclose(gl.scaled_x(0, 0.5).matrix, 0.5 * gm.X)

    def test_scalar_gate_is_zero_qubit(self):
        gate = gl.scalar(1j)
        assert gate.is_scalar
        assert gate.qubits == ()

    def test_cnu(self):
        gate = gl.cnu([0, 1], 2, gm.H, name="cch")
        assert gate.name == "cch"
        assert not gate.diagonal
