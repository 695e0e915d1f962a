"""Gate matrix definitions."""

import math

import numpy as np
import pytest

from repro.gates import matrices as gm


UNITARIES = {
    "I": gm.I, "X": gm.X, "Y": gm.Y, "Z": gm.Z, "H": gm.H,
    "S": gm.S, "T": gm.T, "SX": gm.SX,
    "SWAP": gm.SWAP,
}


class TestUnitarity:
    @pytest.mark.parametrize("name", sorted(UNITARIES))
    def test_fixed_gates_unitary(self, name):
        assert gm.is_unitary(UNITARIES[name])

    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2, math.pi, 5.0])
    def test_rotations_unitary(self, theta):
        for factory in (gm.rx, gm.ry, gm.rz, gm.phase):
            assert gm.is_unitary(factory(theta))


class TestAlgebra:
    def test_h_squared_identity(self):
        assert np.allclose(gm.H @ gm.H, gm.I)

    def test_s_squared_is_z(self):
        assert np.allclose(gm.S @ gm.S, gm.Z)

    def test_t_squared_is_s(self):
        assert np.allclose(gm.T @ gm.T, gm.S)

    def test_sx_squared_is_x(self):
        assert np.allclose(gm.SX @ gm.SX, gm.X)

    def test_hzh_is_x(self):
        assert np.allclose(gm.H @ gm.Z @ gm.H, gm.X)

    def test_projectors_sum_to_identity(self):
        assert np.allclose(gm.P0 + gm.P1, gm.I)
        assert np.allclose(gm.P0 @ gm.P0, gm.P0)
        assert np.allclose(gm.P1 @ gm.P1, gm.P1)
        assert not gm.is_unitary(gm.P0)

    def test_phase_equals_rz_up_to_phase(self):
        theta = 0.7
        ratio = gm.phase(theta) @ np.linalg.inv(gm.rz(theta))
        assert np.allclose(ratio, ratio[0, 0] * np.eye(2))


class TestPredicates:
    def test_is_diagonal(self):
        assert gm.is_diagonal(gm.Z)
        assert gm.is_diagonal(gm.S)
        assert gm.is_diagonal(gm.P0)
        assert not gm.is_diagonal(gm.X)
        assert not gm.is_diagonal(gm.H)
