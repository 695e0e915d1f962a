"""The Gate value type: wiring, operator matrices, TDD vs dense."""


import numpy as np
import pytest

from repro.errors import CircuitError
from repro.gates import library as gl
from repro.gates import matrices as gm
from repro.gates.gate import Gate
from repro.indices.index import Index
from repro.indices.order import IndexOrder
from repro.systems import models
from repro.tdd.manager import TDDManager


def manager_for(names):
    return TDDManager(IndexOrder([Index(n) for n in names]))


def compare_tdd_dense(gate, controls, t_in, t_out, names):
    """Assert gate.to_tdd and gate.to_dense denote the same tensor."""
    manager = manager_for(names)
    c_idx = [Index(n) for n in controls]
    in_idx = [Index(n) for n in t_in]
    out_idx = [Index(n) for n in t_out]
    tdd = gate.to_tdd(manager, c_idx, in_idx, out_idx)
    dense = gate.to_dense(c_idx, in_idx, out_idx)
    aligned = dense.transpose_like(
        sorted(dense.indices, key=manager.order.level))
    assert tuple(i.name for i in aligned.indices) == tdd.index_names
    assert np.allclose(tdd.to_numpy(), aligned.array), gate


class TestValidation:
    def test_matrix_shape_mismatch(self):
        with pytest.raises(CircuitError):
            Gate("bad", (0, 1), gm.X)

    def test_duplicate_qubits(self):
        with pytest.raises(CircuitError):
            Gate("bad", (0,), gm.X, controls=(0,))

    def test_control_states_length(self):
        with pytest.raises(CircuitError):
            Gate("bad", (0,), gm.X, controls=(1,), control_states=(1, 0))

    def test_control_states_bits(self):
        with pytest.raises(CircuitError):
            Gate("bad", (0,), gm.X, controls=(1,), control_states=(2,))

    def test_diagonal_autodetect(self):
        assert gl.z(0).diagonal
        assert gl.s(0).diagonal
        assert not gl.h(0).diagonal
        assert gl.cz(0, 1).diagonal
        assert not gl.cx(0, 1).diagonal


class TestOperatorMatrix:
    def test_plain_gate(self):
        assert np.allclose(gl.h(0).operator_matrix(), gm.H)

    def test_cx_matrix(self):
        expect = np.eye(4, dtype=complex)
        expect[2:, 2:] = gm.X
        assert np.allclose(gl.cx(0, 1).operator_matrix(), expect)

    def test_anti_control_matrix(self):
        gate = gl.cnx([0], 1, control_states=[0])
        expect = np.eye(4, dtype=complex)
        expect[:2, :2] = gm.X
        assert np.allclose(gate.operator_matrix(), expect)

    def test_ccx_matrix(self):
        got = gl.ccx(0, 1, 2).operator_matrix()
        expect = np.eye(8, dtype=complex)
        expect[6:, 6:] = gm.X
        assert np.allclose(got, expect)

    def test_adjoint(self):
        gate = gl.t(0)
        assert np.allclose(gate.adjoint().matrix, gm.TDG)
        cgate = gl.cp(0.7, 0, 1)
        assert np.allclose(cgate.adjoint().operator_matrix(),
                           cgate.operator_matrix().conj().T)


class TestTDDvsDense:
    def test_single_qubit_nondiagonal(self):
        compare_tdd_dense(gl.h(0), [], ["x"], ["y"], ["x", "y"])

    def test_single_qubit_diagonal(self):
        compare_tdd_dense(gl.s(0), [], ["x"], ["x"], ["x"])

    def test_projector(self):
        compare_tdd_dense(gl.proj(0, 1), [], ["x"], ["x"], ["x"])

    def test_cx(self):
        compare_tdd_dense(gl.cx(0, 1), ["c"], ["x"], ["y"], ["c", "x", "y"])

    def test_cz_fully_diagonal(self):
        compare_tdd_dense(gl.cz(0, 1), ["c"], ["x"], ["x"], ["c", "x"])

    def test_cp(self):
        compare_tdd_dense(gl.cp(0.9, 0, 1), ["c"], ["x"], ["x"], ["c", "x"])

    def test_ccx(self):
        compare_tdd_dense(gl.ccx(0, 1, 2), ["c1", "c2"], ["x"], ["y"],
                          ["c1", "c2", "x", "y"])

    def test_cnx_wide(self):
        gate = gl.cnx([0, 1, 2, 3], 4)
        compare_tdd_dense(gate, ["c1", "c2", "c3", "c4"], ["x"], ["y"],
                          ["c1", "c2", "c3", "c4", "x", "y"])

    def test_anti_controls(self):
        gate = gl.cnx([0, 1], 2, control_states=[0, 1])
        compare_tdd_dense(gate, ["c1", "c2"], ["x"], ["y"],
                          ["c1", "c2", "x", "y"])

    def test_swap_two_target(self):
        compare_tdd_dense(gl.swap(0, 1), [], ["a", "b"], ["c", "d"],
                          ["a", "b", "c", "d"])

    def test_scalar_gate(self):
        compare_tdd_dense(gl.scalar(0.25j), [], [], [], [])

    def test_controlled_scalar(self):
        gate = Gate("cphase", (), np.array([[np.exp(0.3j)]]),
                    controls=(0, 1))
        compare_tdd_dense(gate, ["c1", "c2"], [], [], ["c1", "c2"])

    def test_scaled_kraus(self):
        compare_tdd_dense(gl.scaled_x(0, 0.6), [], ["x"], ["y"],
                          ["x", "y"])


class TestWideControlEfficiency:
    def test_cnx_tdd_is_linear_size(self):
        # 30-control CNX: dense would be 2^62 entries; TDD must be tiny
        names = [f"c{i}" for i in range(30)] + ["x", "y"]
        manager = manager_for(names)
        gate = gl.cnx(list(range(30)), 30)
        tdd = gate.to_tdd(manager,
                          [Index(f"c{i}") for i in range(30)],
                          [Index("x")], [Index("y")])
        assert tdd.size() < 100

    def test_wiring_validation(self):
        manager = manager_for(["c", "x", "y"])
        gate = gl.cx(0, 1)
        with pytest.raises(CircuitError):
            gate.to_tdd(manager, [], [Index("x")], [Index("y")])
        diag = gl.cz(0, 1)
        with pytest.raises(CircuitError):
            diag.to_tdd(manager, [Index("c")], [Index("x")], [Index("y")])


def build(manager, wiring):
    return wiring.gate.to_tdd(manager, wiring.control_indices,
                              wiring.target_in, wiring.target_out)


class TestGateTable:
    def test_same_handle_within_an_epoch(self):
        manager = manager_for(["c", "x", "y"])
        wiring = ([Index("c")], [Index("x")], [Index("y")])
        first = gl.cx(0, 1).to_tdd(manager, *wiring)
        # an equal gate on other qubits, wired to the same indices
        assert gl.cx(3, 4).to_tdd(manager, *wiring) is first
        assert gl.cx(0, 1).to_tdd(manager, *wiring) is first
        # same indices and matrix, other control state: another diagram
        anti = gl.cnx([0], 1, control_states=[0])
        assert anti.to_tdd(manager, *wiring) is not first

    def test_kraus_circuits_of_a_system_share_gates(self):
        # T1's circuit and the noisy keep circuit of T2 run the same
        # gates on the same wires; only T2's Kraus weight differs
        qts = models.qrw_qts(4, 0.3)
        plain = qts.operation("T1").kraus_circuits[0]
        noisy = qts.operation("T2").kraus_circuits[0]
        plain_wirings = plain.wirings()[0]
        noisy_wirings = [w for w in noisy.wirings()[0]
                         if not w.gate.is_scalar]
        assert len(plain_wirings) == len(noisy_wirings)
        for a, b in zip(plain_wirings, noisy_wirings):
            assert build(qts.manager, a) is build(qts.manager, b)

    def test_collect_empties_the_table_and_frees_gate_nodes(self):
        manager = manager_for(["c1", "c2", "x", "y"])
        held = gl.h(0).to_tdd(manager, [], [Index("x")], [Index("y")])
        gl.ccx(0, 1, 2).to_tdd(manager, [Index("c1"), Index("c2")],
                               [Index("x")], [Index("y")])
        assert len(manager.gate_table) == 2
        held_nodes = held.size() - 1
        manager.collect()
        assert manager.gate_table == {}
        # only the handle still held pins its nodes
        assert manager.live_nodes == held_nodes
        again = gl.h(0).to_tdd(manager, [], [Index("x")], [Index("y")])
        assert again is not held and again.same_as(held)

    def test_reset_empties_the_table(self):
        manager = manager_for(["x", "y"])
        gl.h(0).to_tdd(manager, [], [Index("x")], [Index("y")])
        manager.reset()
        assert manager.gate_table == {}
