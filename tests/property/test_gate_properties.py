"""Property tests for the direct gate-diagram constructor.

Random gates — one or two targets, up to four controls with mixed
control states, diagonal and scalar gates — on randomly placed
qubits: ``Gate.to_tdd`` must denote the same tensor as ``Gate.to_dense``
and be the canonical diagram of it, i.e. as small as the diagram
:func:`repro.tdd.construction.from_numpy` builds from the dense tensor.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gates import matrices as gm
from repro.gates.gate import Gate
from repro.indices.index import Index
from repro.indices.order import IndexOrder
from repro.tdd import construction as tc
from repro.tdd.manager import TDDManager

#: structured matrices whose zero and repeated entries exercise the
#: node reduction rules; random ones are drawn beside them
NAMED = {1: [gm.H, gm.X, gm.Y, gm.SX, gm.I, gm.P0],
         2: [gm.SWAP, np.eye(4), np.kron(gm.H, gm.X)]}


@st.composite
def gates(draw):
    """A random gate plus its index wiring and a random level order."""
    kind = draw(st.sampled_from(["plain", "diagonal", "scalar"]))
    t = 0 if kind == "scalar" else draw(st.integers(1, 2))
    k = draw(st.integers(0, 4))
    qubits = draw(st.permutations(range(6)))
    controls = tuple(qubits[:k])
    targets = tuple(qubits[k:k + t])
    states = tuple(draw(st.lists(st.integers(0, 1), min_size=k,
                                 max_size=k)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    dim = 2 ** t
    if kind == "scalar":
        matrix = np.array([[complex(*rng.normal(size=2))]])
    elif kind == "diagonal":
        diag = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        if draw(st.booleans()):
            diag[rng.integers(dim)] = 1.0
        matrix = np.diag(diag)
    elif draw(st.booleans()):
        matrix = draw(st.sampled_from(NAMED[t]))
    else:
        shape = (dim, dim)
        matrix = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    gate = Gate("g", targets, matrix, controls=controls,
                control_states=states,
                diagonal=kind == "diagonal" or None)
    c_idx = [Index(f"c{q}") for q in controls]
    t_in = [Index(f"i{q}") for q in targets]
    t_out = t_in if gate.diagonal else [Index(f"o{q}") for q in targets]
    names = [i.name for i in dict.fromkeys(c_idx + t_in + t_out)]
    order = draw(st.permutations(names))
    return gate, c_idx, t_in, t_out, order


@given(gates())
@settings(max_examples=150, deadline=None)
def test_direct_diagram_is_canonical_dense_tensor(case):
    gate, c_idx, t_in, t_out, order = case
    manager = TDDManager(IndexOrder([Index(n) for n in order]))
    tdd = gate.to_tdd(manager, c_idx, t_in, t_out)
    dense = gate.to_dense(c_idx, t_in, t_out)
    aligned = dense.transpose_like(
        sorted(dense.indices, key=manager.order.level))
    assert tdd.indices == tuple(aligned.indices)
    assert np.allclose(tdd.to_numpy(), aligned.array)
    reference = tc.from_numpy(manager, aligned.array, aligned.indices)
    assert tdd.size() == reference.size()
    assert tdd.root.same_as(reference.root)
