"""Wire-index assignment for circuits viewed as tensor networks.

Walking a circuit gate-by-gate, each qubit *i* carries a current wire
index ``x_i^j`` (paper notation, Fig. 2).  A gate *advances* the index
of a wire it acts on non-trivially, producing ``x_i^{j+1}``; control
wires and every wire of a diagonal gate *reuse* the current index —
this is the hyper-edge merging of Section V.A that concentrates degree
on shared indices (Fig. 5).

:class:`WireTracker` performs that walk and yields one
:class:`GateWiring` per gate, plus the circuit's external input and
output indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.gates.gate import Gate
from repro.indices.index import Index, wire


@dataclass(frozen=True)
class GateWiring:
    """The index assignment of one gate instance in a circuit."""

    gate: Gate
    control_indices: Tuple[Index, ...]
    target_in: Tuple[Index, ...]
    target_out: Tuple[Index, ...]

    @property
    def indices(self) -> Tuple[Index, ...]:
        """All distinct indices of the gate tensor."""
        out = list(self.control_indices) + list(self.target_in)
        for idx in self.target_out:
            if idx not in out:
                out.append(idx)
        return tuple(out)


class WireTracker:
    """Assigns tensor indices to the wires of a gate sequence."""

    def __init__(self, num_qubits: int) -> None:
        self.num_qubits = num_qubits
        self._time = [0] * num_qubits

    def current(self, qubit: int) -> Index:
        return wire(qubit, self._time[qubit])

    def advance(self, qubit: int) -> Index:
        self._time[qubit] += 1
        return wire(qubit, self._time[qubit])

    def wire_gate(self, gate: Gate) -> GateWiring:
        """Assign indices to one gate and advance the touched wires."""
        control_indices = tuple(self.current(q) for q in gate.controls)
        target_in = tuple(self.current(q) for q in gate.targets)
        if gate.diagonal or not gate.targets:
            target_out = target_in
        else:
            target_out = tuple(self.advance(q) for q in gate.targets)
        return GateWiring(gate, control_indices, target_in, target_out)


def wire_circuit(num_qubits: int, gates: List[Gate]
                 ) -> Tuple[List[GateWiring], List[Index], List[Index]]:
    """Wire a whole gate list.

    Returns ``(wirings, input_indices, output_indices)`` where the
    *i*-th input index is ``x_i^0`` and the *i*-th output index is the
    last index on qubit *i*.  For a qubit touched only by diagonal
    gates (or untouched), input and output coincide.
    """
    tracker = WireTracker(num_qubits)
    inputs = [tracker.current(q) for q in range(num_qubits)]
    wirings = [tracker.wire_gate(g) for g in gates]
    outputs = [tracker.current(q) for q in range(num_qubits)]
    return wirings, inputs, outputs


def wire_indices(wirings: List[GateWiring],
                 inputs: List[Index]) -> List[Index]:
    """Every index of a wired gate list, qubit-major (see
    :func:`wire_circuit` for ``wirings`` and ``inputs``)."""
    seen = {}
    for idx in inputs:
        seen[idx.name] = idx
    for wiring in wirings:
        for idx in wiring.indices:
            seen[idx.name] = idx
    return sorted(seen.values(), key=lambda i: (i.qubit, i.time))
