"""OpenQASM 2.0 subset import/export.

Covers the gate set the benchmark families use (and what ``qelib1.inc``
calls them): ``h x y z s sdg t tdg sx rx ry rz u1/p cx cz cu1/cp ccx
swap`` plus ``barrier`` (ignored) and comments.  Enough to exchange
circuits with Qiskit/MQT-style tooling; measurement and classical
registers are intentionally out of scope (measurements live in Kraus
circuits as projector gates, see :mod:`repro.systems.operations`).
"""

from __future__ import annotations

import math
import re
from typing import Dict

from repro.circuits.circuit import QuantumCircuit
from repro.errors import CircuitError
from repro.gates.gate import Gate

_HEADER_RE = re.compile(r"OPENQASM\s+2.0\s*;")
_QREG_RE = re.compile(r"qreg\s+(?P<name>\w+)\s*\[\s*(?P<size>\d+)\s*\]\s*;")
_STMT_RE = re.compile(
    r"^(?P<gate>[a-zA-Z_][\w]*)\s*"
    r"(?:\(\s*(?P<params>[^)]*)\s*\))?\s*"
    r"(?P<args>.*)$", re.DOTALL)
_ARG_RE = re.compile(r"(?P<reg>\w+)\s*\[\s*(?P<index>\d+)\s*\]")

#: gate name -> (number of angle parameters, circuit-method factory)
_GATES: Dict[str, tuple] = {
    "h": (0, lambda c, a, q: c.h(q[0])),
    "x": (0, lambda c, a, q: c.x(q[0])),
    "y": (0, lambda c, a, q: c.y(q[0])),
    "z": (0, lambda c, a, q: c.z(q[0])),
    "s": (0, lambda c, a, q: c.s(q[0])),
    "sdg": (0, lambda c, a, q: c.append(
        __import__("repro.gates.library", fromlist=["sdg"]).sdg(q[0]))),
    "t": (0, lambda c, a, q: c.t(q[0])),
    "tdg": (0, lambda c, a, q: c.append(
        __import__("repro.gates.library", fromlist=["tdg"]).tdg(q[0]))),
    "sx": (0, lambda c, a, q: c.sx(q[0])),
    "rx": (1, lambda c, a, q: c.rx(a[0], q[0])),
    "ry": (1, lambda c, a, q: c.ry(a[0], q[0])),
    "rz": (1, lambda c, a, q: c.rz(a[0], q[0])),
    "p": (1, lambda c, a, q: c.p(a[0], q[0])),
    "u1": (1, lambda c, a, q: c.p(a[0], q[0])),
    "cx": (0, lambda c, a, q: c.cx(q[0], q[1])),
    "cz": (0, lambda c, a, q: c.cz(q[0], q[1])),
    "cp": (1, lambda c, a, q: c.cp(a[0], q[0], q[1])),
    "cu1": (1, lambda c, a, q: c.cp(a[0], q[0], q[1])),
    "ccx": (0, lambda c, a, q: c.ccx(q[0], q[1], q[2])),
    "swap": (0, lambda c, a, q: c.swap(q[0], q[1])),
}

#: names re-emitted by :func:`to_qasm` (gate.name -> qasm mnemonic).
_EMIT_NAMES = {"p": "u1", "cp": "cu1"}


def _eval_angle(text: str) -> float:
    """Evaluate a QASM angle expression (pi arithmetic only).

    Accepts scientific notation (``1.2e-15``) — :func:`to_qasm` emits
    ``repr(float)``, which uses it for very small angles, and the
    parser must round-trip its own output.
    """
    allowed = re.compile(r"^[\d\s\.\+\-\*/\(\)piPIeE]*$")
    if not allowed.match(text):
        raise CircuitError(f"unsupported angle expression {text!r}")
    try:
        return float(eval(text, {"__builtins__": {}}, {"pi": math.pi}))
    except Exception as exc:
        raise CircuitError(f"bad angle expression {text!r}") from exc


def parse_qasm(text: str) -> QuantumCircuit:
    """Parse an OpenQASM 2.0 (subset) program into a circuit."""
    # strip comments
    text = re.sub(r"//[^\n]*", "", text)
    if not _HEADER_RE.search(text):
        raise CircuitError("missing 'OPENQASM 2.0;' header")
    regs = _QREG_RE.findall(text)
    if len(regs) != 1:
        raise CircuitError("exactly one qreg is supported")
    reg_name, size = regs[0][0], int(regs[0][1])
    circuit = QuantumCircuit(size, name=reg_name)
    body = _HEADER_RE.split(text, maxsplit=1)[1]
    for statement in body.split(";"):
        statement = statement.strip()
        if not statement or statement.startswith("include"):
            continue
        match = _STMT_RE.match(statement)
        if match is None:
            raise CircuitError(f"unparseable statement {statement!r}")
        gate = match.group("gate")
        if gate in ("include", "qreg", "creg", "barrier"):
            continue
        if gate == "measure":
            raise CircuitError("measure is not supported; model "
                               "measurements as Kraus circuits with "
                               "projector gates")
        spec = _GATES.get(gate)
        if spec is None:
            raise CircuitError(f"unsupported gate {gate!r}")
        arity, builder = spec
        params_text = match.group("params") or ""
        angles = ([_eval_angle(p) for p in params_text.split(",")]
                  if params_text.strip() else [])
        if len(angles) != arity:
            raise CircuitError(f"gate {gate!r} expects {arity} "
                               f"parameter(s), got {len(angles)}")
        qubits = []
        for arg in match.group("args").split(","):
            arg_match = _ARG_RE.search(arg)
            if not arg_match:
                raise CircuitError(f"bad qubit argument {arg.strip()!r}")
            if arg_match.group("reg") != reg_name:
                raise CircuitError(f"unknown register "
                                   f"{arg_match.group('reg')!r}")
            qubits.append(int(arg_match.group("index")))
        builder(circuit, angles, qubits)
    return circuit


def _emit_gate(gate: Gate) -> str:
    name = gate.name
    if name == "cnx" and len(gate.controls) == 2 \
            and all(s == 1 for s in gate.control_states):
        name = "ccx"
    qasm_name = _EMIT_NAMES.get(name, name)
    if qasm_name not in _GATES and qasm_name not in ("ccx",):
        raise CircuitError(
            f"gate {gate.name!r} has no OpenQASM 2.0 form (decompose "
            f"multi-controlled/projector/Kraus gates first)")
    qubits = ", ".join(f"q[{q}]" for q in gate.qubits)
    params = ""
    if qasm_name in ("rx", "ry", "rz", "u1", "cu1"):
        import numpy as np
        if qasm_name in ("u1", "cu1"):
            angle = float(np.angle(gate.matrix[1, 1]))
        else:
            # rx/ry: theta from the cosine; rz: from the phases
            if qasm_name == "rz":
                angle = float(2 * np.angle(gate.matrix[1, 1]))
            else:
                cos_half = float(np.clip(gate.matrix[0, 0].real, -1.0, 1.0))
                angle = 2 * math.acos(cos_half)
                if qasm_name == "ry" and gate.matrix[1, 0].real < 0:
                    angle = -angle
                if qasm_name == "rx" and gate.matrix[1, 0].imag > 0:
                    angle = -angle
        params = f"({angle!r})"
    return f"{qasm_name}{params} {qubits};"


def to_qasm(circuit: QuantumCircuit) -> str:
    """Emit an OpenQASM 2.0 program for a circuit in the subset."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";',
             f"qreg q[{circuit.num_qubits}];"]
    for gate in circuit.gates:
        lines.append(_emit_gate(gate))
    return "\n".join(lines) + "\n"
