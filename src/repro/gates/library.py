"""Named gate constructors.

Thin factories around :class:`~repro.gates.gate.Gate` for every gate the
paper's benchmark circuits need, plus projectors and scaled Kraus
operators for dynamic and noisy circuits.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.gates import matrices as gm
from repro.gates.gate import Gate


def h(qubit: int) -> Gate:
    return Gate("h", (qubit,), gm.H)


def x(qubit: int) -> Gate:
    return Gate("x", (qubit,), gm.X)


def y(qubit: int) -> Gate:
    return Gate("y", (qubit,), gm.Y)


def z(qubit: int) -> Gate:
    return Gate("z", (qubit,), gm.Z)


def s(qubit: int) -> Gate:
    return Gate("s", (qubit,), gm.S)


def t(qubit: int) -> Gate:
    return Gate("t", (qubit,), gm.T)


def sx(qubit: int) -> Gate:
    return Gate("sx", (qubit,), gm.SX)


def rx(theta: float, qubit: int) -> Gate:
    return Gate("rx", (qubit,), gm.rx(theta))


def ry(theta: float, qubit: int) -> Gate:
    return Gate("ry", (qubit,), gm.ry(theta))


def rz(theta: float, qubit: int) -> Gate:
    return Gate("rz", (qubit,), gm.rz(theta))


def p(theta: float, qubit: int) -> Gate:
    return Gate("p", (qubit,), gm.phase(theta))


def cx(control: int, target: int) -> Gate:
    return Gate("cx", (target,), gm.X, controls=(control,))


def cz(control: int, target: int) -> Gate:
    return Gate("cz", (target,), gm.Z, controls=(control,))


def cp(theta: float, control: int, target: int) -> Gate:
    """Controlled phase (the QFT rotation R_k for theta = pi / 2^{k-1})."""
    return Gate("cp", (target,), gm.phase(theta), controls=(control,))


def ccx(control1: int, control2: int, target: int) -> Gate:
    return Gate("ccx", (target,), gm.X, controls=(control1, control2))


def cnx(controls: Sequence[int], target: int,
        control_states: Optional[Sequence[int]] = None) -> Gate:
    """The multi-controlled X gate C^n(X), with optional anti-controls."""
    return Gate("cnx", (target,), gm.X, controls=tuple(controls),
                control_states=control_states)


def cnz(controls: Sequence[int], target: int) -> Gate:
    return Gate("cnz", (target,), gm.Z, controls=tuple(controls))


def cnu(controls: Sequence[int], target: int, matrix: np.ndarray,
        name: str = "cnu",
        control_states: Optional[Sequence[int]] = None) -> Gate:
    return Gate(name, (target,), matrix, controls=tuple(controls),
                control_states=control_states)


def swap(a: int, b: int) -> Gate:
    return Gate("swap", (a, b), gm.SWAP)


def proj(qubit: int, outcome: int) -> Gate:
    """The measurement projector |outcome><outcome| on one qubit."""
    if outcome not in (0, 1):
        raise ValueError("measurement outcome must be 0 or 1")
    return Gate(f"proj{outcome}", (qubit,), gm.P1 if outcome else gm.P0)


def kraus(name: str, qubit: int, matrix: np.ndarray) -> Gate:
    """An arbitrary (generally non-unitary) single-qubit Kraus operator."""
    return Gate(name, (qubit,), matrix)


def scaled_i(qubit: int, factor: float) -> Gate:
    """``factor * I`` — e.g. the sqrt(p) I element of a bit-flip channel."""
    return Gate("kI", (qubit,), factor * gm.I)


def scaled_x(qubit: int, factor: float) -> Gate:
    """``factor * X`` — e.g. the sqrt(1-p) X element of a bit-flip channel."""
    return Gate("kX", (qubit,), factor * gm.X)


def scalar(value: complex) -> Gate:
    """A zero-qubit global scalar factor."""
    return Gate("scalar", (), np.array([[value]], dtype=complex))
