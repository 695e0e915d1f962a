"""QTS model builders for the paper's case studies and benchmarks.

One constructor per benchmark family of Table I (with the paper's
"commonly used input states" as the initial subspace) plus the three
worked examples of Section III.A.

Builders register the subspaces worth naming as *spec atoms*
(``qts.register_subspace``), so the specification language of
:mod:`repro.mc.specs` can reference them by name: grover registers
``inv``/``plus``/``marked``/``ancilla_plus``, ghz ``zero``/``target``,
bitflip ``errors``/``codeword``, qrw ``start`` — and ``init`` always
denotes the initial subspace of any model.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.circuits.library import (bernstein_vazirani,
                                    bitflip_kraus_circuits, cuccaro_adder,
                                    ghz_circuit, grover_iteration,
                                    hidden_shift_circuit, qft_circuit,
                                    qpe_circuit, qrw_step,
                                    qrw_noisy_kraus_circuits,
                                    w_state_circuit)
from repro.errors import SystemError_
from repro.systems.operations import QuantumOperation
from repro.systems.qts import QuantumTransitionSystem
from repro.utils.bitops import int_to_bits

_PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2)
_MINUS = np.array([1, -1], dtype=complex) / math.sqrt(2)
_ZERO = np.array([1, 0], dtype=complex)
_ONE = np.array([0, 1], dtype=complex)


def ghz_qts(num_qubits: int) -> QuantumTransitionSystem:
    """GHZ preparation from ``S0 = span{|0...0>}``.

    Registered spec atoms: ``zero`` (the all-zero basis ray) and
    ``target`` (the GHZ state ``(|0...0> + |1...1>)/sqrt(2)``).
    """
    op = QuantumOperation.unitary("ghz", ghz_circuit(num_qubits))
    qts = QuantumTransitionSystem(num_qubits, [op],
                                  name=f"ghz{num_qubits}")
    qts.set_initial_basis_states([[0] * num_qubits])
    zero = qts.space.basis_state([0] * num_qubits)
    ones = qts.space.basis_state([1] * num_qubits)
    ghz_state = (zero + ones).scaled(1 / math.sqrt(2))
    qts.register_subspace("zero", qts.space.span([zero]))
    qts.register_subspace("target", qts.space.span([ghz_state]))
    return qts


def _repeat(circuit, times: int):
    out = circuit.copy()
    for _ in range(times - 1):
        out = out.compose(circuit)
    out.name = f"{circuit.name}x{times}"
    return out


def grover_qts(num_qubits: int,
               initial: str = "plus",
               iterations: int = 1) -> QuantumTransitionSystem:
    """Grover iteration (paper, Sections III.A.1 and VI).

    ``initial`` selects the initial subspace:

    * ``"plus"`` — ``span{|+...+>|->}``, the algorithm's input state
      (the Table I benchmark configuration);
    * ``"invariant"`` — ``span{|+...+>|->, |1...1>|->}``, the invariant
      subspace of Section III.A.1 (satisfies ``T(S) = S``).

    ``iterations`` composes that many Grover iterations into one
    transition circuit.  A single iteration's operator TDD happens to
    stay compact under the qubit-major order; composing iterations
    makes the monolithic operator genuinely mix, which is the regime
    where the paper's basic-vs-contraction gap shows.
    """
    circuit = _repeat(grover_iteration(num_qubits), max(1, iterations))
    op = QuantumOperation.unitary("G", circuit)
    qts = QuantumTransitionSystem(num_qubits, [op],
                                  name=f"grover{num_qubits}")
    m = num_qubits - 1
    plus_minus = qts.space.product_state([_PLUS] * m + [_MINUS])
    ones_minus = qts.space.product_state([_ONE] * m + [_MINUS])
    if initial == "plus":
        qts.set_initial_states([plus_minus])
    elif initial == "invariant":
        qts.set_initial_states([plus_minus, ones_minus])
    else:
        raise SystemError_(f"unknown grover initial space {initial!r}")
    # spec atoms: the III.A.1 invariant plane and its two spanning rays,
    # plus the unreachable ancilla-|+> marked ray (an EF counterexample)
    qts.register_subspace("plus", qts.space.span([plus_minus]))
    qts.register_subspace("marked", qts.space.span([ones_minus]))
    qts.register_subspace("inv",
                          qts.space.span([plus_minus, ones_minus]))
    qts.register_subspace("ancilla_plus", qts.space.span(
        [qts.space.product_state([_ONE] * m + [_PLUS])]))
    return qts


def bv_qts(num_qubits: int,
           secret: Optional[Sequence[int]] = None) -> QuantumTransitionSystem:
    """Bernstein-Vazirani from ``S0 = span{|0...0>|1>}``."""
    op = QuantumOperation.unitary("bv",
                                  bernstein_vazirani(num_qubits, secret))
    qts = QuantumTransitionSystem(num_qubits, [op], name=f"bv{num_qubits}")
    qts.set_initial_basis_states([[0] * (num_qubits - 1) + [1]])
    return qts


def qft_qts(num_qubits: int) -> QuantumTransitionSystem:
    """QFT from ``S0 = span{|0...0>}``."""
    op = QuantumOperation.unitary("qft", qft_circuit(num_qubits))
    qts = QuantumTransitionSystem(num_qubits, [op], name=f"qft{num_qubits}")
    qts.set_initial_basis_states([[0] * num_qubits])
    return qts


def qrw_qts(num_qubits: int, noise_probability: float = 0.1,
            start_position: int = 0,
            steps: int = 1) -> QuantumTransitionSystem:
    """Quantum random walk with a coin bit-flip error (Section III.A.3).

    Two operations: ``T1 = S o (E_c (x) I)`` (noiseless step) and
    ``T2 = S o (E_b (x) I) o (E_c (x) I)`` (bit-flip after the coin),
    exactly the transition family of the paper's noisy-walk example and
    its ``QRW n`` benchmark rows.  ``noise_probability = 0`` degrades
    T2 to a pure X branch (sqrt(1-p) = 1).

    ``steps`` composes that many walk steps into each transition
    circuit; the noise (on T2) still occurs once, after the first coin
    toss, matching the paper's "noise occurs once" simplification.
    """
    step_circuit = _repeat(qrw_step(num_qubits), max(1, steps))
    step = QuantumOperation.unitary("T1", step_circuit)
    keep, flip = qrw_noisy_kraus_circuits(num_qubits, noise_probability)
    if steps > 1:
        tail = _repeat(qrw_step(num_qubits), steps - 1)
        keep = keep.compose(tail)
        flip = flip.compose(tail)
    noisy = QuantumOperation("T2", [keep, flip])
    qts = QuantumTransitionSystem(num_qubits, [step, noisy],
                                  name=f"qrw{num_qubits}")
    position_bits = int_to_bits(start_position, num_qubits - 1)
    qts.set_initial_basis_states([[0] + position_bits])
    qts.register_subspace("start",
                          qts.space.span([qts.space.basis_state(
                              [0] + position_bits)]))
    return qts


def qpe_qts(counting_qubits: int, phase: float) -> QuantumTransitionSystem:
    """Phase estimation of ``P(2 pi phase)`` from ``|0..0>|1>``."""
    op = QuantumOperation.unitary("qpe",
                                  qpe_circuit(counting_qubits, phase))
    qts = QuantumTransitionSystem(counting_qubits + 1, [op],
                                  name=f"qpe{counting_qubits}")
    qts.set_initial_basis_states([[0] * counting_qubits + [1]])
    return qts


def w_state_qts(num_qubits: int) -> QuantumTransitionSystem:
    """W-state preparation from ``|0...0>``."""
    op = QuantumOperation.unitary("w", w_state_circuit(num_qubits))
    qts = QuantumTransitionSystem(num_qubits, [op],
                                  name=f"wstate{num_qubits}")
    qts.set_initial_basis_states([[0] * num_qubits])
    return qts


def adder_qts(register_size: int,
              a_value: int = 0, b_value: int = 0) -> QuantumTransitionSystem:
    """Cuccaro ripple-carry adder on classical register inputs."""
    circuit = cuccaro_adder(register_size)
    op = QuantumOperation.unitary("add", circuit)
    qts = QuantumTransitionSystem(circuit.num_qubits, [op],
                                  name=f"adder{register_size}")
    bits = [0] * circuit.num_qubits
    for i in range(register_size):
        bits[1 + 2 * i] = (b_value >> i) & 1
        bits[2 + 2 * i] = (a_value >> i) & 1
    qts.set_initial_basis_states([bits])
    return qts


def hidden_shift_qts(num_qubits: int,
                     shift: Optional[Sequence[int]] = None
                     ) -> QuantumTransitionSystem:
    """Hidden-shift circuit from ``|0...0>``."""
    op = QuantumOperation.unitary("hs",
                                  hidden_shift_circuit(num_qubits, shift))
    qts = QuantumTransitionSystem(num_qubits, [op],
                                  name=f"hiddenshift{num_qubits}")
    qts.set_initial_basis_states([[0] * num_qubits])
    return qts


def bitflip_qts() -> QuantumTransitionSystem:
    """The bit-flip code corrector (Section III.A.2, Fig. 3).

    Six qubits, one operation with four Kraus circuits (one per
    syndrome outcome); ``S0 = span{|100>, |010>, |001>} (x) |000>`` —
    the single-bit-flip error states.
    """
    op = QuantumOperation("correct", bitflip_kraus_circuits())
    qts = QuantumTransitionSystem(6, [op], name="bitflip")
    qts.set_initial_basis_states([
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
    ])
    # spec atoms: the corrected codeword ray and the error states
    qts.register_subspace("codeword", qts.space.span(
        [qts.space.basis_state([0] * 6)]))
    qts.register_subspace("errors", qts.initial)
    return qts


# ----------------------------------------------------------------------
# uniform builder registry (CLI, sweep runner)
# ----------------------------------------------------------------------
#: model name -> builder; every builder takes (size, **options)
MODEL_BUILDERS = {
    "ghz": lambda size, **opts: ghz_qts(size, **opts),
    "grover": lambda size, **opts: grover_qts(size, **opts),
    "bv": lambda size, **opts: bv_qts(size, **opts),
    "qft": lambda size, **opts: qft_qts(size, **opts),
    "qrw": lambda size, **opts: qrw_qts(size, **opts),
    "qpe": lambda size, **opts: qpe_qts(size, **opts),
    "wstate": lambda size, **opts: w_state_qts(size, **opts),
    "adder": lambda size, **opts: adder_qts(size, **opts),
    "hiddenshift": lambda size, **opts: hidden_shift_qts(size, **opts),
    "bitflip": lambda size, **opts: bitflip_qts(**opts),
}


def build_model(name: str, size: int, **options) -> QuantumTransitionSystem:
    """Build a benchmark QTS by name — the single entry point shared by
    the CLI and the sweep runner.

    ``options`` are forwarded to the underlying ``*_qts`` builder
    (e.g. ``iterations`` for grover, ``noise_probability``/``steps``
    for qrw).  ``size`` is ignored by the fixed-size ``bitflip`` model.
    """
    try:
        builder = MODEL_BUILDERS[name]
    except KeyError:
        raise SystemError_(
            f"unknown model {name!r}; choose from "
            f"{sorted(MODEL_BUILDERS)}") from None
    return builder(size, **options)
