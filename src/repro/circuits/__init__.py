"""Quantum circuits and their tensor-network views."""

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.wires import GateWiring, WireTracker, wire_circuit
from repro.circuits.network import register_circuit_indices
from repro.circuits import library

__all__ = [
    "QuantumCircuit", "GateWiring", "WireTracker", "wire_circuit",
    "register_circuit_indices", "library",
]
