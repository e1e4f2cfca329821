"""Quantum-memory-assisted entropic uncertainty under local noise."""

from eurnoise.states import BellDiagonalState
from eurnoise.metrics import ObservablePair, pauli_pair

__all__ = ["BellDiagonalState", "ObservablePair", "pauli_pair"]
