"""Quantum-memory-assisted entropic uncertainty under local noise."""

from eurnoise.states import BellDiagonalState
from eurnoise.metrics import ObservablePair, pauli_observable

__all__ = ["BellDiagonalState", "ObservablePair", "pauli_observable"]
