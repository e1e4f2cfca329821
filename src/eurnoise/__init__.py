"""Quantum-memory-assisted entropic uncertainty under local noise."""
