"""Entropy primitives over arrays, the domain error and the count rule.

All entropies are in bits (log base 2) and broadcast over leading axes.
"""

from __future__ import annotations

import numpy as np

FLOAT_MAX = float(np.finfo(float).max)  # x <= FLOAT_MAX iff x is finite or -inf


class DomainError(ValueError):
    """Input violates a documented precondition."""


def is_integer(x) -> bool:
    """The rule for counts, axes and indices: an int or numpy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def is_axis(x) -> bool:
    """The rule for a Pauli axis: an integer (``is_integer``) equal to 1, 2 or 3."""
    return is_integer(x) and x in (1, 2, 3)


def check_count(n, name: str, least: int) -> None:
    """A count must be an integer of at least `least`."""
    if not is_integer(n) or n < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {n!r}")


def _first_outside(x: np.ndarray, lo: float, hi: float):
    """The first entry of x outside [lo, hi] (NaN included), or None; only an
    array that fails the min/max test pays for the masked search."""
    if x.size == 0 or (x.min() >= lo and x.max() <= hi):
        return None
    return x[~((x >= lo) & (x <= hi))].flat[0]


def _stack_last(*cols) -> np.ndarray:
    """np.stack(cols, axis=-1), less its overhead; cols broadcast to cols[0]."""
    out = np.empty(np.shape(cols[0]) + (len(cols),))
    for j, col in enumerate(cols):
        out[..., j] = col
    return out


def _entropy_bits(p: np.ndarray):
    # checked, non-negative p in, bits out. 0 log 0 = 0: the log sees the least
    # subnormal for 0, and 0.0 - sum gives +0.0, never -0.0, on a pure state
    h = 0.0 - (p * np.log2(np.maximum(p, 5e-324))).sum(axis=-1)
    return float(h) if h.ndim == 0 else h


def binary_entropy(p):
    """H_bin(p) = -p log2 p - (1-p) log2 (1-p), with 0 log 0 = 0; elementwise,
    and a float for scalar p."""
    p = np.asarray(p, dtype=float)
    bad = _first_outside(p, -1e-12, 1 + 1e-12)
    if bad is not None:
        raise DomainError(f"binary entropy argument {bad} outside [0, 1]")
    p = np.minimum(np.maximum(p, 0.0), 1.0)
    return _entropy_bits(_stack_last(p, 1.0 - p))


def shannon_entropy(p):
    """Shannon entropy in bits over the last axis, with 0 log 0 = 0; a float
    for a single probability vector."""
    p = np.asarray(p, dtype=float)
    bad = _first_outside(p, -1e-12, FLOAT_MAX)
    if bad is not None:
        raise DomainError(f"probability {bad} is negative or not finite")
    total = p.sum(axis=-1)
    off = np.abs(total - 1.0) > 1e-9
    if off.any():
        raise DomainError(f"probabilities sum to {total[off].flat[0]}, not 1")
    return _entropy_bits(np.maximum(p, 0.0))
