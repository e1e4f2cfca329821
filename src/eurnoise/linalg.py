"""Small-matrix complex linear algebra and entropy primitives.

Everything here works on plain 2x2 / 4x4 numpy arrays in the computational
basis {|00>, |01>, |10>, |11>}, with qubit A as the most-significant qubit.
All entropies are in bits (log base 2).
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12
EIGENVALUE_CLAMP = 1e-9
FLOAT_MAX = float(np.finfo(float).max)  # x <= FLOAT_MAX iff x is finite or -inf

PAULI = {
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}
IDENTITY_2 = np.eye(2, dtype=complex)


class DomainError(ValueError):
    """Input violates a documented precondition."""


class NumericError(RuntimeError):
    """A numeric routine failed to converge."""


class PositivityError(DomainError):
    """A density matrix has an eigenvalue below the clamp window."""


def check_count(n, name: str, least: int) -> None:
    """A count must be an int or numpy integer of at least `least`."""
    if not isinstance(n, (int, np.integer)) or n < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {n!r}")


def _as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 4):
        raise DomainError(f"expected a 2x2 or 4x4 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise DomainError("matrix contains NaN or Inf entries")
    return m


def is_hermitian(m) -> bool:
    m = _as_matrix(m)
    return bool(np.max(np.abs(m - m.conj().T)) <= HERMITICITY_TOL)


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


def hermitian_eigenvalues(m) -> np.ndarray:
    """Real eigenvalues of a Hermitian 2x2 or 4x4 matrix, descending, from
    LAPACK (numpy.linalg.eigvalsh).

    An oracle: it shares no code with the X-state closed forms that the
    tests cross it against.
    """
    m = _as_matrix(m)
    if not is_hermitian(m):
        raise DomainError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(m)[::-1]


def von_neumann_entropy(rho) -> float:
    """S(rho) = -tr(rho log2 rho) in bits."""
    rho = _as_matrix(rho)
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        raise DomainError(f"trace {np.trace(rho).real} differs from 1")
    ev = hermitian_eigenvalues(rho)
    if np.any(ev < -EIGENVALUE_CLAMP):
        raise PositivityError(f"eigenvalue {ev.min()} below clamp window")
    ev = np.clip(ev, 0.0, None)
    ev = ev / ev.sum()
    return shannon_entropy(ev)


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with the A factor on the most-significant qubit."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise DomainError(f"tensor_product expects two 2x2 matrices, got {a.shape}, {b.shape}")
    return np.kron(a, b)


def partial_trace(rho, keep: str) -> np.ndarray:
    """Reduced 2x2 density of qubit 'A' or 'B' from a 4x4 density."""
    rho = _as_matrix(rho)
    if rho.shape != (4, 4):
        raise DomainError("partial_trace expects a 4x4 matrix")
    t = rho.reshape(2, 2, 2, 2)  # (a, b, a', b')
    if keep == "A":
        return np.einsum("abcb->ac", t)
    if keep == "B":
        return np.einsum("abad->bd", t)
    raise DomainError(f"keep must be 'A' or 'B', got {keep!r}")
