"""Small-matrix complex linear algebra and entropy primitives.

Everything here works on plain 2x2 / 4x4 numpy arrays in the computational
basis {|00>, |01>, |10>, |11>}, with qubit A as the most-significant qubit.
All entropies are in bits (log base 2).
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12
EIGENVALUE_CLAMP = 1e-9

PAULI = {
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}
IDENTITY_2 = np.eye(2, dtype=complex)
IDENTITY_4 = np.eye(4, dtype=complex)


class DomainError(ValueError):
    """Input violates a documented precondition."""


class NumericError(RuntimeError):
    """A numeric routine failed to converge."""


class PositivityError(DomainError):
    """A density matrix has an eigenvalue below the clamp window."""


def _as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 4):
        raise DomainError(f"expected a 2x2 or 4x4 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise DomainError("matrix contains NaN or Inf entries")
    return m


def is_hermitian(m, tol: float = HERMITICITY_TOL) -> bool:
    m = _as_matrix(m)
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def binary_entropy(p):
    """H_bin(p) = -p log2 p - (1-p) log2 (1-p), with 0 log 0 = 0; elementwise,
    and a float for scalar p."""
    p = np.asarray(p, dtype=float)
    bad = p[~((p >= -1e-12) & (p <= 1 + 1e-12))]
    if bad.size:
        raise DomainError(f"binary entropy argument {bad.flat[0]} outside [0, 1]")
    p = np.clip(p, 0.0, 1.0)
    return shannon_entropy(np.stack([p, 1.0 - p], axis=-1))


def shannon_entropy(p):
    """Shannon entropy in bits over the last axis, with 0 log 0 = 0; a float
    for a single probability vector."""
    p = np.asarray(p, dtype=float)
    bad = p[~((p >= -1e-12) & (p < np.inf))]
    if bad.size:
        raise DomainError(f"probability {bad.flat[0]} is negative or not finite")
    total = p.sum(axis=-1)
    off = np.abs(total - 1.0) > 1e-9
    if np.any(off):
        raise DomainError(f"probabilities sum to {total[off].flat[0]}, not 1")
    p = np.clip(p, 0.0, None)
    # + 0.0 turns the -0.0 of a pure distribution into +0.0
    h = -np.sum(p * np.log2(np.where(p > 0.0, p, 1.0)), axis=-1) + 0.0
    return float(h) if h.ndim == 0 else h


def _eigvals_2x2(m: np.ndarray) -> np.ndarray:
    # closed quadratic formula for a 2x2 Hermitian matrix
    a = m[0, 0].real
    d = m[1, 1].real
    b = abs(m[0, 1])
    half_tr = 0.5 * (a + d)
    rad = np.sqrt(0.25 * (a - d) ** 2 + b * b)
    return np.array([half_tr + rad, half_tr - rad])


def _off_diagonal_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.sqrt(np.sum(np.abs(off) ** 2)))


def _jacobi_eigvals(m: np.ndarray, off_tol: float = 1e-14, max_sweeps: int = 100) -> np.ndarray:
    a = m.astype(complex).copy()
    n = a.shape[0]
    for _ in range(max_sweeps):
        off = _off_diagonal_norm(a)
        if off < off_tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) == 0.0:
                    continue
                app = a[p, p].real
                aqq = a[q, q].real
                # unitary rotation zeroing a[p,q]: absorb the phase of a[p,q],
                # then a real Jacobi rotation on the (p,q) plane
                phase = apq / abs(apq)
                theta = 0.5 * np.arctan2(2.0 * abs(apq), app - aqq)
                c = np.cos(theta)
                s = np.sin(theta)
                u = np.eye(n, dtype=complex)
                u[p, p] = c
                u[p, q] = s * phase
                u[q, p] = -s
                u[q, q] = c * phase
                a = u @ a @ u.conj().T
    else:
        off = _off_diagonal_norm(a)
        if off >= off_tol:
            raise NumericError(f"Jacobi sweep did not converge; off-diagonal residual {off:.3e}")
    return np.diag(a).real


def hermitian_eigenvalues(m, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Real eigenvalues of a Hermitian 2x2 or 4x4 matrix, descending.

    2x2 inputs use the closed quadratic formula; 4x4 inputs use cyclic
    Jacobi rotations.
    """
    m = _as_matrix(m)
    if not is_hermitian(m, tol):
        raise DomainError("matrix is not Hermitian within tolerance")
    if m.shape[0] == 2:
        ev = _eigvals_2x2(m)
    else:
        ev = _jacobi_eigvals(m)
    return np.sort(ev)[::-1]


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
