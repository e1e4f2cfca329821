"""Bell-diagonal and X-state two-qubit state representations.

A Bell-diagonal state is fixed by three real correlation coefficients
(c1, c2, c3), many states by a (..., 3) array of them; validity is membership
in the tetrahedron of states with all four Bell-basis eigenvalues non-negative.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from eurnoise.linalg import DomainError, check_count, is_axis

TETRAHEDRON_TOL = 1e-12
# signs of (c1, c2, c3), by row, in the Bell weights of (Phi+, Phi-, Psi+, Psi-)
_SIGNS = np.array([[1, -1, 1, -1], [-1, 1, 1, -1], [1, 1, -1, -1]], dtype=float)
_FLOOR = -4 * TETRAHEDRON_TOL  # w/4 >= -tol iff w >= -4 tol: scaling by 4 is exact


class BellDiagonalState(NamedTuple):
    """Immutable (c1, c2, c3) in iteration order; s[1..3] index by Pauli axis."""

    c1: float
    c2: float
    c3: float

    def as_tuple(self) -> tuple[float, float, float]:
        return tuple(self)

    def __getitem__(self, axis: int) -> float:
        if is_axis(axis):
            return tuple.__getitem__(self, axis - 1)
        raise DomainError(f"Pauli axis must be 1, 2 or 3, got {axis!r}")


def _four_weights(c) -> tuple[np.ndarray, np.ndarray]:
    """c as a float array (..., 3), and 4 x its Bell weights (..., 4), each
    summed left to right as written, 1 + c1 - c2 + c3 and so on."""
    c = np.asarray(c, dtype=float)
    if c.shape[-1:] != (3,):
        raise DomainError(f"correlations must have shape (..., 3), got shape {c.shape}")
    x = c[..., :, None] * _SIGNS  # a - b == a + (-b) exactly
    return c, 1.0 + x[..., 0, :] + x[..., 1, :] + x[..., 2, :]


def bell_eigenvalues(c) -> np.ndarray:
    """Bell-basis spectrum (..., 4), ordered (Phi+, Phi-, Psi+, Psi-), of
    correlations c in the tetrahedron."""
    return _four_weights(check_bd(c))[1] / 4


def is_valid(c):
    """Whether correlations c, shape (3,) or (..., 3), lie in the tetrahedron:
    a bool for one state, a bool array over the leading axes for many."""
    ok = _four_weights(c)[1].min(axis=-1) >= _FLOOR  # False for NaN: min is NaN
    return bool(ok) if ok.ndim == 0 else ok


def check_bd(c) -> np.ndarray:
    """Correlations c as a float array of shape (..., 3), or a DomainError
    naming the first state (in C order) outside the tetrahedron."""
    c, w = _four_weights(c)
    if w.size and not w.min() >= _FLOOR:  # the rule of is_valid, over every state
        states = c.reshape(-1, 3)
        bad = tuple(states[~is_valid(states)][0].tolist())
        raise DomainError(f"state {bad} lies outside the Bell-diagonal tetrahedron")
    return c


def x_state_density(r: float, t) -> np.ndarray:
    """4x4 density (1/4)(I + r sigma_3 x I + sum_j T_j sigma_j x sigma_j) of
    the X-state family with rho_B = I/2; t = (T1, T2, T3)."""
    t1, t2, t3 = t
    rho = np.diag([1 + r + t3, 1 + r - t3, 1 - r - t3, 1 - r + t3]).astype(complex)
    rho[0, 3] = rho[3, 0] = t1 - t2
    rho[1, 2] = rho[2, 1] = t1 + t2
    return rho / 4


def parse_state_literal(text: str) -> BellDiagonalState:
    """Parse the CLI literal ``bd:c1,c2,c3``."""
    if not text.startswith("bd:"):
        raise DomainError(f"state literal {text!r} must start with 'bd:'")
    parts = text[3:].split(",")
    if len(parts) != 3:
        raise DomainError(f"state literal {text!r} needs three comma-separated reals")
    try:
        c1, c2, c3 = (float(p) for p in parts)
    except ValueError as exc:
        raise DomainError(f"state literal {text!r}: {exc}") from exc
    s = BellDiagonalState(c1, c2, c3)
    check_bd(s)
    return s


def random_bd_states(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample (n, 3) over the tetrahedron by rejection from the cube; each
    round draws only the missing triples, so the stream is one triple a time."""
    check_count(n, "n", 0)
    out, k = np.empty((n, 3)), 0
    while k < n:
        c = rng.uniform(-1.0, 1.0, size=(n - k, 3))
        c = c[is_valid(c)]
        out[k : k + len(c)] = c
        k += len(c)
    return out
