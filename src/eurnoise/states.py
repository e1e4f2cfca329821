"""Bell-diagonal and X-state two-qubit state representations.

A Bell-diagonal state is fixed by three real correlation coefficients
(c1, c2, c3); validity is membership in the tetrahedron of states with
all four Bell-basis eigenvalues non-negative.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import NamedTuple

import numpy as np

from eurnoise.linalg import DomainError, check_count

TETRAHEDRON_TOL = 1e-12


class BellDiagonalState(NamedTuple):
    """Immutable (c1, c2, c3) in iteration order; s[1..3] index by Pauli axis."""

    c1: float
    c2: float
    c3: float

    def as_tuple(self) -> tuple[float, float, float]:
        return tuple(self)

    def __getitem__(self, axis: int) -> float:
        if isinstance(axis, (int, np.integer)) and axis in (1, 2, 3):
            return tuple.__getitem__(self, axis - 1)
        raise DomainError(f"Pauli axis must be 1, 2 or 3, got {axis!r}")


@dataclass(frozen=True)
class SpectrumBD:
    """Eigenvalues in the Bell basis, ordered (Phi+, Phi-, Psi+, Psi-)."""

    lambda_phi_plus: float
    lambda_phi_minus: float
    lambda_psi_plus: float
    lambda_psi_minus: float

    def as_array(self) -> np.ndarray:
        return np.array(astuple(self))


def _bell_weights(c1, c2, c3) -> tuple:
    """Bell-basis eigenvalues (Phi+, Phi-, Psi+, Psi-) by scalar arithmetic."""
    return (
        (1 + c1 - c2 + c3) / 4,
        (1 - c1 + c2 + c3) / 4,
        (1 + c1 + c2 - c3) / 4,
        (1 - c1 - c2 - c3) / 4,
    )


def bell_eigenvalues(s: BellDiagonalState) -> SpectrumBD:
    """Closed-form Bell-basis spectrum of a Bell-diagonal state."""
    return SpectrumBD(*_bell_weights(*check_bd(s).as_tuple()))


def is_valid(s: BellDiagonalState) -> bool:
    """True iff (c1, c2, c3) lies inside the tetrahedron of physical states
    (False for NaN)."""
    return all(w >= -TETRAHEDRON_TOL for w in _bell_weights(s.c1, s.c2, s.c3))


def check_bd(s: BellDiagonalState) -> BellDiagonalState:
    """s itself, or a DomainError if it lies outside the tetrahedron."""
    if not is_valid(s):
        raise DomainError(f"state {s} lies outside the Bell-diagonal tetrahedron")
    return s


def x_state_density(r: float, t) -> np.ndarray:
    """4x4 density (1/4)(I + r sigma_3 x I + sum_j T_j sigma_j x sigma_j) of
    the X-state family with rho_B = I/2; t = (T1, T2, T3)."""
    t1, t2, t3 = t
    rho = np.diag([1 + r + t3, 1 + r - t3, 1 - r - t3, 1 - r + t3]).astype(complex)
    rho[0, 3] = rho[3, 0] = t1 - t2
    rho[1, 2] = rho[2, 1] = t1 + t2
    return rho / 4


def bd_to_density(s: BellDiagonalState) -> np.ndarray:
    """4x4 density matrix (1/4)(I + sum_j c_j sigma_j x sigma_j)."""
    return x_state_density(0.0, check_bd(s).as_tuple())


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
    return check_bd(BellDiagonalState(c1, c2, c3))


def random_bd_states(n: int, rng: np.random.Generator) -> list[BellDiagonalState]:
    """Uniform sample over the tetrahedron by rejection from the cube."""
    check_count(n, "n", 0)
    out: list[BellDiagonalState] = []
    while len(out) < n:
        c = rng.uniform(-1.0, 1.0, size=3)
        s = BellDiagonalState(*c)
        if is_valid(s):
            out.append(s)
    return out
