"""Bell-diagonal and general two-qubit state representations.

A Bell-diagonal state is fixed by three real correlation coefficients
(c1, c2, c3); validity is membership in the tetrahedron of states with
all four Bell-basis eigenvalues non-negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from eurnoise.linalg import (
    DomainError,
    PAULI,
    is_hermitian,
    hermitian_eigenvalues,
    tensor_product,
)

TETRAHEDRON_TOL = 1e-12


@dataclass(frozen=True)
class BellDiagonalState:
    c1: float
    c2: float
    c3: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.c1, self.c2, self.c3)

    def __getitem__(self, axis: int) -> float:
        # Pauli-axis indexing: s[1] = c1, s[2] = c2, s[3] = c3
        return self.as_tuple()[axis - 1]


@dataclass(frozen=True)
class SpectrumBD:
    """Eigenvalues in the Bell basis, ordered (Phi+, Phi-, Psi+, Psi-)."""

    lambda_phi_plus: float
    lambda_phi_minus: float
    lambda_psi_plus: float
    lambda_psi_minus: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [
                self.lambda_phi_plus,
                self.lambda_phi_minus,
                self.lambda_psi_plus,
                self.lambda_psi_minus,
            ]
        )


def bell_eigenvalues(s: BellDiagonalState, check: bool = True) -> SpectrumBD:
    """Closed-form Bell-basis spectrum of a Bell-diagonal state."""
    c1, c2, c3 = s.as_tuple()
    spec = SpectrumBD(
        lambda_phi_plus=(1 + c1 - c2 + c3) / 4,
        lambda_phi_minus=(1 - c1 + c2 + c3) / 4,
        lambda_psi_plus=(1 + c1 + c2 - c3) / 4,
        lambda_psi_minus=(1 - c1 - c2 - c3) / 4,
    )
    if check and np.min(spec.as_array()) < -TETRAHEDRON_TOL:
        raise DomainError(f"state {s} lies outside the Bell-diagonal tetrahedron")
    return spec


def is_valid(s: BellDiagonalState) -> bool:
    """True iff (c1, c2, c3) lies inside the tetrahedron of physical states."""
    spec = bell_eigenvalues(s, check=False)
    return bool(np.min(spec.as_array()) >= -TETRAHEDRON_TOL)


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
    if not is_valid(s):
        raise DomainError(f"state {s} lies outside the Bell-diagonal tetrahedron")
    return x_state_density(0.0, s.as_tuple())


def density_to_correlations(rho: np.ndarray) -> tuple[float, float, float, bool]:
    """Correlation traces C_j = tr(rho sigma_j x sigma_j) plus a flag that is
    true iff rho is itself Bell-diagonal (reconstructs entry-wise to 1e-10)."""
    check_density(rho)
    cs = tuple(
        float(np.trace(rho @ tensor_product(PAULI[j], PAULI[j])).real) for j in (1, 2, 3)
    )
    s = BellDiagonalState(*cs)
    flag = False
    if is_valid(s):
        flag = bool(np.max(np.abs(bd_to_density(s) - rho)) <= 1e-10)
    return cs[0], cs[1], cs[2], flag


def check_density(rho: np.ndarray) -> np.ndarray:
    """Validate Hermiticity, unit trace, and positivity of a 4x4 density."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DomainError(f"expected a 4x4 density, got shape {rho.shape}")
    if not is_hermitian(rho, tol=1e-9):
        raise DomainError("density is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        raise DomainError(f"density trace {np.trace(rho).real} differs from 1")
    ev = hermitian_eigenvalues(rho, tol=1e-9)
    if np.min(ev) < -1e-9:
        raise DomainError(f"density eigenvalue {np.min(ev)} below clamp window")
    return rho


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
    if not is_valid(s):
        raise DomainError(f"state {text!r} lies outside the Bell-diagonal tetrahedron")
    return s


def random_bd_states(n: int, rng: np.random.Generator) -> list[BellDiagonalState]:
    """Uniform sample over the tetrahedron by rejection from the cube."""
    out: list[BellDiagonalState] = []
    while len(out) < n:
        c = rng.uniform(-1.0, 1.0, size=3)
        s = BellDiagonalState(*c)
        if is_valid(s):
            out.append(s)
    return out
