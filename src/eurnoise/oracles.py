"""Independent routes that the tests cross the closed forms against.

The runtime computes every number from the X-state closed forms. The routes
here take the long way round, on a 4x4 density matrix in the basis
{|00>, |01>, |10>, |11>} with qubit A as the most-significant qubit: Kraus
sums for the channels, LAPACK eigenvalues (numpy.linalg.eigvalsh) for the
entropies, pinching for U, S(A|B) for U_b, the Wootters formula for
concurrence, and the brute-force minimizer for discord. The Pauli eigenbases,
their overlap c and the Bell-diagonal density are built here from the Pauli
matrices alone.

This module imports from the runtime only the domain error, the Shannon
entropy, the channel contract, the Pauli pair and the brute-force minimizer;
no runtime module imports it, and an oracle never calls the closed forms it
checks. tests/test_source.py holds these rules.

Kraus conventions follow the damping parameterization in which the
amplitude-damping channel relaxes the population toward |1>:
kappa_0 = e^{-Gt/2}|0><0| + |1><1|, kappa_1 = sqrt(1-e^{-Gt}) |1><0|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from eurnoise.linalg import DomainError, shannon_entropy
from eurnoise.channels import ChannelSpec
from eurnoise.metrics import ObservablePair, minimal_missing_info_bruteforce

HERMITICITY_TOL = 1e-12
EIGENVALUE_CLAMP = 1e-9

PAULI = {
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}
IDENTITY_2 = np.eye(2, dtype=complex)


class PositivityError(DomainError):
    """A density matrix has an eigenvalue below the clamp window."""


class ChannelError(RuntimeError):
    """Channel invariant (trace preservation) broken."""


# ---- linear algebra ---------------------------------------------------------


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


def hermitian_eigenvalues(m) -> np.ndarray:
    """Real eigenvalues of a Hermitian 2x2 or 4x4 matrix, descending, from
    LAPACK (numpy.linalg.eigvalsh)."""
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


def bd_to_density(c) -> np.ndarray:
    """4x4 density (1/4)(I + sum_j c_j sigma_j x sigma_j) of correlations c,
    unchecked: a state outside the tetrahedron gives a negative eigenvalue."""
    rho = np.eye(4, dtype=complex)
    for j, c_j in zip((1, 2, 3), np.asarray(c, dtype=float), strict=True):
        rho += c_j * tensor_product(PAULI[j], PAULI[j])
    return rho / 4


# ---- Kraus channels on qubit A ------------------------------------------------


@dataclass(frozen=True)
class KrausChannel:
    operators: tuple[np.ndarray, ...]
    label: str

    def __post_init__(self):
        total = sum(k.conj().T @ k for k in self.operators)
        if not np.max(np.abs(total - IDENTITY_2)) <= 1e-10:
            raise ChannelError(f"channel {self.label!r} is not trace preserving")


def make_flip_channel(axis: int, eta: float) -> KrausChannel:
    """Bit-flip (axis 1), bit-phase-flip (axis 2), or phase-flip (axis 3)
    channel with noise probability eta."""
    ChannelSpec("flip", axis).check(eta)
    ops = (np.sqrt(1.0 - eta) * IDENTITY_2, np.sqrt(eta) * PAULI[axis])
    return KrausChannel(ops, f"flip{axis}")


def make_phase_damping(gamma_t: float) -> KrausChannel:
    """Phase-damping channel at dimensionless Gamma*t."""
    ChannelSpec("pd").check(gamma_t)
    k0 = np.array([[1.0, 0.0], [0.0, np.exp(-gamma_t / 2.0)]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [0.0, np.sqrt(1.0 - np.exp(-gamma_t))]], dtype=complex)
    return KrausChannel((k0, k1), "pd")


def make_amplitude_damping(gamma_t: float) -> KrausChannel:
    """Amplitude-damping channel at dimensionless Gamma*t (decays toward |1>)."""
    ChannelSpec("ad").check(gamma_t)
    e = np.exp(-gamma_t / 2.0)
    p = np.sqrt(max(1.0 - np.exp(-gamma_t), 0.0))
    k0 = np.array([[e, 0.0], [0.0, 1.0]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [p, 0.0]], dtype=complex)
    return KrausChannel((k0, k1), "ad")


def channel_at(spec: ChannelSpec, t: float) -> KrausChannel:
    """The Kraus channel of the family ``spec`` at sweep variable t (eta or
    Gamma*t)."""
    spec.check(t)
    if spec.kind == "flip":
        return make_flip_channel(spec.axis, t)
    if spec.kind == "pd":
        return make_phase_damping(t)
    return make_amplitude_damping(t)


def is_unital(ch: KrausChannel) -> bool:
    """True iff sum kappa kappa^dag = identity within 1e-10 (the channel fixes
    the maximally mixed state)."""
    total = sum(k @ k.conj().T for k in ch.operators)
    return bool(np.max(np.abs(total - IDENTITY_2)) <= 1e-10)


def apply_local_A(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Apply the channel to qubit A only: sum (k x I) rho (k x I)^dag."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for k in ch.operators:
        big = tensor_product(k, IDENTITY_2)
        out += big @ rho @ big.conj().T
    if not abs(np.trace(out).real - 1.0) <= 1e-9:
        raise ChannelError(f"channel {ch.label!r} broke trace preservation")
    return out


# ---- metrics on a density matrix -----------------------------------------------


def eigenbasis(axis: int) -> np.ndarray:
    """The eigenvectors of PAULI[axis] as columns, from LAPACK (numpy.linalg.eigh)."""
    return np.linalg.eigh(PAULI[axis])[1]


def complementarity(pair: ObservablePair) -> float:
    """c = max_{a,b} |<phi_a|phi_b>|^2 over the eigenbases of the pair's axes."""
    return float(np.max(np.abs(eigenbasis(pair.q).conj().T @ eigenbasis(pair.r)) ** 2))


def post_measurement_state(rho: np.ndarray, axis: int) -> np.ndarray:
    """Pinching of qubit A in the eigenbasis of Pauli axis:
    sum_a (|psi_a><psi_a| x I) rho (|psi_a><psi_a| x I). Neither the order
    nor the phase of the eigenvectors changes the sum."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for v in eigenbasis(axis).T:
        proj = tensor_product(np.outer(v, v.conj()), IDENTITY_2)
        out += proj @ rho @ proj
    return out


def conditional_entropy(rho: np.ndarray) -> float:
    """S(A|B) = S(rho_AB) - S(rho_B); negative for entangled inputs."""
    return von_neumann_entropy(rho) - von_neumann_entropy(partial_trace(rho, "B"))


def uncertainty_U(rho: np.ndarray, pair: ObservablePair) -> float:
    """S(Q|B) + S(R|B) via the pinching route."""
    return conditional_entropy(post_measurement_state(rho, pair.q)) + conditional_entropy(
        post_measurement_state(rho, pair.r)
    )


def lower_bound_Ub(rho: np.ndarray, pair: ObservablePair) -> float:
    """log2(1/c) + S(A|B), the uncertainty lower bound."""
    return float(np.log2(1.0 / complementarity(pair))) + conditional_entropy(rho)


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence from the spectrum of rho (sigma_y x sigma_y) rho*
    (sigma_y x sigma_y)."""
    rho = np.asarray(rho, dtype=complex)
    yy = tensor_product(PAULI[2], PAULI[2])
    r = rho @ yy @ rho.conj() @ yy
    # eigenvalues of the (non-Hermitian but similar-to-PSD) product
    ev = np.linalg.eigvals(r)
    ev = np.sort(np.abs(ev.real))[::-1]
    roots = np.sqrt(np.clip(ev, 0.0, None))
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def discord(rho: np.ndarray) -> float:
    """D = -S(A|B) + M, with M from the brute-force minimizer at its default
    grid, for every input, Bell-diagonal or not."""
    s_ab = conditional_entropy(rho)  # validates rho before the search
    m, _ = minimal_missing_info_bruteforce(rho)
    return m - s_ab
