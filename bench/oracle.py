"""Independent reference computations in plain numpy.

Nothing here imports eurnoise: entropies come from numpy.linalg.eigvalsh,
channels are applied as Kraus sums on qubit A (the most-significant qubit
of the basis |00>, |01>, |10>, |11>), and measurements as pinchings. The
benchmark compares the program's outputs against these functions.
"""

from __future__ import annotations

import numpy as np

PAULI = {
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}
I2 = np.eye(2, dtype=complex)


def h_bin(p: float) -> float:
    """Binary entropy in bits."""
    return entropy_of(np.array([p, 1.0 - p]))


def entropy_of(p) -> float:
    """Shannon entropy in bits of a probability vector."""
    p = np.asarray(p, dtype=float)
    p = p[p > 1e-300]
    return float(-np.sum(p * np.log2(p)))


def entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits, from numpy.linalg.eigvalsh."""
    return entropy_of(np.clip(np.linalg.eigvalsh(rho), 0.0, None))


def rho_b(rho: np.ndarray) -> np.ndarray:
    """Reduced state of qubit B (qubit A traced out)."""
    return rho.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)


def conditional_entropy(rho: np.ndarray) -> float:
    """S(A|B) = S(AB) - S(B)."""
    return entropy(rho) - entropy(rho_b(rho))


def pinch_a(rho: np.ndarray, axis: int) -> np.ndarray:
    """Measure qubit A in the eigenbasis of Pauli `axis`, forgetting the outcome."""
    _, vecs = np.linalg.eigh(PAULI[axis])
    out = np.zeros_like(rho)
    for v in vecs.T:
        p = np.kron(np.outer(v, v.conj()), I2)
        out += p @ rho @ p
    return out


def uncertainty(rho: np.ndarray, q: int, r: int) -> float:
    """U = S(Q|B) + S(R|B)."""
    return conditional_entropy(pinch_a(rho, q)) + conditional_entropy(pinch_a(rho, r))


def lower_bound(rho: np.ndarray) -> float:
    """U_b = log2(1/c) + S(A|B); two distinct Pauli observables have c = 1/2."""
    return 1.0 + conditional_entropy(rho)


def bd_density(c) -> np.ndarray:
    """(1/4)(I + sum_j c_j sigma_j x sigma_j)."""
    rho = np.eye(4, dtype=complex)
    for j in (1, 2, 3):
        rho += c[j - 1] * np.kron(PAULI[j], PAULI[j])
    return rho / 4.0


def bell_spectrum(c) -> np.ndarray:
    """Bell-basis eigenvalues (Phi+, Phi-, Psi+, Psi-) of a Bell-diagonal state."""
    c1, c2, c3 = c
    return np.array(
        [1 + c1 - c2 + c3, 1 - c1 + c2 + c3, 1 + c1 + c2 - c3, 1 - c1 - c2 - c3]
    ) / 4.0


def bd_concurrence(c) -> float:
    """Concurrence of a Bell-diagonal state: max(0, 2 lambda_max - 1)."""
    return max(0.0, 2.0 * float(np.max(bell_spectrum(c))) - 1.0)


def x_concurrence(rho: np.ndarray) -> float:
    """Concurrence of an X-shaped two-qubit density."""
    d = rho.diagonal().real
    return 2.0 * max(
        0.0,
        abs(rho[1, 2]) - np.sqrt(max(d[0] * d[3], 0.0)),
        abs(rho[0, 3]) - np.sqrt(max(d[1] * d[2], 0.0)),
    )


def bd_missing_info(c) -> float:
    """Minimal missing information of a Bell-diagonal state, H_bin((1 + max|c_j|)/2)."""
    return h_bin((1.0 + float(np.max(np.abs(c)))) / 2.0)


def kraus_flip(axis: int, eta: float) -> list[np.ndarray]:
    return [np.sqrt(1.0 - eta) * I2, np.sqrt(eta) * PAULI[axis]]


def kraus_pd(gamma_t: float) -> list[np.ndarray]:
    return [
        np.diag([1.0, np.exp(-gamma_t / 2.0)]).astype(complex),
        np.diag([0.0, np.sqrt(1.0 - np.exp(-gamma_t))]).astype(complex),
    ]


def kraus_ad(gamma_t: float) -> list[np.ndarray]:
    """Amplitude damping with the population relaxing toward |1>."""
    k1 = np.zeros((2, 2), dtype=complex)
    k1[1, 0] = np.sqrt(1.0 - np.exp(-gamma_t))
    return [np.diag([np.exp(-gamma_t / 2.0), 1.0]).astype(complex), k1]


def apply_local_a(kraus: list[np.ndarray], rho: np.ndarray) -> np.ndarray:
    """sum_k (K x I) rho (K x I)^dagger."""
    out = np.zeros_like(rho)
    for k in kraus:
        big = np.kron(k, I2)
        out += big @ rho @ big.conj().T
    return out


def evolve(c, channel: str, t: float, axis: int | None = None) -> np.ndarray:
    """Density of the Bell-diagonal state `c` after `channel` ('flip', 'pd' or
    'ad') at strength t (eta for flips, Gamma*t for damping) on qubit A."""
    kraus = {
        "flip": lambda: kraus_flip(axis, t),
        "pd": lambda: kraus_pd(t),
        "ad": lambda: kraus_ad(t),
    }[channel]()
    return apply_local_a(kraus, bd_density(c))


def correlations(rho: np.ndarray) -> tuple[float, float, float]:
    """c_j = tr(rho sigma_j x sigma_j)."""
    return tuple(float(np.trace(rho @ np.kron(PAULI[j], PAULI[j])).real) for j in (1, 2, 3))


def row(c, channel: str, t: float, pair: tuple[int, int], axis: int | None = None) -> dict:
    """Reference U, U_b, E and S(A|B) at one sweep point. Flip and phase
    damping keep the state Bell-diagonal; amplitude damping leaves an X state."""
    rho = evolve(c, channel, t, axis)
    e = x_concurrence(rho) if channel == "ad" else bd_concurrence(correlations(rho))
    return {
        "U": uncertainty(rho, *pair),
        "Ub": lower_bound(rho),
        "E": e,
        "SAB": conditional_entropy(rho),
        "rho": rho,
    }


def random_bd_triples(rng: np.random.Generator, n: int, where=None) -> list[tuple]:
    """n triples drawn uniformly from the Bell-diagonal tetrahedron,
    optionally filtered by `where(c)`."""
    out = []
    while len(out) < n:
        c = tuple(float(x) for x in rng.uniform(-1.0, 1.0, size=3))
        if np.min(bell_spectrum(c)) >= 0.0 and (where is None or where(c)):
            out.append(c)
    return out
