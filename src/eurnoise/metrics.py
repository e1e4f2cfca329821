"""Information-theoretic quantities for the two-qubit uncertainty game.

Every quantity has a closed form over arrays of X states (``xstate_*``), the
runtime route. The general density-matrix routes (pinching, Jacobi, Wootters,
the brute-force minimizer) are the oracles the test suite crosses them against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from eurnoise.linalg import (
    DomainError,
    IDENTITY_2,
    PAULI,
    binary_entropy,
    partial_trace,
    shannon_entropy,
    tensor_product,
    von_neumann_entropy,
)
from eurnoise.states import BellDiagonalState, density_to_correlations, is_valid
from eurnoise.channels import amplitude_damped_xstate


class WitnessNotValidError(RuntimeError):
    """The discord witness preconditions do not hold for this setup."""


@dataclass(frozen=True)
class PauliObservable:
    index: int
    eigenbasis: tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class ObservablePair:
    q: PauliObservable
    r: PauliObservable

    def __post_init__(self):
        if self.q.index == self.r.index:
            raise DomainError("observable pair must use two distinct Pauli axes")


_EIGENBASES = {
    1: (np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)),
    2: (np.array([1, 1j]) / np.sqrt(2), np.array([1, -1j]) / np.sqrt(2)),
    3: (np.array([1, 0]), np.array([0, 1])),
}


def pauli_observable(index: int) -> PauliObservable:
    if index not in (1, 2, 3):
        raise DomainError(f"Pauli index must be 1, 2, or 3, got {index}")
    plus, minus = _EIGENBASES[index]
    return PauliObservable(index, (plus.astype(complex), minus.astype(complex)))


def pauli_pair(j: int, k: int) -> ObservablePair:
    return ObservablePair(pauli_observable(j), pauli_observable(k))


def complementarity_raw(q: PauliObservable, r: PauliObservable) -> float:
    """max_{a,b} |<phi_a|phi_b>|^2 over the two eigenbases (no distinctness
    check; identical observables give 1)."""
    return max(
        float(abs(np.vdot(a, b)) ** 2) for a in q.eigenbasis for b in r.eigenbasis
    )


def complementarity(pair: ObservablePair) -> float:
    return complementarity_raw(pair.q, pair.r)


def post_measurement_state(rho: np.ndarray, x: PauliObservable) -> np.ndarray:
    """Pinching of qubit A in the eigenbasis of x:
    sum_a (|psi_a><psi_a| x I) rho (|psi_a><psi_a| x I)."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for v in x.eigenbasis:
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
    c = complementarity(pair)
    return float(np.log2(1.0 / c)) + conditional_entropy(rho)


@dataclass(frozen=True)
class UncertaintyReport:
    u: float
    u_b: float
    c: float
    slack: float


def uncertainty_report(rho: np.ndarray, pair: ObservablePair) -> UncertaintyReport:
    u = uncertainty_U(rho, pair)
    u_b = lower_bound_Ub(rho, pair)
    return UncertaintyReport(u, u_b, complementarity(pair), u - u_b)


def spmc_holds(s: BellDiagonalState, pair: ObservablePair, tol: float = 1e-12) -> bool:
    """State-preparation-and-measurement-choice test: the coefficient on the
    unmeasured axis must equal minus the product of the measured two."""
    i = ({1, 2, 3} - {pair.q.index, pair.r.index}).pop()
    return abs(s[i] + s[pair.q.index] * s[pair.r.index]) <= tol


def _is_x_matrix(rho: np.ndarray, tol: float = 1e-12) -> bool:
    off = [(0, 1), (0, 2), (1, 3), (2, 3)]
    return all(abs(rho[i, j]) <= tol and abs(rho[j, i]) <= tol for i, j in off)


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence; for X-structured inputs also checks the
    closed form 2 max(0, |rho_23|-sqrt(rho_11 rho_44), |rho_14|-sqrt(rho_22 rho_33))."""
    rho = np.asarray(rho, dtype=complex)
    yy = tensor_product(PAULI[2], PAULI[2])
    r = rho @ yy @ rho.conj() @ yy
    # eigenvalues of the (non-Hermitian but similar-to-PSD) product
    ev = np.linalg.eigvals(r)
    ev = np.sort(np.abs(ev.real))[::-1]
    roots = np.sqrt(np.clip(ev, 0.0, None))
    c_general = max(0.0, roots[0] - roots[1] - roots[2] - roots[3])
    if _is_x_matrix(rho):
        c_x = 2.0 * max(
            0.0,
            abs(rho[1, 2]) - np.sqrt(max(rho[0, 0].real * rho[3, 3].real, 0.0)),
            abs(rho[0, 3]) - np.sqrt(max(rho[1, 1].real * rho[2, 2].real, 0.0)),
        )
        if abs(c_x - c_general) > 1e-8:
            raise RuntimeError(
                f"X-state concurrence {c_x} disagrees with Wootters route {c_general}"
            )
    return float(c_general)


def _measurement_kets(theta, xi):
    """Projective-measurement basis {cos t|0> + e^{i xi} sin t|1>,
    e^{-i xi} sin t|0> - cos t|1>} for array-valued angles."""
    theta = np.asarray(theta, dtype=float)
    xi = np.asarray(xi, dtype=float)
    ct, st = np.cos(theta), np.sin(theta)
    phase = np.exp(1j * xi)
    b0 = np.stack([ct + 0j, phase * st], axis=-1)
    b1 = np.stack([np.conj(phase) * st, -ct + 0j], axis=-1)
    return np.stack([b0, b1], axis=-2)  # (..., outcome, component)


def _avg_conditional_entropy(rho_t: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """sum_k q_k S(rho_A^k) for a batch of measurement bases on B.

    rho_t: density reshaped to (2, 2, 2, 2) as (a, b, a', b').
    kets: (..., 2 outcomes, 2 components). Returns shape (...,).
    """
    m = np.einsum("...kb,abcd,...kd->...kac", kets.conj(), rho_t, kets)
    q = np.einsum("...kaa->...k", m).real
    m00 = m[..., 0, 0].real
    m11 = m[..., 1, 1].real
    rad = np.sqrt(np.clip(0.25 * (m00 - m11) ** 2 + np.abs(m[..., 0, 1]) ** 2, 0.0, None))
    lam_hi = 0.5 * q + rad
    lam_lo = np.clip(0.5 * q - rad, 0.0, None)

    def xlog2x(v):
        out = np.zeros_like(v)
        nz = v > 0.0
        out[nz] = v[nz] * np.log2(v[nz])
        return out

    # sum_k q_k S(rho_A^k) with rho_A^k = m_k / q_k:
    # q S(m/q) = q log2 q - lam_hi log2 lam_hi - lam_lo log2 lam_lo
    contrib = xlog2x(q) - xlog2x(lam_hi) - xlog2x(lam_lo)
    contrib[q < 1e-14] = 0.0
    return np.sum(contrib, axis=-1)


def minimal_missing_info_bruteforce(
    rho: np.ndarray, grid: tuple[int, int] = (181, 361)
) -> tuple[float, tuple[float, float]]:
    """Minimize sum_k q_k S(rho_A^k) over projective measurements on B.

    Coarse (theta, xi) grid, then alternating ternary refinement of each
    angle until the improvement drops below 1e-10 bits. Ties on the coarse
    grid break toward the lexicographically smallest (theta, xi).
    """
    n_theta, n_xi = grid
    if n_theta < 64 or n_xi < 64:
        raise DomainError(f"grid {grid} too coarse; need >= 64 points per angle")
    rho_t = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    thetas = np.linspace(0.0, np.pi, n_theta)
    xis = np.linspace(0.0, 2.0 * np.pi, n_xi, endpoint=False)
    tg, xg = np.meshgrid(thetas, xis, indexing="ij")
    # blocks of 16 theta rows keep the per-basis temporaries to a few MB
    vals = np.concatenate(
        [
            _avg_conditional_entropy(rho_t, _measurement_kets(tg[i : i + 16], xg[i : i + 16]))
            for i in range(0, n_theta, 16)
        ]
    )
    # ties within rounding noise break toward the smallest (theta, xi)
    flat = int(np.flatnonzero(vals.ravel() <= vals.min() + 1e-12)[0])
    ti, xi_i = divmod(flat, n_xi)
    best_theta, best_xi = float(thetas[ti]), float(xis[xi_i])
    best = float(vals[ti, xi_i])

    def f(theta, xi):
        return float(_avg_conditional_entropy(rho_t, _measurement_kets(theta, xi)))

    d_theta = thetas[1] - thetas[0]
    d_xi = xis[1] - xis[0]
    while True:
        prev = best
        best_theta, best = _ternary(lambda t: f(t, best_xi), best_theta, d_theta, best)
        best_xi, best = _ternary(lambda x: f(best_theta, x), best_xi, d_xi, best)
        if prev - best < 1e-10:
            break
    return best, (best_theta, best_xi)


def _ternary(f, center: float, halfwidth: float, fbest: float):
    lo, hi = center - halfwidth, center + halfwidth
    for _ in range(80):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) <= f(m2):
            hi = m2
        else:
            lo = m1
        if hi - lo < 1e-12:
            break
    x = 0.5 * (lo + hi)
    fx = f(x)
    if fx < fbest:
        return x, fx
    return center, fbest


def discord(rho: np.ndarray, grid: tuple[int, int] = (181, 361)) -> float:
    """D = -S(A|B) + M; Bell-diagonal inputs use the closed-form M, anything
    else the brute-force minimizer."""
    c1, c2, c3, bd = density_to_correlations(rho)
    if bd:
        m = minimal_missing_info_bd(BellDiagonalState(c1, c2, c3))
    else:
        m, _ = minimal_missing_info_bruteforce(rho, grid)
    return -conditional_entropy(rho) + m


def witness_discord_from_U(
    s0: BellDiagonalState,
    pair: ObservablePair,
    u: float,
    noise_axis: int | None = None,
    extrapolated: bool = False,
) -> float:
    """Discord from a measured uncertainty via D = const - U, with
    const = log2(1/c) + H_bin((1 + |c_i|)/2) for the noise axis i.

    Applicability: the noise axis must be one of the measured observables,
    its coefficient must dominate in magnitude, and the initial state must
    satisfy the matching SPMC condition. ``extrapolated`` acknowledges use
    past the eta = 1/2 dephasing fixed point.
    """
    measured = {pair.q.index, pair.r.index}
    if noise_axis is None:
        noise_axis = max(measured, key=lambda i: abs(s0[i]))
    if noise_axis not in measured:
        raise WitnessNotValidError(
            f"noise axis {noise_axis} is not one of the measured observables {sorted(measured)}"
        )
    others = [i for i in (1, 2, 3) if i != noise_axis]
    if not all(abs(s0[noise_axis]) >= abs(s0[i]) for i in others):
        raise WitnessNotValidError(
            f"|c_{noise_axis}| = {abs(s0[noise_axis])} does not dominate the other coefficients"
        )
    if not spmc_holds(s0, pair, tol=1e-9):
        raise WitnessNotValidError("initial state does not satisfy the SPMC condition")
    const = float(np.log2(1.0 / complementarity(pair))) + binary_entropy(
        (1.0 + abs(s0[noise_axis])) / 2.0
    )
    return const - u


# ---- closed forms over the X-state family ----------------------------------
# rho = (1/4)(I + r sigma_3 x I + sum_j T_j sigma_j x sigma_j): Bell-diagonal
# states (r = 0) and their flip, phase- and amplitude-damped images. r has
# shape (...), t = (T1, T2, T3) shape (..., 3). rho_B = I/2, so each quantity
# is a Shannon entropy of explicit arrays (Luo, PRA 77, 042303 (2008); Ali,
# Rau and Alber, PRA 81, 042105 (2010)).


def _xstate_conditional_entropy(r, t, index: int):
    """S(sigma_index|B): H{(1 +- r +- T3)/4} - 1 for sigma_3, else
    H_bin((1 + T_index)/2)."""
    t = np.asarray(t, dtype=float)
    if index != 3:
        return binary_entropy((1.0 + t[..., index - 1]) / 2.0)
    t3 = t[..., 2]
    p = np.stack([1 + r + t3, 1 + r - t3, 1 - r - t3, 1 - r + t3], axis=-1)
    return shannon_entropy(p / 4) - 1.0


def xstate_uncertainty_U(r, t, pair: ObservablePair):
    q, k = pair.q.index, pair.r.index
    return _xstate_conditional_entropy(r, t, q) + _xstate_conditional_entropy(r, t, k)


def xstate_lower_bound_Ub(r, t):
    """log2(1/c) + S(A|B) = S(rho_AB) for every Pauli pair (c = 1/2)."""
    t1, t2, t3 = np.moveaxis(np.asarray(t, dtype=float), -1, 0)
    rad_m, rad_p = np.hypot(r, t1 - t2), np.hypot(r, t1 + t2)
    ev = np.stack([1 + t3 + rad_m, 1 + t3 - rad_m, 1 - t3 + rad_p, 1 - t3 - rad_p], axis=-1)
    return shannon_entropy(ev / 4)


def xstate_concurrence(r, t):
    """2 max(0, |rho_23| - sqrt(rho_11 rho_44), |rho_14| - sqrt(rho_22 rho_33))."""
    t1, t2, t3 = np.moveaxis(np.asarray(t, dtype=float), -1, 0)
    r2 = np.square(r)
    a = np.abs(t1 + t2) - np.sqrt(np.maximum((1 + t3) ** 2 - r2, 0.0))
    b = np.abs(t1 - t2) - np.sqrt(np.maximum((1 - t3) ** 2 - r2, 0.0))
    return np.maximum(np.maximum(a, b) / 2, 0.0)


def xstate_minimal_missing_info(r, t):
    """(M, M_x, M_z) with M = min(M_x, M_z), the better of an x (or y) and a z
    measurement on B. The larger of T1^2 and T2^2 covers |c1| < |c2| through
    the S x S symmetry that swaps them."""
    t1, t2, t3 = np.moveaxis(np.asarray(t, dtype=float), -1, 0)
    u = np.minimum(np.sqrt(np.square(r) + np.maximum(t1 * t1, t2 * t2)), 1.0)
    m_x = binary_entropy((1.0 + u) / 2.0)
    m_z = (binary_entropy((1 + r + t3) / 2) + binary_entropy((1 + r - t3) / 2)) / 2
    return np.minimum(m_x, m_z), m_x, m_z


# ---- Bell-diagonal and amplitude-damped entry points on the core -----------


def uncertainty_U_bd(s: BellDiagonalState, pair: ObservablePair) -> float:
    """H_bin((1+c_j)/2) + H_bin((1+c_k)/2)."""
    return float(xstate_uncertainty_U(0.0, s.as_tuple(), pair))


def lower_bound_Ub_bd(s: BellDiagonalState) -> float:
    """Joint entropy over the Bell-basis spectrum."""
    return float(xstate_lower_bound_Ub(0.0, s.as_tuple()))


def minimal_missing_info_bd(s: BellDiagonalState) -> float:
    """H_bin((1 + C_max)/2)."""
    if not is_valid(s):
        raise DomainError(f"state {s} lies outside the Bell-diagonal tetrahedron")
    return float(xstate_minimal_missing_info(0.0, s.as_tuple())[0])


def discord_bd(s: BellDiagonalState) -> float:
    return minimal_missing_info_bd(s) - (lower_bound_Ub_bd(s) - 1.0)


@dataclass(frozen=True)
class MinimalInfoAD:
    m: float
    m_x: float | None
    m_z: float | None
    used_fallback: bool


def minimal_missing_info_ad(s0: BellDiagonalState, gamma_t: float) -> MinimalInfoAD:
    """Closed-form minimal missing information for an amplitude-damped
    Bell-diagonal state: M = min{M_x, M_z}, over the whole tetrahedron."""
    if gamma_t < 0:
        raise DomainError(f"gamma_t must be >= 0, got {gamma_t}")
    r, t = amplitude_damped_xstate(s0.as_tuple(), gamma_t)
    return MinimalInfoAD(*(float(x) for x in xstate_minimal_missing_info(r, t)), False)
