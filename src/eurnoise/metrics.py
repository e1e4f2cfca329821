"""Information-theoretic quantities for the two-qubit uncertainty game.

Every quantity has a closed form over arrays of X states (``xstate_*``), the
runtime route; the independent density-matrix routes that check them live in
``eurnoise.oracles``. The brute-force minimizer for M is an oracle too, but it
stays here until the benchmark, which reads it at this path, is repointed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from eurnoise.linalg import DomainError, binary_entropy, is_integer, shannon_entropy, _stack_last
from eurnoise.states import BellDiagonalState, check_bd
from eurnoise.channels import ChannelSpec


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
    """Index: an integer (``is_integer``) equal to 1, 2 or 3, as for a flip axis."""
    if not (is_integer(index) and index in (1, 2, 3)):
        raise DomainError(f"Pauli index must be 1, 2, or 3, got {index}")
    plus, minus = _EIGENBASES[index]
    return PauliObservable(index, (plus.astype(complex), minus.astype(complex)))


def pauli_pair(j: int, k: int) -> ObservablePair:
    return ObservablePair(pauli_observable(j), pauli_observable(k))


def complementarity(pair: ObservablePair) -> float:
    """max_{a,b} |<phi_a|phi_b>|^2 over the eigenbases of the pair's observables."""
    return max(
        float(abs(np.vdot(a, b)) ** 2) for a in pair.q.eigenbasis for b in pair.r.eigenbasis
    )


def spmc_holds(s: BellDiagonalState, pair: ObservablePair, tol: float = 1e-12) -> bool:
    """State-preparation-and-measurement-choice test: the coefficient on the
    unmeasured axis must equal minus the product of the measured two."""
    i = ({1, 2, 3} - {pair.q.index, pair.r.index}).pop()
    return abs(s[i] + s[pair.q.index] * s[pair.r.index]) <= tol


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

    A coarse (theta, xi) grid, whose ties within rounding noise break toward
    the lexicographically smallest (theta, xi); then a 5x5 grid around the
    best point, its step halved on every pass from half the coarse spacing
    down to 1e-9 rad (an angle error d costs O(d^2) in M). The best point
    moves only on a strict improvement.
    """
    n_theta, n_xi = grid
    if n_theta < 64 or n_xi < 64:
        raise DomainError(f"grid {grid} too coarse; need >= 64 points per angle")
    rho_t = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    thetas = np.linspace(0.0, np.pi, n_theta)
    xis = np.linspace(0.0, 2.0 * np.pi, n_xi, endpoint=False)
    vals = np.empty((n_theta, n_xi))
    for i in range(0, n_theta, 4):  # 4 theta rows at a time: temporaries stay under 1 MB
        tg, xg = np.meshgrid(thetas[i : i + 4], xis, indexing="ij")
        vals[i : i + 4] = _avg_conditional_entropy(rho_t, _measurement_kets(tg, xg))
    # ties within rounding noise break toward the smallest (theta, xi)
    flat = int(np.flatnonzero(vals.ravel() <= vals.min() + 1e-12)[0])
    ti, xi_i = divmod(flat, n_xi)
    best_theta, best_xi = float(thetas[ti]), float(xis[xi_i])
    best = float(vals[ti, xi_i])

    stencil_t, stencil_x = np.meshgrid(np.arange(-2.0, 3.0), np.arange(-2.0, 3.0))
    d_theta, d_xi = (thetas[1] - thetas[0]) / 2, (xis[1] - xis[0]) / 2
    while max(d_theta, d_xi) > 1e-9:
        tg, xg = best_theta + d_theta * stencil_t, best_xi + d_xi * stencil_x
        vals = _avg_conditional_entropy(rho_t, _measurement_kets(tg, xg))
        k = int(np.argmin(vals))
        if vals.flat[k] < best:
            best, best_theta, best_xi = float(vals.flat[k]), float(tg.flat[k]), float(xg.flat[k])
        d_theta, d_xi = d_theta / 2, d_xi / 2
    return best, (best_theta, best_xi)


def witness_discord_from_U(
    s0: BellDiagonalState,
    pair: ObservablePair,
    u: float,
    noise_axis: int | None = None,
) -> float:
    """Discord from a measured uncertainty via D = const - U, with
    const = log2(1/c) + H_bin((1 + |c_i|)/2) for the noise axis i.

    Applicability: the noise axis must be one of the measured observables,
    its coefficient must dominate in magnitude, and the initial state must
    satisfy the matching SPMC condition; u must be finite.
    """
    check_bd(s0)
    if not np.isfinite(u):
        raise DomainError(f"measured uncertainty {u} is not finite")
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
    up, down = 1 + r, 1 - r
    return shannon_entropy(_stack_last(up + t3, up - t3, down - t3, down + t3) / 4) - 1.0


def xstate_uncertainty_U(r, t, pair: ObservablePair):
    q, k = pair.q.index, pair.r.index
    return _xstate_conditional_entropy(r, t, q) + _xstate_conditional_entropy(r, t, k)


def xstate_lower_bound_Ub(r, t):
    """log2(1/c) + S(A|B) = S(rho_AB) for every Pauli pair (c = 1/2)."""
    t = np.asarray(t, dtype=float)
    t1, t2, t3 = t[..., 0], t[..., 1], t[..., 2]
    rad_m, rad_p = np.hypot(r, t1 - t2), np.hypot(r, t1 + t2)
    up, down = 1 + t3, 1 - t3
    return shannon_entropy(_stack_last(up + rad_m, up - rad_m, down + rad_p, down - rad_p) / 4)


def xstate_concurrence(r, t):
    """2 max(0, |rho_23| - sqrt(rho_11 rho_44), |rho_14| - sqrt(rho_22 rho_33))."""
    t = np.asarray(t, dtype=float)
    t1, t2, t3 = t[..., 0], t[..., 1], t[..., 2]
    r2 = np.square(r)
    a = np.abs(t1 + t2) - np.sqrt(np.maximum((1 + t3) ** 2 - r2, 0.0))
    b = np.abs(t1 - t2) - np.sqrt(np.maximum((1 - t3) ** 2 - r2, 0.0))
    return np.maximum(np.maximum(a, b) / 2, 0.0)


def xstate_minimal_missing_info(r, t):
    """(M, M_x, M_z) with M = min(M_x, M_z), the better of an x (or y) and a z
    measurement on B. The larger of T1^2 and T2^2 covers |c1| < |c2| through
    the S x S symmetry that swaps them."""
    t = np.asarray(t, dtype=float)
    t1, t2, t3 = t[..., 0], t[..., 1], t[..., 2]
    u = np.minimum(np.sqrt(np.square(r) + np.maximum(t1 * t1, t2 * t2)), 1.0)
    m_x = binary_entropy((1.0 + u) / 2.0)
    m_z = (binary_entropy((1 + r + t3) / 2) + binary_entropy((1 + r - t3) / 2)) / 2
    return np.minimum(m_x, m_z), m_x, m_z


# ---- Bell-diagonal and amplitude-damped entry points on the core -----------


def uncertainty_U_bd(s: BellDiagonalState, pair: ObservablePair) -> float:
    """H_bin((1+c_j)/2) + H_bin((1+c_k)/2)."""
    return float(xstate_uncertainty_U(0.0, check_bd(s), pair))


def lower_bound_Ub_bd(s: BellDiagonalState) -> float:
    """Joint entropy over the Bell-basis spectrum."""
    return float(xstate_lower_bound_Ub(0.0, check_bd(s)))


def minimal_missing_info_bd(s: BellDiagonalState) -> float:
    """H_bin((1 + C_max)/2)."""
    return float(xstate_minimal_missing_info(0.0, check_bd(s))[0])


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
    r, t = ChannelSpec("ad").evolve(s0, gamma_t)
    return MinimalInfoAD(*(float(x) for x in xstate_minimal_missing_info(r, t)), False)
