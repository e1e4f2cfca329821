"""Information-theoretic quantities for the two-qubit uncertainty game.

Every quantity has a closed form over arrays of X states (``xstate_*``), the
runtime route: ``xstate_entropies`` takes all that a sweep needs in two checked
entropy calls, and U and M select from it. A Pauli pair is an ``ObservablePair``
of two axes (``check_pair``), and any two distinct axes have eigenbases of
overlap c = 1/2. The density-matrix routes that check the closed forms live in
``eurnoise.oracles``; the brute-force minimizer for M stays here until the
benchmark, which reads it at this path, is repointed.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from eurnoise.linalg import DomainError, binary_entropy, is_axis, shannon_entropy, _stack_last
from eurnoise.states import BellDiagonalState, check_bd
from eurnoise.channels import ChannelSpec


class WitnessNotValidError(RuntimeError):
    """The discord witness preconditions do not hold for this setup."""


@dataclass(frozen=True)
class ObservablePair:
    """Two distinct Pauli axes (``is_axis``), in the order given: q indexes the surface's rows."""

    q: int
    r: int

    def __post_init__(self):
        for axis in (self.q, self.r):
            if not is_axis(axis):
                raise DomainError(f"Pauli index must be 1, 2, or 3, got {axis}")
        if self.q == self.r:
            raise DomainError("observable pair must use two distinct Pauli axes")


def pauli_pair(j: int, k: int) -> ObservablePair:
    return ObservablePair(j, k)


def check_pair(pair) -> None:
    """The pair rule of every entry point: an ``ObservablePair``, never a plain pair."""
    if not isinstance(pair, ObservablePair):
        raise DomainError(f"observable pair must come from pauli_pair(j, k), got {pair!r}")


def spmc_holds(s: BellDiagonalState, pair: ObservablePair, tol: float = 1e-12) -> bool:
    """State-preparation-and-measurement-choice test: the coefficient on the
    unmeasured axis must equal minus the product of the measured two."""
    check_pair(pair)
    c = check_bd(s)  # c[5 - q - r] is the unmeasured axis
    return bool(abs(c[5 - pair.q - pair.r] + c[pair.q - 1] * c[pair.r - 1]) <= tol)


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
    check_pair(pair)
    c = check_bd(s0)
    if not np.isfinite(u):
        raise DomainError(f"measured uncertainty {u} is not finite")
    measured = {pair.q, pair.r}
    if noise_axis is None:
        noise_axis = max(measured, key=lambda i: abs(c[i - 1]))
    elif not is_axis(noise_axis):
        raise DomainError(f"Pauli axis must be 1, 2 or 3, got {noise_axis!r}")
    if noise_axis not in measured:
        raise WitnessNotValidError(
            f"noise axis {noise_axis} is not one of the measured observables {sorted(measured)}"
        )
    dominant = abs(c[noise_axis - 1])
    if dominant < np.abs(c).max():
        raise WitnessNotValidError(
            f"|c_{noise_axis}| = {dominant} does not dominate the other coefficients"
        )
    if not spmc_holds(c, pair, tol=1e-9):
        raise WitnessNotValidError("initial state does not satisfy the SPMC condition")
    # log2(1/c) = 1 exactly: any two distinct Pauli axes have eigenbasis overlap c = 1/2
    return 1.0 + binary_entropy((1.0 + dominant) / 2.0) - u


# ---- closed forms over the X-state family ----------------------------------
# rho = (1/4)(I + r sigma_3 x I + sum_j T_j sigma_j x sigma_j): Bell-diagonal
# states (r = 0) and their flip, phase- and amplitude-damped images. r has
# shape (...), t = (T1, T2, T3) shape (..., 3). rho_B = I/2, so each quantity
# is a Shannon entropy of explicit arrays (Luo, PRA 77, 042303 (2008); Ali,
# Rau and Alber, PRA 81, 042105 (2010)).


def _joint_spectrum(r, t1, t2, t3):  # 4 x the eigenvalues of rho_AB
    rad_m, rad_p = np.hypot(r, t1 - t2), np.hypot(r, t1 + t2)
    up, down = 1 + t3, 1 - t3
    return up + rad_m, up - rad_m, down + rad_p, down - rad_p


class XStateEntropies(namedtuple("XStateEntropies", "s1_b s2_b s3_b s_ab m_x m_z")):
    """S(sigma_j|B) for j = 1, 2, 3, S(rho_AB), and M for an x (or y) and a z measurement on B."""

    __slots__ = ()

    def uncertainty(self, pair: ObservablePair):  # U = S(sigma_q|B) + S(sigma_r|B)
        check_pair(pair)
        return self[pair.q - 1] + self[pair.r - 1]

    @property
    def m(self):  # M = min(M_x, M_z), the better measurement on B
        return np.minimum(self.m_x, self.m_z)


def xstate_entropies(r, t) -> XStateEntropies:
    """One H_bin call over (1 + u)/2, (1 + r +- T3)/2 and (1 + T_j)/2, one H call over
    (1 +- r +- T3)/4 and rho_AB's spectrum; max(T1^2, T2^2) covers |c1| < |c2| by S x S."""
    t = np.asarray(t, dtype=float)
    t1, t2, t3 = t[..., 0], t[..., 1], t[..., 2]
    u = np.minimum(np.sqrt(np.square(r) + np.maximum(t1 * t1, t2 * t2)), 1.0)
    z_up, z_down = 1 + r + t3, 1 + r - t3
    h = binary_entropy(_stack_last(1.0 + u, z_up, z_down, 1.0 + t1, 1.0 + t2) / 2)
    m_x, h_up, h_down, s1_b, s2_b = h.transpose(-1, *range(h.ndim - 1))
    p = _stack_last(z_up, z_down, 1 - r - t3, 1 - r + t3, *_joint_spectrum(r, t1, t2, t3))
    h = shannon_entropy(p.reshape(p.shape[:-1] + (2, 4)) / 4)
    s3_b, s_ab = h.transpose(-1, *range(h.ndim - 1))
    return XStateEntropies(s1_b, s2_b, s3_b - 1.0, s_ab, m_x, (h_up + h_down) / 2)


def xstate_lower_bound_Ub(r, t):
    """log2(1/c) + S(A|B) = S(rho_AB) for every Pauli pair (c = 1/2)."""
    t = np.asarray(t, dtype=float)
    return shannon_entropy(_stack_last(*_joint_spectrum(r, t[..., 0], t[..., 1], t[..., 2])) / 4)


def xstate_concurrence(r, t):
    """2 max(0, |rho_23| - sqrt(rho_11 rho_44), |rho_14| - sqrt(rho_22 rho_33))."""
    t = np.asarray(t, dtype=float)
    t1, t2, t3 = t[..., 0], t[..., 1], t[..., 2]
    r2 = np.square(r)
    a = np.abs(t1 + t2) - np.sqrt(np.maximum((1 + t3) ** 2 - r2, 0.0))
    b = np.abs(t1 - t2) - np.sqrt(np.maximum((1 - t3) ** 2 - r2, 0.0))
    return np.maximum(np.maximum(a, b) / 2, 0.0)


# ---- the amplitude-damped entry point on the core --------------------------


@dataclass(frozen=True)
class MinimalInfoAD:
    m: float
    m_x: float | None
    m_z: float | None
    used_fallback: bool


def minimal_missing_info_ad(s0: BellDiagonalState, gamma_t: float) -> MinimalInfoAD:
    """Closed-form minimal missing information for an amplitude-damped
    Bell-diagonal state, over the whole tetrahedron."""
    e = xstate_entropies(*ChannelSpec("ad").evolve(s0, gamma_t))
    return MinimalInfoAD(float(e.m), float(e.m_x), float(e.m_z), False)
