"""Information-theoretic quantities for the two-qubit uncertainty game.

Every quantity has a closed form over arrays of X states (``xstate_*``), the runtime
route: ``xstate_entropies`` takes all that a sweep needs in one binary call and U_b's
one Shannon call (S(sigma_3|B) is M_z), and U and M select from it. A Pauli pair is
an ``ObservablePair`` of two axes (``check_pair``), and any two distinct axes have
eigenbases of overlap c = 1/2. The density-matrix routes that check the closed forms
live in ``eurnoise.oracles``; the brute-force minimizer for M stays here until the
benchmark, which reads it at this path, is repointed. It assumes no X structure:
it checks a (..., 4, 4) batch of densities, reads their Pauli correlations (a, b, T)
and scans measurements of B in the real Bloch form, all states at once.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from eurnoise.linalg import (
    DomainError, FLOAT_MAX, binary_entropy, check_count, is_axis, shannon_entropy, _stack_last,
)
from eurnoise.states import BellDiagonalState, check_one_bd
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
    unmeasured axis must equal minus the product of the measured two, within tol."""
    check_pair(pair)
    if not 0.0 <= tol <= FLOAT_MAX:  # NaN fails both comparisons
        raise DomainError(f"tol must be a finite number >= 0, got {tol!r}")
    c = check_one_bd(s)  # c[5 - q - r] is the unmeasured axis
    return bool(abs(c[5 - pair.q - pair.r] + c[pair.q - 1] * c[pair.r - 1]) <= tol)


# the density check: oracles.HERMITICITY_TOL and EIGENVALUE_CLAMP, restated, since
# the runtime never imports the oracles
_HERMITICITY_TOL = 1e-12
_EIGENVALUE_CLAMP = 1e-9


def _check_density(rho) -> np.ndarray:
    """rho as a complex (..., 4, 4) array of density matrices, or DomainError naming the fault."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise DomainError(f"density must have shape (..., 4, 4), got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise DomainError("density has a NaN or infinite entry")
    if (np.abs(rho - np.swapaxes(rho, -1, -2).conj()) > _HERMITICITY_TOL).any():
        raise DomainError(f"density is not Hermitian within {_HERMITICITY_TOL}")
    trace = np.trace(rho, axis1=-2, axis2=-1).real
    off = np.abs(trace - 1.0) > 1e-9
    if off.any():
        raise DomainError(f"density has trace {trace[off].flat[0]}, not 1")
    low = np.linalg.eigvalsh(rho)[..., 0].min(initial=0.0)
    if low < -_EIGENVALUE_CLAMP:
        raise DomainError(f"density has eigenvalue {low} below -{_EIGENVALUE_CLAMP}")
    return rho


# sigma_m x sigma_n (sigma_0 = I, A the most-significant qubit) has one nonzero entry
# per column c, in row _ROW[m, n, c], of value _PHASE[m, n, c] in {+-1, +-i}
_SIGMA = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_KRON = np.einsum("mac,nbd->mnabcd", _SIGMA, _SIGMA).reshape(4, 4, 4, 4)
_ROW = np.abs(_KRON).argmax(-2)
_PHASE = np.take_along_axis(_KRON, _ROW[..., None, :], -2)[..., 0, :]


def _pauli_correlations(rho):
    """tr(rho sigma_m x sigma_n) = [[1, b], [a, T]]: four exact terms, one order for any batch."""
    terms = (rho[..., np.arange(4), _ROW] * _PHASE).real
    return terms[..., 0] + terms[..., 1] + terms[..., 2] + terms[..., 3]


def _conditional_entropy(r, theta, xi):
    """sum_+- p+- H_bin((1 + |v+-|)/2) for B measured along n(theta, xi), angles (..., g),
    on the (..., 4, 4) Pauli correlations r = [[1, b], [a, T]]. Outcome +- along n is
    outcome + along +-n, and r (1, n) = (2p, 2p v) = (1 + b.n, a + T n)."""
    s = np.sin(2 * theta)
    n = np.stack([s * np.cos(xi), s * np.sin(xi), np.cos(2 * theta)])
    n = np.concatenate([n, -n], -1)[..., None]  # (3, ..., 2g, 1): +n, then -n
    r = r[..., None, :, :]
    u = r[..., 0] + r[..., 1] * n[0] + r[..., 2] * n[1] + r[..., 3] * n[2]  # (..., 2g, 4)
    # p = 0 adds 0; the density check's windows let 2p and |v| stray a hair past [0, 1]
    two_p = np.maximum(u[..., 0], 0.0)
    v = np.sqrt(np.square(u[..., 1]) + np.square(u[..., 2]) + np.square(u[..., 3]))
    v = np.minimum(np.divide(v, two_p, out=np.zeros_like(v), where=two_p > 0), 1.0)
    h = two_p * binary_entropy((1 + v) / 2) / 2
    return h[..., : theta.shape[-1]] + h[..., theta.shape[-1] :]


def minimal_missing_info_bruteforce(rho: np.ndarray, grid: tuple[int, int] = (181, 361)):
    """Minimize sum_k q_k S(rho_A^k) over measurements of B along n(theta, xi) = (sin 2theta
    cos xi, sin 2theta sin xi, cos 2theta): (M, (theta, xi)), floats for one (4, 4) density,
    arrays (...) for a (..., 4, 4) batch. A coarse (theta, xi) grid, whose ties within rounding
    noise break toward the smallest (theta, xi); then a 5x5 grid around each state's best
    point, its step halved on every pass from half the coarse spacing down to 1e-9 rad (an
    angle error d costs O(d^2) in M). The best point moves only on a strict improvement.
    The angles returned lie on [0, pi] x [0, 2 pi).
    """
    if np.ndim(grid) != 1 or len(grid) != 2:
        raise DomainError(f"grid must be two counts (n_theta, n_xi), got {grid!r}")
    for n in grid:
        check_count(n, "grid points per angle", 64)
    n_theta, n_xi = grid
    rho = _check_density(rho)
    r = _pauli_correlations(rho)
    thetas = np.linspace(0.0, np.pi, n_theta)
    xis = np.linspace(0.0, 2.0 * np.pi, n_xi, endpoint=False)
    vals = np.empty(r.shape[:-2] + (n_theta * n_xi,))
    for i in range(0, n_theta, 4):  # 4 theta rows at a time: temporaries stay under 1 MB
        tg, xg = np.meshgrid(thetas[i : i + 4], xis, indexing="ij")
        vals[..., i * n_xi : (i + 4) * n_xi] = _conditional_entropy(r, tg.ravel(), xg.ravel())
    # ties within rounding noise break toward the smallest (theta, xi)
    k = np.argmax(vals <= vals.min(-1, keepdims=True) + 1e-12, -1, keepdims=True)
    best = np.stack([np.take_along_axis(vals, k, -1), thetas[k // n_xi], xis[k % n_xi]])[..., 0]
    stencil_t, stencil_x = (g.ravel() for g in np.meshgrid(*[np.arange(-2.0, 3.0)] * 2))
    d_theta, d_xi = (thetas[1] - thetas[0]) / 2, (xis[1] - xis[0]) / 2
    while max(d_theta, d_xi) > 1e-9:
        tg, xg = best[1, ..., None] + d_theta * stencil_t, best[2, ..., None] + d_xi * stencil_x
        vals = _conditional_entropy(r, tg, xg)
        k = np.argmin(vals, -1, keepdims=True)[None]
        point = np.take_along_axis(np.stack([vals, tg, xg]), k, -1)[..., 0]
        best = np.where(point[0] < best[0], point, best)
        d_theta, d_xi = d_theta / 2, d_xi / 2
    m, (theta, xi) = best[0], _fold_angles(best[1], best[2])  # the steps may pass the edges
    if best.ndim == 1:  # floats for one rho
        return m.item(), (theta.item(), xi.item())
    return m, (theta, xi)


def _fold_angles(theta, xi):
    """(theta, xi) folded onto [0, pi] x [0, 2 pi), which leaves n(theta, xi) as it is:
    theta mod pi and xi mod 2 pi, where a tiny negative xi, rounded up to 2 pi, reads 0."""
    xi = np.mod(xi, 2.0 * np.pi)
    return np.mod(theta, np.pi), np.where(xi < 2.0 * np.pi, xi, 0.0)


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
    c = check_one_bd(s0)
    if np.ndim(u):
        raise DomainError(f"measured uncertainty must be a scalar, got shape {np.shape(u)}")
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
    """One H_bin call over (1 + u)/2, (1 + r +- T3)/2 and (1 + T_j)/2, and U_b's H call;
    max(T1^2, T2^2) covers |c1| < |c2| by S x S. A z outcome on B, each of weight 1/2,
    leaves A diagonal with weights (1 + r +- T3)/2, so S(sigma_3|B) = M_z exactly."""
    t = np.asarray(t, dtype=float)
    t1, t2, t3 = t[..., 0], t[..., 1], t[..., 2]
    u = np.minimum(np.sqrt(np.square(r) + np.maximum(t1 * t1, t2 * t2)), 1.0)
    h = binary_entropy(_stack_last(1.0 + u, 1 + r + t3, 1 + r - t3, 1.0 + t1, 1.0 + t2) / 2)
    m_x, h_up, h_down, s1_b, s2_b = h.transpose(-1, *range(h.ndim - 1))
    m_z = (h_up + h_down) / 2
    return XStateEntropies(s1_b, s2_b, m_z, xstate_lower_bound_Ub(r, t), m_x, m_z)


def xstate_lower_bound_Ub(r, t):
    """log2(1/c) + S(A|B) = S(rho_AB) for every Pauli pair (c = 1/2): 4 x rho_AB's
    spectrum goes into one block, a ufunc call per column, and is scaled by 1/4 in place."""
    t = np.asarray(t, dtype=float)
    t1, t2, t3 = t[..., 0], t[..., 1], t[..., 2]
    rad_m, rad_p = np.hypot(r, t1 - t2), np.hypot(r, t1 + t2)
    up, down = 1 + t3, 1 - t3
    p = np.empty(rad_m.shape + (4,))
    np.add(up, rad_m, p[..., 0])
    np.subtract(up, rad_m, p[..., 1])
    np.add(down, rad_p, p[..., 2])
    np.subtract(down, rad_p, p[..., 3])
    return shannon_entropy(np.divide(p, 4, out=p))


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
    if np.ndim(gamma_t):
        raise DomainError(f"gamma_t must be a scalar, got shape {np.shape(gamma_t)}")
    e = xstate_entropies(*ChannelSpec("ad").evolve(check_one_bd(s0), gamma_t))
    return MinimalInfoAD(float(e.m), float(e.m_x), float(e.m_z), False)
