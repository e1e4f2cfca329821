"""Information-theoretic quantities for the two-qubit uncertainty game.

Every quantity has a closed form over arrays of X states (``xstate_*``), the runtime route.
One pass (``_xstate_pass``) takes every entropy of a sweep: the five binary arguments and rho_AB's
spectrum, then the complements, are the 14 rows of one block; one unit test of the first 9 settles
it, only a failure meets the kernels' checks, and one p log2 p call takes all (S(sigma_3|B) = M_z).
``xstate_columns`` turns one pass into the (..., 5) table of ``COLUMNS``: U for a pair, U_b,
D, E (the concurrence, from the pass's own sums) and M (``XStateEntropies.m``), each formed
there once; ``xstate_entropies`` returns the pass's six entropies, and U_b alone keeps one
Shannon call, or for a tiny input one hypot and one log2 call on Python floats. Every X-core
entry point takes (r, T) through ``_xstate_args``, the real-input, shape, broadcast and range
rules. A Pauli pair is an ``ObservablePair`` of two axes (``check_pair``): any two distinct
axes have eigenbases of overlap c = 1/2. The density-matrix routes that check the closed
forms live in ``eurnoise.oracles``; the brute-force minimizer for M, which assumes no X
structure, stays here until the benchmark, which reads it at this path, is repointed.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from eurnoise.linalg import DomainError, FLOAT_MAX, MAX_FLOATS, as_real, binary_entropy, is_axis
from eurnoise.linalg import check_count, shannon_entropy, _as_scalar, _in_unit, _plogp, _FEW
from eurnoise.linalg import _check_binary, _check_distribution, _entropy_floats, _first_outside
from eurnoise.states import _FLOOR, check_one_bd
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


def spmc_holds(s: np.typing.ArrayLike, pair: ObservablePair, tol: float) -> bool:
    """State-preparation-and-measurement-choice test: the coefficient on the
    unmeasured axis must equal minus the product of the measured two, within tol."""
    check_pair(pair)
    t = _as_scalar(tol, "tol")
    if not 0.0 <= t <= FLOAT_MAX:  # NaN fails both comparisons
        raise DomainError(f"tol must be a finite number >= 0, got {tol!r}")
    c = check_one_bd(s)  # c[5 - q - r] is the unmeasured axis
    return bool(abs(c[5 - pair.q - pair.r] + c[pair.q - 1] * c[pair.r - 1]) <= t)


# the density check: oracles.HERMITICITY_TOL and EIGENVALUE_CLAMP, restated, since
# the runtime never imports the oracles
_HERMITICITY_TOL = 1e-12
_EIGENVALUE_CLAMP = 1e-9


def _check_density(rho) -> np.ndarray:
    """rho as a complex (..., 4, 4) array of density matrices, or DomainError naming the fault."""
    try:
        a = np.asarray(rho)  # no dtype: text, bytes and None keep their kind
    except ValueError as exc:  # a ragged list
        raise DomainError(f"density must be real or complex numbers, got {rho!r}") from exc
    if a.dtype.kind not in "biufc":
        raise DomainError(f"density must be real or complex numbers, got {rho!r}")
    rho = a.astype(complex, copy=False)
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
    arrays (...) for a (..., 4, 4) batch. A coarse (theta, xi) grid, then the z, x and y axes (y
    is on it only if 4 divides n_xi), whose ties within rounding noise break toward the earliest
    point; then a 5x5 grid around each state's best point, its step halved on every pass from
    half the coarse spacing down to 1e-9 rad (an angle error d costs O(d^2) in M). The best point
    moves only on a strict improvement. The angles returned lie on [0, pi] x [0, 2 pi).
    """
    if np.ndim(grid) != 1 or len(grid) != 2:
        raise DomainError(f"grid must be two counts (n_theta, n_xi), got {grid!r}")
    rho = _check_density(rho)
    n_theta, n_xi = grid
    cells = MAX_FLOATS // max(rho.size // 16, 1) - 3  # per state of the scan's n_theta n_xi + 3
    check_count(n_theta, "grid points per angle", 64, cells // 64)
    check_count(n_xi, "grid points per angle", 64, cells // int(n_theta))
    n_theta, n_xi = int(n_theta), int(n_xi)  # a narrow numpy integer wraps in the grid sizes
    r = _pauli_correlations(rho)
    thetas = np.linspace(0.0, np.pi, n_theta)
    xis = np.linspace(0.0, 2.0 * np.pi, n_xi, endpoint=False)
    tg = np.append(np.repeat(thetas, n_xi), [0.0, np.pi / 4, np.pi / 4])  # then z, x and y
    xg = np.append(np.tile(xis, n_theta), [0.0, 0.0, np.pi / 2])
    vals = np.empty(r.shape[:-2] + tg.shape)  # 4 theta rows at a time: temporaries under 1 MB
    for at in np.split(np.arange(tg.size), range(4 * n_xi, tg.size, 4 * n_xi)):
        vals[..., at] = _conditional_entropy(r, tg[at], xg[at])
    k = np.argmax(vals <= vals.min(-1, keepdims=True) + 1e-12, -1, keepdims=True)
    best = np.stack([np.take_along_axis(vals, k, -1), tg[k], xg[k]])[..., 0]
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
    s0: np.typing.ArrayLike,
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
    u = float(_as_scalar(u, "measured uncertainty"))
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


COLUMNS = ("U", "Ub", "D", "E", "M")  # the columns of xstate_columns, in order
# check_bd's |c_j| <= 1 - _FLOOR, plus its weights' rounding (< 3 ulps); no factors enlarge T
_X_MAX = 1 - _FLOOR + 8 * 2.0**-52


class XStateEntropies(namedtuple("XStateEntropies", "s1_b s2_b s3_b s_ab m_x m_z")):
    """S(sigma_j|B) for j = 1, 2, 3, S(rho_AB), and M for an x (or y) and a z measurement on B."""

    __slots__ = ()

    @property
    def m(self):  # M = min(M_x, M_z), the better measurement on B
        return np.minimum(self.m_x, self.m_z)


def _spectrum_rows(r, t1, t2, t3, out=None):
    """rho_AB's spectrum, written into the rows of out (4, ...), as its (..., 4) view, and the
    sums T1 -+ T2, 1 +- T3: (up +- hypot(r, minus), down +- hypot(r, plus))/4, row by row."""
    minus, plus, up, down = t1 - t2, t1 + t2, 1 + t3, 1 - t3
    rad_m, rad_p = np.hypot(r, minus), np.hypot(r, plus)
    out = np.empty((4,) + rad_m.shape) if out is None else out
    np.add(up, rad_m, out[0, ...])
    np.subtract(up, rad_m, out[1, ...])
    np.add(down, rad_p, out[2, ...])
    np.subtract(down, rad_p, out[3, ...])
    np.multiply(out, 0.25, out=out)
    return out.transpose(*range(1, out.ndim), 0), (minus, plus, up, down)


def _concurrence(r2, minus, plus, up, down):
    """2 max(0, |rho_23| - sqrt(rho_11 rho_44), |rho_14| - sqrt(rho_22 rho_33)) from r^2,
    T1 -+ T2 and 1 +- T3."""
    a = np.abs(plus) - np.sqrt(np.maximum(up**2 - r2, 0.0))
    b = np.abs(minus) - np.sqrt(np.maximum(down**2 - r2, 0.0))
    return np.maximum(np.maximum(a, b) / 2, 0.0)


def _xstate_args(r, t):
    """X states (r, t) by the real-input rule, as float arrays: t (..., 3), r broadcasting
    against t[..., 0], every entry within _X_MAX of 0, so no later step overflows or sees NaN."""
    r, t = as_real(r, "r"), as_real(t, "T")
    if t.shape[-1:] != (3,):
        raise DomainError(f"T must have shape (..., 3), got shape {t.shape}")
    if r.shape != t.shape[:-1] and not all(  # trailing axes equal, or one of them 1
            a == b or 1 in (a, b) for a, b in zip(r.shape[::-1], t.shape[-2::-1])):
        raise DomainError(f"r of shape {r.shape} does not broadcast against T of shape {t.shape}")
    for name, x in (("r", r), ("T", t)):
        if (bad := _first_outside(x, -_X_MAX, _X_MAX)) is not None:
            raise DomainError(f"{name} entry {bad} outside [-1, 1]")
    return r, t


def _xstate_pass(r, t):
    """The ``XStateEntropies`` of X states (r, t) and the concurrence's arguments r^2,
    T1 -+ T2, 1 +- T3. The binary arguments (1 + u)/2, (1 + r +- T3)/2, (1 + T_j)/2 and
    rho_AB's spectrum are rows 0-8 of one block, the complements rows 9-13. One unit test of
    rows 0-8 settles it (the intake holds each spectrum sum within 1e-15 of 1); only a block
    that fails meets the kernels' checks, binary first. One ``_plogp`` call takes every term.
    max(T1^2, T2^2) covers |c1| < |c2| by S x S. A z outcome on B, of weight 1/2, leaves A
    diagonal with weights (1 + r +- T3)/2, so S(sigma_3|B) = M_z exactly."""
    r, t = _xstate_args(r, t)
    t1, t2, t3 = t[..., 0], t[..., 1], t[..., 2]
    r2 = np.square(r)
    u = np.sqrt(r2 + np.maximum(t1 * t1, t2 * t2))
    p = np.empty((14,) + u.shape)  # rows p (5), the spectrum (4), 1 - p (5); T_j broadcast
    last = (*range(1, p.ndim), 0)  # the (..., k) view of a (k, ...) block of rows
    row = p[0, ...]
    np.add(1.0, np.minimum(u, 1.0, out=row), out=row)  # 1 + min(u, 1)
    one_r = 1 + r
    np.add(one_r, t3, out=p[1, ...])
    np.subtract(one_r, t3, out=p[2, ...])
    np.add(1.0, t1, out=p[3, ...])
    np.add(1.0, t2, out=p[4, ...])
    binary = np.multiply(p[:5], 0.5, out=p[:5]).transpose(last)
    spectrum, sums = _spectrum_rows(r, t1, t2, t3, out=p[5:9])
    if not _in_unit(p[:9]):
        _check_binary(binary, out=binary)
        _check_distribution(spectrum, out=spectrum)
    np.subtract(1.0, p[:5], out=p[9:])
    terms = _plogp(p)
    h = np.add(terms[:5], terms[9:], out=terms[:5])
    m_x, h_up, h_down, s1_b, s2_b = np.subtract(0.0, h, out=h)  # +0.0, never -0.0
    m_z = (h_up + h_down) / 2
    s_ab = np.subtract.reduce(terms[5:9].transpose(last), -1, initial=0.0)
    s_ab = float(s_ab) if s_ab.ndim == 0 else s_ab
    return XStateEntropies(s1_b, s2_b, m_z, s_ab, m_x, m_z), (r2, *sums)


def xstate_entropies(r, t) -> XStateEntropies:
    """S(sigma_j|B) for j = 1, 2, 3, S(rho_AB), M_x and M_z of the X states (r, t), all
    from the one checked p log2 p pass of ``_xstate_pass``."""
    return _xstate_pass(r, t)[0]


def xstate_columns(r, t, pair: ObservablePair) -> np.ndarray:
    """The (..., 5) table of ``COLUMNS`` for the X states (r, t), from one pass: U for the
    checked pair, U_b = S(rho_AB), D = M - (U_b - 1), E and M = ``XStateEntropies.m``,
    the (..., 5) view of one (5, ...) block of rows."""
    check_pair(pair)
    ent, args = _xstate_pass(r, t)
    m, u_b = ent.m, ent.s_ab
    rows = np.array([ent[pair.q - 1] + ent[pair.r - 1], u_b, m - (u_b - 1.0),
                     _concurrence(*args), m])
    return rows.transpose(*range(1, rows.ndim), 0)


def xstate_lower_bound_Ub(r, t):
    """log2(1/c) + S(A|B) = S(rho_AB) for every Pauli pair (c = 1/2), over rho_AB's spectrum.
    Up to _FEW entries of T, r of T's leading shape, go by Python floats (rounding + - * as numpy
    does) with one hypot and one log2 call; the rest, and a failed fast test, go by arrays."""
    r, t = _xstate_args(r, t)
    if t.size <= _FEW and r.shape == t.shape[:-1]:  # _spectrum_rows' sums and rows
        rs, ts = r.ravel().tolist(), t.ravel().tolist()
        minus, plus = [], []
        for t1, t2 in zip(ts[0::3], ts[1::3]):
            minus.append(t1 - t2)
            plus.append(t1 + t2)
        rad = np.hypot(rs + rs, minus + plus).tolist()
        p = []
        for t3, m, q in zip(ts[2::3], rad, rad[len(rs) :]):
            up, down = 1 + t3, 1 - t3
            p += (up + m) * 0.25, (up - m) * 0.25, (down + q) * 0.25, (down - q) * 0.25
        if (h := _entropy_floats(p, 4)) is not None:
            return h[0] if r.ndim == 0 else np.array(h).reshape(r.shape)
    return shannon_entropy(_spectrum_rows(r, t[..., 0], t[..., 1], t[..., 2])[0])


# ---- the amplitude-damped entry point on the core --------------------------


@dataclass(frozen=True)
class MinimalInfoAD:
    m: float
    m_x: float | None
    m_z: float | None
    used_fallback: bool


def minimal_missing_info_ad(s0: np.typing.ArrayLike, gamma_t: float) -> MinimalInfoAD:
    """Closed-form minimal missing information for an amplitude-damped
    Bell-diagonal state, over the whole tetrahedron."""
    gamma_t = _as_scalar(gamma_t, "ad strength")  # the name ChannelSpec("ad").check uses
    e = xstate_entropies(*ChannelSpec("ad").evolve(check_one_bd(s0), gamma_t))
    return MinimalInfoAD(float(e.m), float(e.m_x), float(e.m_z), False)
