"""Bell-diagonal and X-state two-qubit state representations.

A Bell-diagonal state is fixed by three real correlation coefficients
(c1, c2, c3), a checked one by a (3,) float array, many states by a (..., 3) array
of them; validity is membership in the tetrahedron of states with all four
Bell-basis eigenvalues non-negative, each weight (1 + c1 - c2 + c3 and so on)
summed left to right as written, once, in ``_weights``. ``check_bd`` decides by the one range
test, ``_within``: on Python-float weights for at most ``_FEW`` entries, building no array
unless a state fails, else on their array. ``_correlations`` is the one (..., 3) rule."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from eurnoise.linalg import DomainError, FLOAT_MAX, MAX_FLOATS, _FEW, _within, as_real, check_count

TETRAHEDRON_TOL = 1e-12
_FLOOR = -4 * TETRAHEDRON_TOL  # w/4 >= -tol iff w >= -4 tol: scaling by 4 is exact


class BellDiagonalState(NamedTuple):
    """Immutable (c1, c2, c3), a plain tuple in every other respect."""

    c1: float
    c2: float
    c3: float

    def as_tuple(self) -> tuple[float, float, float]:
        return tuple(self)


def _weights(c1, c2, c3):
    """4 x the Bell weights of (Phi+, Phi-, Psi+, Psi-), each summed left to right as
    written: the one formula, on Python floats and on arrays of whole columns alike."""
    return 1 + c1 - c2 + c3, 1 - c1 + c2 + c3, 1 + c1 + c2 - c3, 1 - c1 - c2 - c3


def _correlations(c, name: str = "correlations") -> np.ndarray:
    """c by the real-input rule, as a float array of shape (..., 3); name names it."""
    c = as_real(c, name)
    if c.shape[-1:] != (3,):
        raise DomainError(f"{name} must have shape (..., 3), got shape {c.shape}")
    return c


def _four_weights(c: np.ndarray) -> np.ndarray:
    """The ``_weights`` (..., 4) of correlations c (..., 3), a view of one (4, ...) block,
    so a min over them is elementwise over whole columns; numpy scalars for one state."""
    w = np.array(_weights(*c.transpose(-1, *range(c.ndim - 1))))
    return w.transpose(*range(1, c.ndim), 0)


def bell_eigenvalues(c) -> np.ndarray:
    """Bell-basis spectrum (..., 4), ordered (Phi+, Phi-, Psi+, Psi-), of
    correlations c in the tetrahedron."""
    return _four_weights(check_bd(c)) / 4


def is_valid(c):
    """Whether correlations c, shape (3,) or (..., 3), lie in the tetrahedron:
    a bool for one state, a bool array over the leading axes for many."""
    ok = _four_weights(_correlations(c)).min(axis=-1) >= _FLOOR  # False for NaN: min is NaN
    return bool(ok) if ok.ndim == 0 else ok


def check_bd(c) -> np.ndarray:
    """Correlations c as a float array of shape (..., 3), or a DomainError naming the first
    state (in C order) with a weight outside [_FLOOR, FLOAT_MAX]: is_valid's rule, as no state
    with every weight >= _FLOOR has an infinite one. An infinite float weight overflowed
    silently, so it goes on to the array path, which warns as numpy does."""
    c = _correlations(c)
    if c.size <= _FEW and _within([w for s in c.reshape(-1, 3).tolist() for w in _weights(*s)],
                                  _FLOOR, FLOAT_MAX):
        return c
    if not _within(_four_weights(c), _FLOOR, FLOAT_MAX):
        states = c.reshape(-1, 3)
        bad = tuple(states[~is_valid(states)][0].tolist())
        raise DomainError(f"state {bad} lies outside the Bell-diagonal tetrahedron")
    return c


def check_one_bd(c: np.typing.ArrayLike) -> np.ndarray:
    """The state rule of the one-state entry points: shape (3,), then ``check_bd``."""
    c = as_real(c, "correlations")
    if c.shape != (3,):
        raise DomainError(f"one state must have shape (3,), got shape {c.shape}")
    return check_bd(c)


def x_state_density(r: float, t) -> np.ndarray:
    """4x4 density (1/4)(I + r sigma_3 x I + sum_j T_j sigma_j x sigma_j) of
    the X-state family with rho_B = I/2; t = (T1, T2, T3)."""
    t1, t2, t3 = t
    rho = np.diag([1 + r + t3, 1 + r - t3, 1 - r - t3, 1 - r + t3]).astype(complex)
    rho[0, 3] = rho[3, 0] = t1 - t2
    rho[1, 2] = rho[2, 1] = t1 + t2
    return rho / 4


def parse_state_literal(text: str) -> np.ndarray:
    """Parse the CLI literal ``bd:c1,c2,c3`` into the (3,) array of ``check_one_bd``."""
    if not text.startswith("bd:"):
        raise DomainError(f"state literal {text!r} must start with 'bd:'")
    parts = text[3:].split(",")
    if len(parts) != 3:
        raise DomainError(f"state literal {text!r} needs three comma-separated reals")
    try:
        c = [float(p) for p in parts]
    except ValueError as exc:
        raise DomainError(f"state literal {text!r}: {exc}") from exc
    return check_one_bd(c)


def random_bd_states(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample (n, 3) over the tetrahedron by rejection from the cube; each
    round draws only the missing triples, so the stream is one triple a time."""
    check_count(n, "n", 0, MAX_FLOATS // 4)  # is_valid's (4, n) weights
    if not isinstance(rng, np.random.Generator):
        raise DomainError(f"rng must be a numpy.random.Generator, got {rng!r}")
    out, k = np.empty((n, 3)), 0
    while k < n:
        c = rng.uniform(-1.0, 1.0, size=(n - k, 3))
        c = c[is_valid(c)]
        out[k : k + len(c)] = c
        k += len(c)
    return out
