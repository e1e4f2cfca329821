"""Local noise channels acting on qubit A.

Kraus conventions follow the damping parameterization in which the
amplitude-damping channel relaxes the population toward |1>:
kappa_0 = e^{-Gt/2}|0><0| + |1><1|, kappa_1 = sqrt(1-e^{-Gt}) |1><0|.
Pass ``relabeled=True`` to get the more common |1> -> |0> orientation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from eurnoise.linalg import DomainError, FLOAT_MAX, IDENTITY_2, PAULI, tensor_product
from eurnoise.linalg import _first_outside, _stack_last
from eurnoise.states import BellDiagonalState, check_bd, x_state_density


class ChannelError(RuntimeError):
    """Channel invariant (trace preservation) broken."""


@dataclass(frozen=True)
class KrausChannel:
    operators: tuple[np.ndarray, ...]
    label: str
    parameters: dict = field(default_factory=dict)
    warning: str | None = None

    def __post_init__(self):
        total = sum(k.conj().T @ k for k in self.operators)
        if not np.max(np.abs(total - IDENTITY_2)) <= 1e-10:
            raise ChannelError(f"channel {self.label!r} is not trace preserving")


def make_flip_channel(axis: int, eta: float) -> KrausChannel:
    """Bit-flip (axis 1), bit-phase-flip (axis 2), or phase-flip (axis 3)
    channel with noise probability eta."""
    ChannelSpec("flip", axis).check(eta)
    warning = None
    if eta > 0.5:
        warning = "eta > 1/2: beyond the fully-mixing point, correlations flip sign"
    ops = (np.sqrt(1.0 - eta) * IDENTITY_2, np.sqrt(eta) * PAULI[axis])
    return KrausChannel(ops, f"flip{axis}", {"axis": axis, "eta": eta}, warning)


def pd_equivalent_eta(gamma_t: float) -> float:
    """Phase-flip probability equivalent to phase damping at Gamma*t."""
    return (1.0 - np.exp(-gamma_t / 2.0)) / 2.0


def make_phase_damping(gamma_t: float) -> KrausChannel:
    """Phase-damping channel at dimensionless Gamma*t."""
    ChannelSpec("pd").check(gamma_t)
    k0 = np.array([[1.0, 0.0], [0.0, np.exp(-gamma_t / 2.0)]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [0.0, np.sqrt(1.0 - np.exp(-gamma_t))]], dtype=complex)
    params = {"gamma_t": gamma_t, "eta3": pd_equivalent_eta(gamma_t)}
    return KrausChannel((k0, k1), "pd", params)


def make_amplitude_damping(gamma_t: float, relabeled: bool = False) -> KrausChannel:
    """Amplitude-damping channel at dimensionless Gamma*t (decays toward |1>;
    ``relabeled`` flips the orientation to the |1> -> |0> convention)."""
    ChannelSpec("ad").check(gamma_t)
    e = np.exp(-gamma_t / 2.0)
    p = np.sqrt(max(1.0 - np.exp(-gamma_t), 0.0))
    if relabeled:
        k0 = np.array([[1.0, 0.0], [0.0, e]], dtype=complex)
        k1 = np.array([[0.0, p], [0.0, 0.0]], dtype=complex)
    else:
        k0 = np.array([[e, 0.0], [0.0, 1.0]], dtype=complex)
        k1 = np.array([[0.0, 0.0], [p, 0.0]], dtype=complex)
    return KrausChannel((k0, k1), "ad", {"gamma_t": gamma_t, "relabeled": relabeled})


def is_unital(ch: KrausChannel, tol: float = 1e-10) -> bool:
    """True iff sum kappa kappa^dag = identity within tol (the channel fixes
    the maximally mixed state)."""
    total = sum(k @ k.conj().T for k in ch.operators)
    return bool(np.max(np.abs(total - IDENTITY_2)) <= tol)


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


def flip_factors(axis: int, eta) -> np.ndarray:
    """Factors (..., 3) by which a flip channel scales (T1, T2, T3): the axis
    coefficient is kept, the other two scale by (1 - 2 eta)."""
    eta = ChannelSpec("flip", axis).check(eta)
    f = np.empty(eta.shape + (3,))
    f[...] = (1.0 - 2.0 * eta)[..., None]
    f[..., axis - 1] = 1.0
    return f


def amplitude_damped_xstate(c, gamma_t) -> tuple[np.ndarray, np.ndarray]:
    """(r, T) of Bell-diagonal correlations c (shape (..., 3)) after amplitude
    damping at Gamma*t: r = e^{-Gt} - 1, T = (e^{-Gt/2} c1, e^{-Gt/2} c2, e^{-Gt} c3)."""
    gt = np.asarray(gamma_t, dtype=float)
    e, eh = np.exp(-gt), np.exp(-gt / 2.0)
    return e - 1.0, np.asarray(c, dtype=float) * _stack_last(eh, eh, e)


def evolve_bd_flip(s: BellDiagonalState, axis: int, eta: float) -> BellDiagonalState:
    """Closed-form flip-channel action on the correlation triple."""
    return BellDiagonalState(*ChannelSpec("flip", axis).evolve(s, eta)[1].tolist())


def evolve_bd_amplitude(s: BellDiagonalState, gamma_t: float) -> np.ndarray:
    """Closed-form amplitude-damped state: the X-type 4x4 density of
    ``amplitude_damped_xstate``."""
    return x_state_density(*ChannelSpec("ad").evolve(s, gamma_t))


@dataclass(frozen=True)
class ChannelSpec:
    """A channel family: a flip on Pauli axis 1, 2 or 3 (``flip``), phase
    damping (``pd``) or amplitude damping (``ad``). The strength is always
    supplied by the caller: eta for the flips, Gamma*t for the damping channels.
    """

    kind: str  # 'flip', 'pd', or 'ad'
    axis: int | None = None

    def check(self, strength=0.0) -> np.ndarray:
        """The channel contract, decided here only: a known kind, an axis of
        1, 2 or 3 exactly for flips, and every strength in range (eta in
        [0, 1], Gamma*t finite and >= 0, never NaN). Returns the strengths as
        a float array."""
        if self.kind not in ("flip", "pd", "ad"):
            raise DomainError(f"unknown channel kind {self.kind!r}; expected flip, pd or ad")
        if self.kind == "flip" and not (
            isinstance(self.axis, (int, np.integer)) and self.axis in (1, 2, 3)
        ):
            raise DomainError(f"flip axis must be 1, 2, or 3, got {self.axis}")
        if self.kind != "flip" and self.axis is not None:
            raise DomainError(f"channel {self.kind!r} takes no axis, got {self.axis}")
        t = np.asarray(strength, dtype=float)
        bad = _first_outside(t, 0.0, 1.0 if self.kind == "flip" else FLOAT_MAX)
        if bad is not None:
            rule = "0 <= eta <= 1" if self.kind == "flip" else "0 <= gamma_t < inf"
            raise DomainError(f"{self.kind} strength {float(bad)} outside {rule}")
        return t

    def at(self, t: float) -> KrausChannel:
        """Concrete channel at sweep variable t (eta or Gamma*t)."""
        self.check(t)
        if self.kind == "flip":
            return make_flip_channel(self.axis, t)
        if self.kind == "pd":
            return make_phase_damping(t)
        return make_amplitude_damping(t)

    def evolve(self, s: BellDiagonalState, t) -> tuple[np.ndarray, np.ndarray]:
        """(r, T) of the initial state s, which must lie in the tetrahedron,
        at each sweep variable in the array t."""
        t = self.check(t)
        c = check_bd(s).as_tuple()
        if self.kind == "ad":
            return amplitude_damped_xstate(c, t)
        axis, eta = (self.axis, t) if self.kind == "flip" else (3, pd_equivalent_eta(t))
        return np.zeros_like(t), np.array(c) * flip_factors(axis, eta)


CHANNEL_LITERALS = ("flip:1", "flip:2", "flip:3", "pd", "ad")


def parse_channel_literal(text: str) -> ChannelSpec:
    """Parse one of ``CHANNEL_LITERALS``: ``flip:<axis>`` (1 = bit flip,
    2 = bit-phase flip, 3 = phase flip), ``pd`` or ``ad``. A literal names the
    family only; the sweep grid supplies the strength."""
    if text not in CHANNEL_LITERALS:
        raise DomainError(f"channel literal {text!r} is not one of {', '.join(CHANNEL_LITERALS)}")
    kind, _, axis = text.partition(":")
    return ChannelSpec(kind, int(axis) if axis else None)
