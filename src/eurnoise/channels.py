"""Local noise channels acting on qubit A.

Kraus conventions follow the damping parameterization in which the
amplitude-damping channel relaxes the population toward |1>:
kappa_0 = e^{-Gt/2}|0><0| + |1><1|, kappa_1 = sqrt(1-e^{-Gt}) |1><0|.
Pass ``relabeled=True`` to get the more common |1> -> |0> orientation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from eurnoise.linalg import DomainError, IDENTITY_2, PAULI, tensor_product
from eurnoise.states import BellDiagonalState, is_valid, x_state_density


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
        if np.max(np.abs(total - IDENTITY_2)) > 1e-10:
            raise ChannelError(f"channel {self.label!r} is not trace preserving")


def make_flip_channel(axis: int, eta: float) -> KrausChannel:
    """Bit-flip (axis 1), bit-phase-flip (axis 2), or phase-flip (axis 3)
    channel with noise probability eta."""
    if axis not in (1, 2, 3):
        raise DomainError(f"flip axis must be 1, 2, or 3, got {axis}")
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"flip probability {eta} outside [0, 1]")
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
    if gamma_t < 0:
        raise DomainError(f"gamma_t must be >= 0, got {gamma_t}")
    k0 = np.array([[1.0, 0.0], [0.0, np.exp(-gamma_t / 2.0)]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [0.0, np.sqrt(1.0 - np.exp(-gamma_t))]], dtype=complex)
    params = {"gamma_t": gamma_t, "eta3": pd_equivalent_eta(gamma_t)}
    return KrausChannel((k0, k1), "pd", params)


def make_amplitude_damping(gamma_t: float, relabeled: bool = False) -> KrausChannel:
    """Amplitude-damping channel at dimensionless Gamma*t (decays toward |1>;
    ``relabeled`` flips the orientation to the |1> -> |0> convention)."""
    if gamma_t < 0:
        raise DomainError(f"gamma_t must be >= 0, got {gamma_t}")
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
    if abs(np.trace(out).real - 1.0) > 1e-9:
        raise ChannelError(f"channel {ch.label!r} broke trace preservation")
    return out


def flip_factors(axis: int, eta) -> np.ndarray:
    """Factors (..., 3) by which a flip channel scales (T1, T2, T3): the axis
    coefficient is kept, the other two scale by (1 - 2 eta)."""
    f = np.repeat(1.0 - 2.0 * np.asarray(eta, dtype=float)[..., None], 3, axis=-1)
    f[..., axis - 1] = 1.0
    return f


def amplitude_damped_xstate(c, gamma_t) -> tuple[np.ndarray, np.ndarray]:
    """(r, T) of Bell-diagonal correlations c (shape (..., 3)) after amplitude
    damping at Gamma*t: r = e^{-Gt} - 1, T = (e^{-Gt/2} c1, e^{-Gt/2} c2, e^{-Gt} c3)."""
    gt = np.asarray(gamma_t, dtype=float)
    e, eh = np.exp(-gt), np.exp(-gt / 2.0)
    return e - 1.0, np.asarray(c, dtype=float) * np.stack([eh, eh, e], axis=-1)


def evolve_bd_flip(s: BellDiagonalState, axis: int, eta: float) -> BellDiagonalState:
    """Closed-form flip-channel action on the correlation triple."""
    if axis not in (1, 2, 3):
        raise DomainError(f"flip axis must be 1, 2, or 3, got {axis}")
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"flip probability {eta} outside [0, 1]")
    if not is_valid(s):
        raise DomainError(f"state {s} lies outside the Bell-diagonal tetrahedron")
    return BellDiagonalState(*(np.array(s.as_tuple()) * flip_factors(axis, eta)).tolist())


def evolve_bd_amplitude(s: BellDiagonalState, gamma_t: float) -> np.ndarray:
    """Closed-form amplitude-damped state: the X-type 4x4 density of
    ``amplitude_damped_xstate``."""
    if not is_valid(s):
        raise DomainError(f"state {s} lies outside the Bell-diagonal tetrahedron")
    if gamma_t < 0:
        raise DomainError(f"gamma_t must be >= 0, got {gamma_t}")
    return x_state_density(*amplitude_damped_xstate(s.as_tuple(), gamma_t))


@dataclass(frozen=True)
class ChannelSpec:
    """A channel family plus (optionally) a fixed strength.

    In time sweeps the grid variable supplies the strength: Gamma*t for the
    damping channels, eta for the flips. A strength embedded in the literal
    (``flip:3:0.25``, ``pd:1.5``, ``ad:0.7``) pins it for one-shot use.
    """

    kind: str  # 'flip', 'pd', or 'ad'
    axis: int | None = None
    strength: float | None = None

    def at(self, t: float) -> KrausChannel:
        """Concrete channel at sweep variable t (eta or Gamma*t)."""
        if self.kind == "flip":
            return make_flip_channel(self.axis, t)
        if self.kind == "pd":
            return make_phase_damping(t)
        return make_amplitude_damping(t)

    def evolve(self, s: BellDiagonalState, t) -> tuple[np.ndarray, np.ndarray]:
        """(r, T) of the initial state s at each sweep variable in the array t."""
        t = np.asarray(t, dtype=float)
        if self.kind == "ad":
            return amplitude_damped_xstate(s.as_tuple(), t)
        axis, eta = (self.axis, t) if self.kind == "flip" else (3, pd_equivalent_eta(t))
        return np.zeros_like(t), np.array(s.as_tuple()) * flip_factors(axis, eta)

    def fixed(self) -> KrausChannel:
        if self.strength is None:
            raise DomainError(f"channel spec {self.kind!r} carries no fixed strength")
        return self.at(self.strength)


def parse_channel_literal(text: str) -> ChannelSpec:
    """Parse ``flip:<axis>[:<eta>]``, ``pd[:<gt>]`` / ``pd:<gamma>:<t>``,
    or ``ad[:<gt>]``."""
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "flip":
            if len(parts) not in (2, 3):
                raise DomainError(f"channel literal {text!r}: expected flip:<axis>[:<eta>]")
            axis = int(parts[1])
            if axis not in (1, 2, 3):
                raise DomainError(f"channel literal {text!r}: axis must be 1, 2, or 3")
            eta = float(parts[2]) if len(parts) == 3 else None
            if eta is not None and not 0.0 <= eta <= 1.0:
                raise DomainError(f"channel literal {text!r}: eta outside [0, 1]")
            return ChannelSpec("flip", axis=axis, strength=eta)
        if kind in ("pd", "ad"):
            if len(parts) == 1:
                gt = None
            elif len(parts) == 2:
                gt = float(parts[1])
            elif len(parts) == 3:
                gt = float(parts[1]) * float(parts[2])
            else:
                raise DomainError(f"channel literal {text!r}: expected {kind}[:<gamma_t>]")
            if gt is not None and gt < 0:
                raise DomainError(f"channel literal {text!r}: gamma_t must be >= 0")
            return ChannelSpec(kind, strength=gt)
    except ValueError as exc:
        raise DomainError(f"channel literal {text!r}: {exc}") from exc
    raise DomainError(f"unknown channel kind {kind!r} in {text!r}")
