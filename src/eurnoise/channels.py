"""Local noise on qubit A as closed-form maps of the X-state family.

Flips and phase damping scale the correlations T; amplitude damping relaxes
the population of A toward |1> (r = e^{-Gt} - 1). ``ChannelSpec`` names a
channel family and holds the one rule for a valid kind, axis and strength;
``factors`` is its one closed-form map (amplitude damping: one exp over a (..., 3) block),
and ``evolve`` is those checks plus it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from eurnoise.linalg import DomainError, FLOAT_MAX, _first_outside, as_real, is_axis
from eurnoise.states import BellDiagonalState, check_bd, x_state_density


def pd_equivalent_eta(gamma_t: float) -> float:
    """Phase-flip probability equivalent to phase damping at Gamma*t, a checked pd strength."""
    return _pd_eta(ChannelSpec("pd").check(gamma_t))


def _pd_eta(gamma_t):  # of strengths that ChannelSpec.check returned
    return (1.0 - np.exp(-gamma_t / 2.0)) / 2.0


def evolve_bd_flip(s: BellDiagonalState, axis: int, eta: float) -> BellDiagonalState:
    """Closed-form flip-channel action on the correlation triple."""
    return BellDiagonalState(*ChannelSpec("flip", axis).evolve(s, eta)[1].tolist())


def evolve_bd_amplitude(s: BellDiagonalState, gamma_t: float) -> np.ndarray:
    """Closed-form amplitude-damped state as its X-type 4x4 density."""
    return x_state_density(*ChannelSpec("ad").evolve(s, gamma_t))


@dataclass(frozen=True)
class ChannelSpec:
    """A channel family: a flip on Pauli axis 1, 2 or 3 (``flip``), phase
    damping (``pd``) or amplitude damping (``ad``). The strength is always
    supplied by the caller: eta for the flips, Gamma*t for the damping channels.
    """

    kind: str  # 'flip', 'pd', or 'ad'
    axis: int | None = None

    def check(self, strength) -> np.ndarray:
        """The channel contract, decided here only: a known kind, an axis of
        1, 2 or 3 exactly for flips, and every strength the caller passes in range
        (eta in [0, 1], Gamma*t finite and >= 0, never NaN). Returns the strengths
        as a float array."""
        if self.kind not in ("flip", "pd", "ad"):
            raise DomainError(f"unknown channel kind {self.kind!r}; expected flip, pd or ad")
        if self.kind == "flip" and not is_axis(self.axis):
            raise DomainError(f"flip axis must be 1, 2, or 3, got {self.axis}")
        if self.kind != "flip" and self.axis is not None:
            raise DomainError(f"channel {self.kind!r} takes no axis, got {self.axis}")
        t = as_real(strength, f"{self.kind} strength")
        bad = _first_outside(t, 0.0, 1.0 if self.kind == "flip" else FLOAT_MAX)
        if bad is not None:
            rule = "0 <= eta <= 1" if self.kind == "flip" else "0 <= gamma_t < inf"
            raise DomainError(f"{self.kind} strength {float(bad)} outside {rule}")
        return t

    def evolve(self, c, t) -> tuple[np.ndarray, np.ndarray]:
        """(r, T) of correlations c (3,) or (..., 3) in the tetrahedron at strengths
        t, c[..., 0] broadcast against t: c[:, None, :] over K gives (N, K, 3). The
        checks (``check``, then ``check_bd``), then the map of ``factors``."""
        r, f = self.factors(self.check(t))
        return r, check_bd(c) * f

    def factors(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(r, f) at strengths t that ``check`` returned: correlations c go to the X
        state (r, T = c * f). AD: r = e^{-Gt} - 1, f = (e^{-Gt/2}, e^{-Gt/2}, e^{-Gt}).
        Else r = 0, a flip scales the two other axes by 1 - 2 eta, and pd is the
        phase flip at pd_equivalent_eta."""
        if self.kind == "ad":  # t * -0.5 and t * -1.0 are -t/2 and -t, the same bits
            f = np.exp(t[..., None] * (-0.5, -0.5, -1.0))
            return f[..., 2] - 1.0, f
        axis, eta = (self.axis, t) if self.kind == "flip" else (3, _pd_eta(t))
        f = np.empty(eta.shape + (3,))
        f[...] = (1.0 - 2.0 * eta)[..., None]
        f[..., axis - 1] = 1.0
        return np.zeros_like(t), f


CHANNEL_LITERALS = ("flip:1", "flip:2", "flip:3", "pd", "ad")


def parse_channel_literal(text: str) -> ChannelSpec:
    """Parse one of ``CHANNEL_LITERALS``: ``flip:<axis>`` (1 = bit flip,
    2 = bit-phase flip, 3 = phase flip), ``pd`` or ``ad``. A literal names the
    family only; the sweep grid supplies the strength."""
    if text not in CHANNEL_LITERALS:
        raise DomainError(f"channel literal {text!r} is not one of {', '.join(CHANNEL_LITERALS)}")
    kind, _, axis = text.partition(":")
    return ChannelSpec(kind, int(axis) if axis else None)
