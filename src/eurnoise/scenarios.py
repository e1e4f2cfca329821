"""Time sweeps, long-time classification, surface sampling, and the
unital-monotonicity property suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from eurnoise.linalg import DomainError
from eurnoise.states import BellDiagonalState, is_valid, random_bd_states
from eurnoise.channels import ChannelSpec, amplitude_damped_xstate, flip_factors, pd_equivalent_eta
from eurnoise.metrics import (
    ObservablePair,
    lower_bound_Ub_bd,
    xstate_concurrence,
    xstate_lower_bound_Ub,
    xstate_minimal_missing_info,
    xstate_uncertainty_U,
)

ALL_COLUMNS = ("U", "Ub", "D", "E", "M")


@dataclass(frozen=True)
class SweepConfig:
    initial: BellDiagonalState
    channel: ChannelSpec
    pair: ObservablePair
    t_start: float = 0.0
    t_end: float = 10.0
    n_points: int = 201
    spacing: str = "linear"
    outputs: tuple[str, ...] = ALL_COLUMNS

    def __post_init__(self):
        if not is_valid(self.initial):
            raise DomainError(f"initial state {self.initial} is not valid")
        if not 0 <= self.t_start < self.t_end < np.inf:
            raise DomainError(f"need 0 <= t_start < t_end < inf, got {self.t_start}, {self.t_end}")
        if self.channel.kind == "flip" and self.t_end > 1:
            raise DomainError(f"flip probability t_end = {self.t_end} exceeds 1")
        if self.n_points < 2:
            raise DomainError("n_points must be >= 2")
        if self.spacing not in ("linear", "log"):
            raise DomainError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        bad = set(self.outputs) - set(ALL_COLUMNS)
        if bad:
            raise DomainError(f"unknown output columns {sorted(bad)}")

    def grid(self) -> np.ndarray:
        if self.spacing == "log":
            if self.t_start <= 0:
                raise DomainError("log spacing needs t_start > 0")
            return np.geomspace(self.t_start, self.t_end, self.n_points)
        return np.linspace(self.t_start, self.t_end, self.n_points)


@dataclass(frozen=True)
class SweepRecord:
    t: float
    u: float
    u_b: float
    d: float
    e: float
    m: float

    def column(self, name: str) -> float:
        return {"U": self.u, "Ub": self.u_b, "D": self.d, "E": self.e, "M": self.m}[name]


def run_time_sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """Evolve the initial state along the grid (Gamma*t for the damping
    channels, eta for the flips) and evaluate every column over the whole
    grid at once. The channel only picks the (r, T) map."""
    t = cfg.grid()
    r, corr = cfg.channel.evolve(cfg.initial, t)
    u, u_b = xstate_uncertainty_U(r, corr, cfg.pair), xstate_lower_bound_Ub(r, corr)
    m = xstate_minimal_missing_info(r, corr)[0]
    columns = (t, u, u_b, m - (u_b - 1.0), xstate_concurrence(r, corr), m)
    return list(map(SweepRecord, *(c.tolist() for c in columns)))


@dataclass(frozen=True)
class ClassificationResult:
    verdict: str  # 'Decrease' | 'Increase' | 'Boundary'
    u_b_initial: float
    u_b_limit: float


LONGTIME_GAMMA_T = 50.0
BOUNDARY_BAND = 1e-9


def classify_longtime_ad(s: BellDiagonalState) -> ClassificationResult:
    """Does the uncertainty lower bound decrease or increase in the
    long-time amplitude-damping limit?

    The limit value is evaluated on the actually-evolved state at
    Gamma*t = 50 rather than assumed.
    """
    u_b0 = lower_bound_Ub_bd(s)
    r, t = amplitude_damped_xstate(s.as_tuple(), LONGTIME_GAMMA_T)
    u_b_limit = float(xstate_lower_bound_Ub(r, t))
    if u_b0 > u_b_limit + BOUNDARY_BAND:
        verdict = "Decrease"
    elif u_b0 < u_b_limit - BOUNDARY_BAND:
        verdict = "Increase"
    else:
        verdict = "Boundary"
    return ClassificationResult(verdict, u_b0, u_b_limit)


def sample_spmc_surface(pair: ObservablePair, resolution: int) -> list[BellDiagonalState]:
    """Grid the measured-axes square and close each point with the SPMC
    value on the unmeasured axis. Every cell lies in the tetrahedron: its
    Bell eigenvalues factor as (1 +- c_j)(1 +- c_k)/4."""
    if resolution < 2:
        raise DomainError("resolution must be >= 2")
    j, k = pair.q.index, pair.r.index
    i = ({1, 2, 3} - {j, k}).pop()
    axis_vals = np.linspace(-1.0, 1.0, resolution)
    vals = axis_vals.tolist()  # shared by the states of each row and column
    c = {
        j: [v for v in vals for _ in vals],
        k: vals * resolution,
        i: (-np.outer(axis_vals, axis_vals)).ravel().tolist(),
    }
    return list(map(BellDiagonalState, c[1], c[2], c[3]))


@dataclass(frozen=True)
class UnitalCheckReport:
    n_trials: int
    n_checks: int
    n_violations: int
    violations: tuple = ()
    counterexample_state: BellDiagonalState | None = None
    counterexample_gamma_t: float | None = None
    counterexample_ub_drop: tuple[float, float] | None = None

    @property
    def passed(self) -> bool:
        return self.n_violations == 0 and self.counterexample_state is not None


FLIP_ETA_GRID = tuple(np.linspace(0.0, 0.5, 10))
PD_GAMMA_T_GRID = tuple(np.linspace(0.0, 10.0, 10))
AD_PROBE_GAMMA_T = 20.0


def property_check_unital(n_trials: int, seed: int) -> UnitalCheckReport:
    """Sampled check that unital channels never decrease the joint entropy
    or the uncertainty lower bound, plus a nonunital counterexample.

    For each sampled Bell-diagonal state, every flip channel is applied at
    10 eta values and phase damping at 10 Gamma*t values; S and U_b must
    not drop by more than 1e-9. Amplitude damping at Gamma*t = 20 is then
    scanned for a state whose U_b decreases.
    """
    if n_trials < 1:
        raise DomainError("n_trials must be >= 1")
    rng = np.random.default_rng(seed)
    states = random_bd_states(n_trials, rng)
    moves = [("flip", ax, eta) for ax in (1, 2, 3) for eta in FLIP_ETA_GRID]
    moves += [("pd", 3, pd_equivalent_eta(gt)) for gt in PD_GAMMA_T_GRID]
    factors = np.array([flip_factors(ax, eta) for _, ax, eta in moves])
    candidates = states + [BellDiagonalState(-0.5, 0.4, 0.8)]
    c = np.array([s.as_tuple() for s in candidates])
    ub0 = xstate_lower_bound_Ub(0.0, c)
    # for Bell-diagonal states S(rho) and U_b coincide; check both against
    # the pre-noise values
    ub1 = xstate_lower_bound_Ub(0.0, c[:-1, None, :] * factors)
    violations = [
        (states[n], *moves[k], float(ub0[n]), float(ub1[n, k]))
        for n, k in zip(*np.nonzero(ub1 < ub0[:-1, None] - 1e-9))
    ]

    ub_ad = xstate_lower_bound_Ub(*amplitude_damped_xstate(c, AD_PROBE_GAMMA_T))
    drops = np.flatnonzero(ub_ad < ub0 - 1e-9)
    counter_state = counter_gt = counter_drop = None
    if drops.size:
        n = drops[0]
        counter_state, counter_gt = candidates[n], AD_PROBE_GAMMA_T
        counter_drop = (float(ub0[n]), float(ub_ad[n]))
    return UnitalCheckReport(
        n_trials=n_trials,
        n_checks=ub1.size,
        n_violations=len(violations),
        violations=tuple(violations),
        counterexample_state=counter_state,
        counterexample_gamma_t=counter_gt,
        counterexample_ub_drop=counter_drop,
    )


def emit_csv(records: list[SweepRecord], outputs: tuple[str, ...] = ALL_COLUMNS) -> bytes:
    """Render sweep records as deterministic CSV bytes (12-decimal fixed
    format, LF endings, UTF-8)."""
    if not records:
        raise DomainError("no records to emit")
    lines = ["t," + ",".join(outputs)]
    for r in records:
        cells = [f"{r.t:.12f}"] + [f"{r.column(c):.12f}" for c in outputs]
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("utf-8")
