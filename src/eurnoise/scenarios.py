"""Time sweeps, long-time classification, surface sampling, and the
unital-monotonicity property suite."""

from __future__ import annotations

import gc
from dataclasses import dataclass
from itertools import chain, repeat
from operator import getitem, itemgetter
from typing import NamedTuple

import numpy as np

from eurnoise.linalg import DomainError, check_count
from eurnoise.states import BellDiagonalState, check_bd, random_bd_states
from eurnoise.channels import ChannelSpec, amplitude_damping_factors
from eurnoise.metrics import (
    ObservablePair, check_pair, xstate_concurrence, xstate_entropies, xstate_lower_bound_Ub,
)

ALL_COLUMNS = ("U", "Ub", "D", "E", "M")  # CSV names of SweepRecord[1:], in order
FIG_STATE = BellDiagonalState(-0.5, 0.4, 0.8)  # the paper's figure state


def _check_columns(cols: tuple[str, ...]) -> None:
    """Output columns must be a non-empty run of distinct names from ALL_COLUMNS."""
    if not cols or len(set(cols)) < len(cols) or not set(cols) <= set(ALL_COLUMNS):
        raise DomainError(f"output columns {cols} must be distinct names from {ALL_COLUMNS}")


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
        check_bd(self.initial)
        check_pair(self.pair)
        self.channel.check((self.t_start, self.t_end))
        if not self.t_start < self.t_end:
            raise DomainError(f"need t_start < t_end, got {self.t_start}, {self.t_end}")
        check_count(self.n_points, "n_points", 2)
        if self.spacing not in ("linear", "log"):
            raise DomainError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        if self.spacing == "log" and self.t_start <= 0:
            raise DomainError("log spacing needs t_start > 0")
        _check_columns(self.outputs)

    def grid(self) -> np.ndarray:
        space = np.geomspace if self.spacing == "log" else np.linspace
        return space(self.t_start, self.t_end, self.n_points)


class SweepRecord(NamedTuple):
    t: float
    u: float
    u_b: float
    d: float
    e: float
    m: float


def run_time_sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """Evolve the initial state along the grid (Gamma*t for the damping
    channels, eta for the flips) and evaluate every column over the whole
    grid at once, every entropy from one ``xstate_entropies``."""
    t = cfg.grid()
    r, corr = cfg.channel.evolve(cfg.initial, t)
    e = xstate_entropies(r, corr)
    u, u_b, m = e.uncertainty(cfg.pair), e.s_ab, e.m  # U_b = S(rho_AB)
    columns = (t, u, u_b, m - (u_b - 1.0), xstate_concurrence(r, corr), m)
    return list(map(tuple.__new__, repeat(SweepRecord), zip(*(c.tolist() for c in columns))))


@dataclass(frozen=True)
class ClassificationResult:  # scalar fields for one state, length-N lists for N
    verdict: str  # 'Decrease' | 'Increase' | 'Boundary'
    u_b_initial: float
    u_b_limit: float


LONGTIME_GAMMA_T = 50.0
BOUNDARY_BAND = 1e-9
# the map at Gamma*t = 0 (exactly the identity) and at the limit, computed once
_LONGTIME_R, _LONGTIME_F = amplitude_damping_factors((0.0, LONGTIME_GAMMA_T))
_VERDICTS = np.array(["Boundary", "Decrease", "Increase"])


def classify_longtime_ad(c) -> ClassificationResult:
    """Does the uncertainty lower bound decrease or increase in the
    long-time amplitude-damping limit, for correlations c of shape (3,) or (N, 3)?

    The limit is U_b of the actually-evolved state at Gamma*t = 50, not assumed;
    one core call of shape (..., 2, 3) gives U_b at 0 and at the limit for every state.
    """
    c = check_bd(c)
    if c.ndim > 2:
        raise DomainError(f"classify takes correlations of shape (3,) or (N, 3), not {c.shape}")
    u_b0, u_b_limit = xstate_lower_bound_Ub(_LONGTIME_R, c[..., None, :] * _LONGTIME_F).T
    # an np.intp on the left keeps this on numpy's fast scalar path for one state
    code = np.intp(2) * (u_b0 < u_b_limit - BOUNDARY_BAND) + (u_b0 > u_b_limit + BOUNDARY_BAND)
    return ClassificationResult(_VERDICTS[code].tolist(), u_b0.tolist(), u_b_limit.tolist())


def sample_spmc_surface(pair: ObservablePair, resolution: int) -> list[BellDiagonalState]:
    """Grid the measured-axes square and close each point with the SPMC
    value on the unmeasured axis. Every cell lies in the tetrahedron: its
    Bell eigenvalues factor as (1 +- c_j)(1 +- c_k)/4.

    The records are built with the cyclic GC paused, because CPython never
    untracks named-tuple records and would walk them all on every collection;
    the caller's GC setting is restored on every path. The pause is
    process-wide while the call runs."""
    check_pair(pair)
    check_count(resolution, "resolution", 2)
    enabled = gc.isenabled()
    gc.disable()  # the records hold only floats, so they form no cycles
    try:
        j, k = pair.q, pair.r
        a = np.linspace(-1.0, 1.0, resolution)
        vals = a.tolist()  # shared by the states of each row and column
        # c_i(p, q) == c_i(q, p) to the bit: row p reuses the floats of rows q < p
        upper = [(-v * a[p:]).tolist() for p, v in enumerate(vals)]
        # a list, not a generator: zip leaves it unfinished, and closing a
        # generator allocates, which would start a collection inside the call
        rows = [chain(map(getitem, upper[:p], range(p, 0, -1)), r) for p, r in enumerate(upper)]
        c = {j: chain(*map(repeat, vals, repeat(resolution))), k: chain(*repeat(vals, resolution))}
        c[6 - j - k] = chain.from_iterable(rows)  # the unmeasured axis
        return list(map(tuple.__new__, repeat(BellDiagonalState), zip(c[1], c[2], c[3])))
    finally:
        if enabled:
            gc.enable()


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
# each unital family on its own strength grid: eta for the flips, Gamma*t for pd
UNITAL_FAMILIES = tuple((ChannelSpec("flip", a), FLIP_ETA_GRID) for a in (1, 2, 3))
UNITAL_FAMILIES += ((ChannelSpec("pd"), PD_GAMMA_T_GRID),)


def property_check_unital(n_trials: int, seed: int) -> UnitalCheckReport:
    """Sampled check that unital channels never decrease the joint entropy
    or the uncertainty lower bound, plus a nonunital counterexample.

    For each sampled Bell-diagonal state, every flip channel is applied at
    10 eta values and phase damping at 10 Gamma*t values; S and U_b must
    not drop by more than 1e-9; a violation is (state, spec, strength, U_b
    before, U_b after). Amplitude damping at Gamma*t = 20 is then scanned for
    a state whose U_b decreases.
    """
    check_count(n_trials, "n_trials", 1)
    check_count(seed, "seed", 0)
    c = np.concatenate([random_bd_states(n_trials, np.random.default_rng(seed)), [FIG_STATE]])
    ub0 = xstate_lower_bound_Ub(0.0, c)
    # for Bell-diagonal states S(rho) and U_b coincide; check both against
    # the pre-noise values
    moves = [(spec, x) for spec, grid in UNITAL_FAMILIES for x in grid]
    evolved = (spec.evolve(c[:-1, None, :], grid) for spec, grid in UNITAL_FAMILIES)
    ub1 = np.concatenate([xstate_lower_bound_Ub(r, t) for r, t in evolved], axis=-1)
    violations = [
        (BellDiagonalState(*c[n].tolist()), *moves[k], float(ub0[n]), float(ub1[n, k]))
        for n, k in zip(*np.nonzero(ub1 < ub0[:-1, None] - 1e-9))
    ]

    ub_ad = xstate_lower_bound_Ub(*ChannelSpec("ad").evolve(c, AD_PROBE_GAMMA_T))
    drops = np.flatnonzero(ub_ad < ub0 - 1e-9)
    counter = (None, None, None)  # state, Gamma*t, (U_b before, U_b after)
    if drops.size:
        n = drops[0]
        s = BellDiagonalState(*c[n].tolist())
        counter = (s, AD_PROBE_GAMMA_T, (float(ub0[n]), float(ub_ad[n])))
    return UnitalCheckReport(n_trials, ub1.size, len(violations), tuple(violations), *counter)


def emit_csv(records: list[SweepRecord], outputs: tuple[str, ...] = ALL_COLUMNS) -> bytes:
    """Render sweep records as deterministic CSV bytes (12-decimal fixed
    format, LF endings, UTF-8), the body from one row template in one pass."""
    _check_columns(outputs)
    if not records:
        raise DomainError("no records to emit")
    row = ",".join(["%.12f"] * (1 + len(outputs)))
    cells = itemgetter(0, *(1 + ALL_COLUMNS.index(c) for c in outputs))
    body = (row + "\n") * len(records) % tuple(chain.from_iterable(map(cells, records)))
    return ("t," + ",".join(outputs) + "\n" + body).encode("utf-8")
