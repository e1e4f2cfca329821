"""Time sweeps, long-time classification, surface sampling, the
unital-monotonicity property suite, and ``csv_body``, the one CSV writer.
``SweepConfig`` checks a sweep's state and strengths once and keeps the checked
arrays, which ``run_time_sweep`` maps; one ``metrics.xstate_columns`` call gives every
column of the sweep's table but t. Sweeps and surfaces come back as ``Rows``, one float
table; a classification comes back as numpy columns. ``Rows`` and ``csv_body`` read their
tables by ``linalg.as_real``, the one real-input rule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from eurnoise.linalg import DomainError, MAX_FLOATS, as_real, check_count, is_integer
from eurnoise.states import BellDiagonalState, check_bd, check_one_bd, random_bd_states
from eurnoise.channels import ChannelSpec
from eurnoise.metrics import COLUMNS as ALL_COLUMNS  # CSV names of SweepRecord[1:], in order
from eurnoise.metrics import ObservablePair, check_pair, xstate_columns, xstate_lower_bound_Ub

FIG_STATE = (-0.5, 0.4, 0.8)  # the paper's figure state


def check_columns(cols) -> None:
    """Output columns must be a non-empty tuple or list of distinct names from ALL_COLUMNS."""
    try:
        names = set(cols) if isinstance(cols, (tuple, list)) else None
    except TypeError:  # an unhashable entry
        names = None
    if not names or len(names) != len(cols) or not names <= set(ALL_COLUMNS):
        raise DomainError(f"output columns {cols!r} must be distinct names from {ALL_COLUMNS}")


@dataclass(frozen=True, eq=False)
class SweepConfig:
    """A sweep's inputs, all seven passed by the caller and each checked once, here: the
    state by ``check_one_bd`` and the channel with the grid's endpoints by ``ChannelSpec.check``.
    Then ``initial`` is the checked state, a read-only (3,) float copy, and ``grid`` the
    read-only strengths; ``run_time_sweep`` checks nothing again. Equality is identity."""

    initial: np.ndarray  # any (3,) state in; its checked copy after __post_init__
    channel: ChannelSpec
    pair: ObservablePair
    t_start: float
    t_end: float
    n_points: int
    spacing: str  # 'linear' or 'log'
    grid: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        c = check_one_bd(as_real(self.initial, "initial state")).copy()  # caller's may change
        check_pair(self.pair)
        t0, t1 = self.channel.check((self.t_start, self.t_end)).tolist()
        if not t0 < t1:
            raise DomainError(f"need t_start < t_end, got {self.t_start}, {self.t_end}")
        check_count(self.n_points, "n_points", 2, MAX_FLOATS // 14)  # the X core's (14, n) block
        if self.spacing not in ("linear", "log"):
            raise DomainError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        if self.spacing == "log" and t0 <= 0:
            raise DomainError("log spacing needs t_start > 0")
        space = np.geomspace if self.spacing == "log" else np.linspace
        with np.errstate(over="ignore"):
            t = space(t0, t1, self.n_points)
        # every point between checked endpoints is in range, but numpy takes the
        # inner points of a log grid that ends near FLOAT_MAX to inf
        if not np.isfinite(t).all():
            raise DomainError(f"log grid from {self.t_start} to {self.t_end} overflows")
        for name, a in (("initial", c), ("grid", t)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)


ROWS_BLOCK = 1024  # rows that one step of Rows iteration turns into Python floats


class Rows:
    """A read-only (n, k) float table whose rows read as records of a k-field named
    tuple, each built only when read; ``np.asarray(rows)`` is the table, no copy.
    Iteration reads the table ``ROWS_BLOCK`` rows at a time, so it holds one block of
    Python floats, not the whole table, and a record is the row as its block was read."""

    def __init__(self, table: np.ndarray, record: type):
        table = as_real(table, f"{record.__name__} rows").view()  # the caller's flags stay
        if table.ndim != 2 or table.shape[1] != len(record._fields):
            raise DomainError(f"{record.__name__} rows cannot have shape {table.shape}")
        table.flags.writeable = False
        self.table, self.record = table, record

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, i):
        if not is_integer(i):  # a slice would make one record out of k lists
            raise DomainError(f"rows take an integer index, got {i!r}")
        return self.record._make(self.table[i].tolist())

    def __iter__(self):
        for i in range(0, len(self.table), ROWS_BLOCK):
            yield from map(self.record._make, self.table[i : i + ROWS_BLOCK].tolist())

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.table, dtype=dtype, copy=copy)


class SweepRecord(NamedTuple):
    t: float
    u: float
    u_b: float
    d: float
    e: float
    m: float


def run_time_sweep(cfg: SweepConfig) -> Rows:
    """Evolve the initial state along the grid (Gamma*t for the damping
    channels, eta for the flips) and evaluate every column over the whole
    grid at once, by one ``xstate_columns`` call, as ``SweepRecord`` rows. The config
    checked the state and the grid, so they go straight to ``factors``."""
    t = cfg.grid
    r, f = cfg.channel.factors(t)
    table = np.empty((len(t), 6))
    table[:, 0] = t
    table[:, 1:] = xstate_columns(r, cfg.initial * f, cfg.pair)
    return Rows(table, SweepRecord)


@dataclass(frozen=True, eq=False)
class ClassificationResult:  # numpy scalars for one state, (N,) arrays for N
    verdict: np.ndarray  # 'Decrease' | 'Increase' | 'Boundary'
    u_b_initial: np.ndarray
    u_b_limit: np.ndarray


LONGTIME_GAMMA_T = 50.0
BOUNDARY_BAND = 1e-9  # the band on U_b of both verdicts: classify's and the unital check's
# the map at Gamma*t = 0 (exactly the identity) and at the limit, computed once
_AD = ChannelSpec("ad")
_LONGTIME_R, _LONGTIME_F = _AD.factors(_AD.check((0.0, LONGTIME_GAMMA_T)))
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
    return ClassificationResult(_VERDICTS[code], u_b0, u_b_limit)


def sample_spmc_surface(pair: ObservablePair, resolution: int) -> Rows:
    """Grid the measured-axes square and close each point with the SPMC
    value on the unmeasured axis. Every cell lies in the tetrahedron: its
    Bell eigenvalues factor as (1 +- c_j)(1 +- c_k)/4. The cells come in
    row-major order over (c_j, c_k), as ``BellDiagonalState`` rows."""
    check_pair(pair)
    check_count(resolution, "resolution", 2, math.isqrt(MAX_FLOATS // 3))  # the cells
    a = np.linspace(-1.0, 1.0, resolution)
    cells = np.empty((resolution, resolution, 3))
    cells[..., pair.q - 1] = a[:, None]
    cells[..., pair.r - 1] = a
    np.multiply(-a[:, None], a, out=cells[..., 5 - pair.q - pair.r])  # the unmeasured axis
    return Rows(cells.reshape(-1, 3), BellDiagonalState)


@dataclass(frozen=True)
class UnitalCheckReport:
    n_trials: int
    n_checks: int
    n_violations: int
    violations: tuple
    counterexample_state: BellDiagonalState | None
    counterexample_gamma_t: float | None
    counterexample_ub_drop: tuple[float, float] | None


FLIP_ETA_GRID = tuple(np.linspace(0.0, 0.5, 10))
PD_GAMMA_T_GRID = tuple(np.linspace(0.0, 10.0, 10))
AD_PROBE_GAMMA_T = 20.0
# each unital family on its own strength grid: eta for the flips, Gamma*t for pd
UNITAL_FAMILIES = tuple((ChannelSpec("flip", a), FLIP_ETA_GRID) for a in (1, 2, 3))
UNITAL_FAMILIES += ((ChannelSpec("pd"), PD_GAMMA_T_GRID),)
_MOVES = tuple((spec, x) for spec, grid in UNITAL_FAMILIES for x in grid)
# the (r, f) of every move, each grid checked once: the state as it is (pd at
# Gamma*t = 0 is exactly r = 0, f = 1), the unital moves, then the AD probe
_MAPS = [spec.factors(spec.check(grid)) for spec, grid in
         ((ChannelSpec("pd"), (0.0,)), *UNITAL_FAMILIES, (_AD, (AD_PROBE_GAMMA_T,)))]
_MOVE_R, _MOVE_F = (np.concatenate(column) for column in zip(*_MAPS))


def property_check_unital(n_trials: int, seed: int) -> UnitalCheckReport:
    """Sampled check that unital channels never decrease the joint entropy
    or the uncertainty lower bound, plus a nonunital counterexample.

    For each sampled Bell-diagonal state, every flip channel is applied at 10 eta values
    and phase damping at 10 Gamma*t values; S and U_b must not drop by more than
    BOUNDARY_BAND; a violation is (state, spec, strength, U_b before, U_b after).
    Amplitude damping at Gamma*t = 20 is then scanned for a state whose U_b drops by
    more than the band. Every move of every state is one core call.
    """
    # rho_AB's (4, N + 1, 42) spectrum is the largest array; any seed >= 0 seeds numpy
    check_count(n_trials, "n_trials", 1, MAX_FLOATS // (4 * _MOVE_R.size) - 1)
    check_count(seed, "seed", 0, math.inf)
    c = np.concatenate([random_bd_states(n_trials, np.random.default_rng(seed)), [FIG_STATE]])
    ub = xstate_lower_bound_Ub(_MOVE_R, check_bd(c)[:, None, :] * _MOVE_F)
    # for Bell-diagonal states S(rho) and U_b coincide; check both against
    # the pre-noise values, over the sampled states only
    ub0, ub1, ub_ad = ub[:, 0], ub[:-1, 1:-1], ub[:, -1]
    violations = [
        (BellDiagonalState(*c[n].tolist()), *_MOVES[k], float(ub0[n]), float(ub1[n, k]))
        for n, k in zip(*np.nonzero(ub1 < ub0[:-1, None] - BOUNDARY_BAND))
    ]

    drops = np.flatnonzero(ub_ad < ub0 - BOUNDARY_BAND)
    counter = (None, None, None)  # state, Gamma*t, (U_b before, U_b after)
    if drops.size:
        n = drops[0]
        s = BellDiagonalState(*c[n].tolist())
        counter = (s, AD_PROBE_GAMMA_T, (float(ub0[n]), float(ub_ad[n])))
    return UnitalCheckReport(n_trials, ub1.size, len(violations), tuple(violations), *counter)


# The one CSV writer: every cell "%.12f", to the byte. Tables of at least
# _VECTOR_MIN_CELLS cells are formatted in numpy; below it one row template in one
# `%` pass is faster. Measured with numpy 2.4 on a shared 2-CPU x86-64 host: 58 us
# against 61 us at 150 cells, 7.6 against 42 us at 18, 443 against 140 us at 1206.
_CELL = b"%.12f"
_VECTOR_MIN_CELLS = 150
_SLOT = 19  # a cell right-aligned in spaces: sign, 4 integer digits, '.', 12 decimals, separator
# |x| is clamped here: 9999e12 fits an int64 and 4 digits, and every cell at or
# above 2**51 / 1e12 (about 2251.8) goes to `%` anyway, being within an ulp of a tie.
# np.fmin takes NaN to the clamp too, so a non-finite cell reaches `%` without a warning.
_CLAMP = 9999.0


def _digit_blocks() -> tuple[np.ndarray, np.ndarray]:
    """The 10,000 blocks '0000'..'9999' as native uint32 words: as they are, and with
    their leading zeros (all but the last digit) as spaces."""
    d = np.arange(10_000, dtype=np.int32)[:, None]
    digits = (d // np.array([1000, 100, 10, 1], np.int32) % 10 + ord("0")).astype(np.uint8)
    spaced = np.where(d < np.array([1000, 100, 10, 0], np.int32), ord(" "), digits)
    return digits.view(np.uint32)[:, 0], spaced.view(np.uint32)[:, 0]


_DECIMALS, _INTEGERS = _digit_blocks()
_PLACEHOLDER = np.frombuffer(_CELL.rjust(_SLOT - 1), np.uint8)


def _template_body(a: np.ndarray) -> bytes:
    n, k = a.shape
    return (b",".join([_CELL] * k) + b"\n") * n % tuple(a.ravel().tolist())


def _vector_body(a: np.ndarray) -> bytes:
    """``csv_body``'s cells formatted in numpy. s = |x| 1e12 is within half
    an ulp of exact, so rint(s) is the rounding of `%` unless s lies within an ulp of
    a half-integer: such cells, exact ties among them, get a `%` placeholder. The
    digits come from 4-digit blocks, the sign from signbit (so -0.0 and tiny
    negatives print '-0.000000000000'), and one delete of every space compacts the
    fixed-width cells."""
    n, k = a.shape
    x = a.ravel()
    s = np.fmin(np.abs(x), _CLAMP) * 1e12
    r = np.rint(s)
    tie = np.flatnonzero(np.abs(s - r) >= 0.5 - s * 2.0**-52)  # s 2**-52 >= np.spacing(s)
    q, f = np.divmod(r.astype(np.int64), 10**12)
    f1, f = np.divmod(f, 10**8)
    f2, f3 = np.divmod(f, 10**4)
    buf = np.empty((n * k, _SLOT), np.uint8)
    buf[:, 0] = np.signbit(x) * np.uint8(ord("-") - ord(" ")) + np.uint8(ord(" "))
    buf[:, 5] = ord(".")
    for start, words in ((1, _INTEGERS[q]), (6, _DECIMALS[f1]), (10, _DECIMALS[f2]),
                         (14, _DECIMALS[f3])):
        buf[:, start : start + 4].view(np.uint32)[:, 0] = words
    buf[tie, :-1] = _PLACEHOLDER
    cells = buf.reshape(n, k, _SLOT)
    cells[:, :-1, -1] = ord(",")
    cells[:, -1, -1] = ord("\n")
    body = buf.tobytes().translate(None, b" ")
    return body % tuple(x[tie].tolist()) if tie.size else body


def csv_body(cells) -> bytes:
    """The CSV body of an (n, k) float table: every cell formatted "%.12f", cells
    joined by ',', rows ended by '\\n', the bytes of `%` for every finite cell. A
    non-finite cell raises a ``DomainError`` naming the first one."""
    a = as_real(cells, "CSV cells")
    if a.ndim != 2:
        raise DomainError(f"a CSV table must have shape (n, k), got {a.shape}")
    body = (_vector_body if a.size >= _VECTOR_MIN_CELLS else _template_body)(a)
    if b"n" in body:  # `%` prints a non-finite cell as nan, inf or -inf, a finite one in digits
        i, j = np.argwhere(~np.isfinite(a))[0]
        raise DomainError(f"CSV cell (row {i}, column {j}) is {a[i, j]}, not finite")
    return body


def emit_csv(rows: Rows, outputs: tuple[str, ...] = ALL_COLUMNS) -> bytes:
    """Render the ``Rows`` of a sweep as deterministic CSV bytes (12-decimal fixed
    format, LF endings, UTF-8): ``csv_body`` writes the table, and raises on a non-finite cell."""
    check_columns(outputs)
    if not isinstance(rows, Rows) or rows.record is not SweepRecord:
        got = getattr(rows, "record", type(rows)).__name__
        raise DomainError(f"emit_csv takes the SweepRecord rows of run_time_sweep, not {got}")
    table = rows.table
    if outputs != ALL_COLUMNS:
        table = table[:, [0, *(1 + ALL_COLUMNS.index(c) for c in outputs)]]
    return ("t," + ",".join(outputs) + "\n").encode() + csv_body(table)
