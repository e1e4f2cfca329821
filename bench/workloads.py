"""The benchmark's four workloads: seeded inputs, the operations of one
round, and the checks on every operation's output.

Round r of a workload draws its inputs from numpy.random.default_rng([seed, r]),
so the same seed gives the same inputs; the program receives only the
generated (c1, c2, c3) triples and grid settings. Every round of a
workload has the same make-up, so the share of failed operations is the
same in every run.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

PAIRS = ((1, 2), (1, 3), (2, 3))
OUT_DIR = ".bench_out"

# the CLI presets: initial state, channel; pair (1, 3), Gamma*t on linspace(0, 10, 201)
PRESETS = {
    "fig2": ((-0.5, 0.4, 0.8), "pd"),
    "fig3": ((-0.5, 0.4, 0.8), "ad"),
    "smfig-b": ((-1.0, 1.0, 1.0), "ad"),
}
PRESET_GRID = np.linspace(0.0, 10.0, 201)

# The program's concurrence is the Wootters route, whose square roots of
# near-zero eigenvalues carry ~sqrt(machine eps) error on nearly pure states
# (6.3e-9 at smfig-b, Gamma*t = 0.05); U and U_b are held to 1e-9.
E_TOL = 1e-7

# Long-time AD sweeps out to Gamma*t = 800: minimal_missing_info_ad evaluates
# cosh(Gamma*t), which overflows from Gamma*t ~ 710, so these fail on every
# state. Their states are fixed so that the failed share never depends on the seed.
LONGTIME_STATES = ((-0.5, 0.4, 0.8), (0.6, -0.3, 0.2))


class CheckError(AssertionError):
    """An output failed its check."""


@dataclass
class Op:
    label: str
    points: int
    call: Callable[[], object]
    check: Callable[[object], None]
    sweep: bool = False  # produces one figure data set (a sweep and its CSV)
    known_fault: bool = False  # fails on the cosh overflow until that is fixed
    subset_check: Callable[[object, np.random.Generator], None] | None = None


def require(cond, what: str) -> None:
    if not cond:
        raise CheckError(what)


def close(a, b, tol: float, what: str) -> None:
    err = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    require(err <= tol, f"{what}: deviation {err:.3e} > {tol:.0e}")


def setup(name: str, seed: int) -> list[Op]:
    """What a run does before timing starts: import the program and build
    the first round's inputs."""
    importlib.import_module("eurnoise.cli" if name == "cli" else "eurnoise.scenarios")
    return make_round(name, seed, 0)


def make_round(name: str, seed: int, r: int, launcher=None) -> list[Op]:
    rng = np.random.default_rng([seed, r])
    if name == "cli":
        return _cli_round(rng, launcher or run_cli)
    build = {"bd-closed": _bd_closed_round, "ad-dense": _ad_dense_round, "ad-bruteforce": _ad_bf_round}[name]
    return build(rng)


# ---- in-process workloads -------------------------------------------------


def _mods():
    from eurnoise import channels, metrics, scenarios, states

    return channels, metrics, scenarios, states


def _check_records(recs, csv: bytes, n: int) -> np.ndarray:
    """Properties every sweep point must have; returns rows (t, U, Ub, D, E, M)."""
    a = np.array([[r.t, r.u, r.u_b, r.d, r.e, r.m] for r in recs], dtype=float)
    require(a.shape == (n, 6), f"expected {n} records, got {len(recs)}")
    require(np.all(np.isfinite(a)), "non-finite value in a record")
    _, u, ub, d, e, m = a.T
    require(np.all(u >= ub - 1e-9), "U < U_b - 1e-9")
    require(np.all((e >= 0.0) & (e <= 1.0 + 1e-12)), "E outside [0, 1]")
    require(np.all(d >= -1e-9), "D < -1e-9")
    require(np.all((m >= 0.0) & (m <= 1.0 + 1e-12)), "M outside [0, 1]")
    lines = csv.decode().split("\n")
    require(lines[0] == "t,U,Ub,D,E,M" and len(lines) == n + 2 and lines[-1] == "", "CSV shape")
    return a


def _sweep_op(
    label, c, channel, pair, t_start, t_end, n, axis=None, spacing="linear", known_fault=False, extra=None
):
    ch, me, sc, st = _mods()
    cfg = sc.SweepConfig(
        st.BellDiagonalState(*c), ch.ChannelSpec(channel, axis=axis), me.pauli_pair(*pair),
        t_start, t_end, n, spacing,
    )

    def call():
        recs = sc.run_time_sweep(cfg)
        return recs, sc.emit_csv(recs)

    def check(out):
        a = _check_records(*out, n)
        if extra is not None:
            extra(a)

    def subset_check(out, rng):
        recs, _ = out
        for i in rng.choice(n, size=2, replace=False):
            rec = recs[i]
            ref = oracle.row(c, channel, rec.t, pair, axis)
            s0 = st.BellDiagonalState(*c)
            if channel == "ad":
                rho = ch.evolve_bd_amplitude(s0, rec.t)
            else:
                eta = rec.t if channel == "flip" else ch.pd_equivalent_eta(rec.t)
                rho = oracle.bd_density(ch.evolve_bd_flip(s0, axis or 3, eta).as_tuple())
            close(rho, ref["rho"], 1e-10, f"{label} t={rec.t}: evolution vs Kraus")
            close(rec.u, ref["U"], 1e-9, f"{label} t={rec.t}: U vs oracle")
            close(rec.u_b, ref["Ub"], 1e-9, f"{label} t={rec.t}: U_b vs oracle")
            close(rec.e, ref["E"], E_TOL, f"{label} t={rec.t}: E vs oracle")
            close(rec.d, rec.m - ref["SAB"], 1e-9, f"{label} t={rec.t}: D vs M - S(A|B)")
            m_bf, _ = me.minimal_missing_info_bruteforce(ref["rho"])
            close(rec.m, m_bf, 1e-6, f"{label} t={rec.t}: M vs brute force")

    return Op(label, n, call, check, sweep=True, known_fault=known_fault, subset_check=subset_check)


def _bd_closed_round(rng) -> list[Op]:
    ch, me, sc, st = _mods()
    ops = []
    for c in oracle.random_bd_triples(rng, 8):
        pair = PAIRS[rng.integers(3)]
        for axis in (1, 2, 3):
            ops.append(_sweep_op(f"flip{axis}", c, "flip", pair, 0.0, 0.5, 201, axis=axis))
        ops.append(_sweep_op("pd", c, "pd", pair, 0.0, 10.0, 201))

    trials, unital_seed = 100, int(rng.integers(2**31))

    def check_unital(rep):
        require(rep.n_checks == trials * 40, f"unital check made {rep.n_checks} checks")
        require(rep.n_violations == 0, f"{rep.n_violations} unital violations")
        s = rep.counterexample_state
        require(s is not None, "no amplitude-damping counterexample")
        c = s.as_tuple()
        ub0 = oracle.entropy_of(oracle.bell_spectrum(c))
        ub1 = oracle.lower_bound(oracle.evolve(c, "ad", rep.counterexample_gamma_t))
        require(ub1 < ub0 - 1e-9, "counterexample does not lower U_b")

    ops.append(Op("unital", trials * 40, lambda: sc.property_check_unital(trials, unital_seed), check_unital))

    res, pair = 401, PAIRS[rng.integers(3)]
    ops.append(
        Op(
            "surface",
            res * res,
            lambda: sc.sample_spmc_surface(me.pauli_pair(*pair), res),
            lambda states: _check_surface(np.array([s.as_tuple() for s in states]), pair, res),
        )
    )
    return ops


def _check_surface(c: np.ndarray, pair, res: int) -> None:
    require(c.shape == (res * res, 3), f"surface kept {len(c)} of {res * res} cells")
    j, k = pair
    i = 6 - j - k
    close(c[:, i - 1] + c[:, j - 1] * c[:, k - 1], 0.0, 1e-11, "SPMC on the surface")
    require(np.min(oracle.bell_spectrum(c.T)) >= -1e-12, "surface state outside the tetrahedron")


def _ad_dense_round(rng) -> list[Op]:
    ch, me, sc, st = _mods()
    ops = []
    for c in oracle.random_bd_triples(rng, 8, where=lambda c: abs(c[0]) >= abs(c[1])):
        ops.append(_sweep_op("ad", c, "ad", PAIRS[rng.integers(3)], 0.0, 10.0, 201))
    for c in oracle.random_bd_triples(rng, 1000):
        ops.append(_classify_op(sc, st.BellDiagonalState(*c)))
    for c in LONGTIME_STATES:
        ops.append(_sweep_op("ad-longtime", c, "ad", (1, 3), 0.01, 800.0, 101, spacing="log", known_fault=True))
    return ops


def expected_verdict(c) -> str:
    """A relaxes to |1> and B stays maximally mixed, so U_b tends to 1 and the
    bound decreases iff the initial joint entropy exceeds 1."""
    h = oracle.entropy_of(oracle.bell_spectrum(c))
    return "Decrease" if h > 1.0 + 1e-9 else "Increase" if h < 1.0 - 1e-9 else "Boundary"


def _classify_op(sc, s) -> Op:
    def check(res):
        require(res.verdict == expected_verdict(s.as_tuple()), f"verdict {res.verdict} for {s}")

    return Op("classify", 1, lambda: sc.classify_longtime_ad(s), check)


def _ad_bf_round(rng) -> list[Op]:
    ch, me, sc, st = _mods()
    ops = []
    for c in oracle.random_bd_triples(rng, 4, where=lambda c: abs(c[0]) < abs(c[1])):
        swapped = st.BellDiagonalState(c[1], c[0], c[2])

        def symmetric(a, swapped=swapped):
            # S x S maps (c1, c2, c3) to (c2, c1, c3) and leaves M unchanged
            for t, m in a[:, [0, 5]]:
                ref = me.minimal_missing_info_ad(swapped, t)
                require(not ref.used_fallback, "swapped state took the fallback")
                close(m, ref.m, 1e-9, f"M at t={t} vs closed form of the swapped state")

        ops.append(_sweep_op("ad-bf", c, "ad", PAIRS[rng.integers(3)], 0.0, 2.0, 3, extra=symmetric))
    return ops


# ---- CLI workload ----------------------------------------------------------


def cli_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_cli(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "eurnoise.cli", *argv], capture_output=True, env=cli_env(), timeout=120
    )


def _literal(c) -> str:
    return "bd:" + ",".join(repr(float(x)) for x in c)


def _parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.strip("\n").split("\n")
    return lines[0].split(","), np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])


def _check_rows(header, a, c, channel, pair, grid, axis=None) -> None:
    require(a.shape == (len(grid), len(header)), f"CSV has shape {a.shape}")
    close(a[:, 0], grid, 1e-12, "grid column")
    col = {h: a[:, i] for i, h in enumerate(header)}
    for n, t in enumerate(grid):
        ref = oracle.row(c, channel, t, pair, axis)
        for name, tol in (("U", 1e-9), ("Ub", 1e-9), ("E", E_TOL)):
            if name in col:
                close(col[name][n], ref[name], tol, f"{name} at t={t} vs oracle")
        if "M" in col:
            m = col["M"][n]
            require(0.0 <= m <= 1.0, f"M={m} outside [0, 1]")
            if channel != "ad":
                close(m, oracle.bd_missing_info(oracle.correlations(ref["rho"])), 1e-9, f"M at t={t}")
            if "D" in col:
                close(col["D"][n], m - ref["SAB"], 1e-9, f"D at t={t} vs M - S(A|B)")


def _cli_op(label, argv, launcher, points, check, sweep=False) -> Op:
    def checked(proc):
        require(proc.returncode == 0, f"{label} exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
        check(proc)

    return Op(label, points, lambda: launcher(argv), checked, sweep=sweep)


def _cli_round(rng, launcher) -> list[Op]:
    ops = []
    for name, (c, channel) in PRESETS.items():

        def check(proc, c=c, channel=channel):
            header, a = _parse_csv(proc.stdout.decode())
            require(header == ["t", "U", "Ub", "D", "E", "M"], f"header {header}")
            _check_rows(header, a, c, channel, (1, 3), PRESET_GRID)

        ops.append(_cli_op(name, [name], launcher, len(PRESET_GRID), check, sweep=True))

    c = oracle.random_bd_triples(rng, 1)[0]

    def check_classify(proc, c=c):
        verdict = proc.stdout.decode().split()[0]
        require(verdict == expected_verdict(c), f"verdict {verdict} for {c}")

    ops.append(_cli_op("classify", ["classify", "--state", _literal(c)], launcher, 1, check_classify))

    out = os.path.join(OUT_DIR, "cli-sweep.csv")
    for c in oracle.random_bd_triples(rng, 2):
        axis, pair = int(rng.integers(1, 4)), PAIRS[rng.integers(3)]
        argv = [
            "sweep", "--state", _literal(c), "--channel", f"flip:{axis}", "--pair", f"{pair[0]},{pair[1]}",
            "--t-max", "0.5", "--points", "201", "--columns", "U,Ub,E", "--out", out,
        ]

        def check_sweep(proc, c=c, axis=axis, pair=pair):
            with open(out) as fh:
                header, a = _parse_csv(fh.read())
            require(header == ["t", "U", "Ub", "E"], f"header {header}")
            _check_rows(header, a, c, "flip", pair, np.linspace(0.0, 0.5, 201), axis)

        ops.append(_cli_op("sweep", argv, launcher, 201, check_sweep, sweep=True))

    trials = 50
    argv = ["check-unital", "--trials", str(trials), "--seed", str(int(rng.integers(2**31)))]

    def check_unital(proc):
        text = proc.stdout.decode()
        require(f"trials={trials} checks={trials * 40} violations=0" in text, text[:200])
        require("counterexample: state=" in text, "no amplitude-damping counterexample")

    ops.append(_cli_op("check-unital", argv, launcher, trials * 40, check_unital))

    res, pair = 41, PAIRS[rng.integers(3)]

    def check_surface(proc, pair=pair):
        header, a = _parse_csv(proc.stdout.decode())
        require(header == ["c1", "c2", "c3"], f"header {header}")
        _check_surface(a.reshape(-1, 3), pair, res)

    argv = ["surface", "--pair", f"{pair[0]},{pair[1]}", "--resolution", str(res)]
    ops.append(_cli_op("surface", argv, launcher, res * res, check_surface))
    return ops
