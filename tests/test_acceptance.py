"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. Frozen expected values come from independent
formula oracles (binary/Shannon entropy evaluated directly); the brute-force
measurement minimizer is the oracle for every closed-form M.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from eurnoise import metrics as M
from eurnoise import oracles as O
from eurnoise.linalg import binary_entropy, shannon_entropy
from eurnoise.oracles import bd_to_density
from eurnoise.states import BellDiagonalState, bell_eigenvalues, random_bd_states
from eurnoise.channels import ChannelSpec, evolve_bd_amplitude, evolve_bd_flip, pd_equivalent_eta
from eurnoise.scenarios import (
    SweepConfig,
    classify_longtime_ad,
    property_check_unital,
    run_time_sweep,
    sample_spmc_surface,
)

PAIR_13 = M.pauli_pair(1, 3)
ALL_PAIRS = [M.pauli_pair(1, 2), M.pauli_pair(1, 3), M.pauli_pair(2, 3)]
FIG_STATE = BellDiagonalState(-0.5, 0.4, 0.8)
COARSE = (65, 65)

# oracle fixtures, computed from the defining formulas (not the code under test)
U0_ORACLE = binary_entropy(0.25) + binary_entropy(0.9)  # 1.2802737180484138
U_INF_PD_ORACLE = 1.0 + binary_entropy(0.9)  # 1.4689955935892812


@contextmanager
def criterion(num, text):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} FAIL: {text}")
        raise
    print(f"ACCEPTANCE {num} PASS: {text} ({time.time() - start:.2f}s)")


def test_criterion_1_spmc_identity():
    with criterion(1, "SPMC identity |U - U_b| <= 1e-10 on 10,000 surface states"):
        start = time.time()
        states = sample_spmc_surface(PAIR_13, 100)
        assert len(states) == 10_000
        c = np.array(states)
        u = M.xstate_entropies(0.0, c).uncertainty(PAIR_13)
        worst = float(np.max(np.abs(u - M.xstate_lower_bound_Ub(0.0, c))))
        assert worst <= 1e-10
        assert time.time() - start < 10.0


def test_criterion_2_fig2_curve():
    with criterion(2, "Fig. 2 phase-damping curve matches the closed form"):
        records = run_time_sweep(
            SweepConfig(FIG_STATE, ChannelSpec("pd"), PAIR_13, 0.0, 10.0, 201, "linear")
        )
        assert len(records) == 201
        for r in records:
            expected = binary_entropy(0.9) + binary_entropy(0.5 - 0.25 * np.exp(-r.t / 2))
            assert abs(r.u - expected) <= 1e-10
        u = [r.u for r in records]
        assert all(b >= a for a, b in zip(u, u[1:]))
        assert u[0] == pytest.approx(U0_ORACLE, abs=1e-6)
        assert u[-1] == pytest.approx(U_INF_PD_ORACLE, abs=1e-3)


def test_criterion_3_fig3_decrease():
    with criterion(3, "Fig. 3 amplitude-damping decrease of U, U_b, D, E"):
        records = run_time_sweep(
            SweepConfig(FIG_STATE, ChannelSpec("ad"), PAIR_13, 0.0, 20.0, 201, "linear")
        )
        first, last = records[0], records[-1]
        assert first.u == pytest.approx(U0_ORACLE, abs=1e-6)
        assert last.u == pytest.approx(1.0, abs=1e-4)
        assert last.u < first.u
        assert last.u_b == pytest.approx(1.0, abs=1e-4)
        assert last.u_b < first.u_b
        d = [r.d for r in records]
        e = [r.e for r in records]
        assert all(b <= a + 1e-9 for a, b in zip(d, d[1:]))
        assert all(b <= a + 1e-9 for a, b in zip(e, e[1:]))
        assert d[-1] < 0.01 and e[-1] < 0.01


def test_criterion_4_witness_consistency():
    with criterion(4, "Eq. (9) witness const - U matches brute-force discord"):
        records = run_time_sweep(
            SweepConfig(FIG_STATE, ChannelSpec("pd"), PAIR_13, 0.0, 10.0, 201, "linear")
        )
        rhos = [bd_to_density(evolve_bd_flip(FIG_STATE, 3, pd_equivalent_eta(r.t))) for r in records]
        m_bf, _ = M.minimal_missing_info_bruteforce(np.array(rhos), COARSE)
        for r, rho, m in zip(records, rhos, m_bf, strict=True):
            d_witness = M.witness_discord_from_U(FIG_STATE, PAIR_13, r.u, noise_axis=3)
            d_bf = -O.conditional_entropy(rho) + m
            assert abs(d_witness - d_bf) <= 1e-9


def _bruteforce_m_of_ad_states(states, rng):
    """Each state amplitude-damped to its own seeded Gamma*t, with the closed form and
    the brute-force M of all of them in one batched call."""
    gts = [float(rng.uniform(0.0, 5.0)) for _ in states]
    rhos = np.array([evolve_bd_amplitude(s, gt) for s, gt in zip(states, gts)])
    m_bf, _ = M.minimal_missing_info_bruteforce(rhos, COARSE)
    return [M.minimal_missing_info_ad(s, gt) for s, gt in zip(states, gts)], m_bf


def test_criterion_5_closed_form_m():
    with criterion(5, "closed-form M formulas agree with the brute-force minimizer"):
        # minimizer's own fixtures
        vertices = [(-1, 1, 1), (1, -1, 1), (1, 1, -1), (-1, -1, -1)]
        fixtures = [np.eye(4, dtype=complex) / 4]
        fixtures += [bd_to_density(BellDiagonalState(*vertex)) for vertex in vertices]
        (m_mixed, *m_bells), _ = M.minimal_missing_info_bruteforce(np.array(fixtures), COARSE)
        assert m_mixed == pytest.approx(1.0, abs=1e-12)
        for m_bell in m_bells:
            assert m_bell == pytest.approx(0.0, abs=1e-9)

        rng = np.random.default_rng(20260824)
        states = random_bd_states(200, rng)
        m_bf, _ = M.minimal_missing_info_bruteforce(
            np.array([bd_to_density(s) for s in states]), COARSE
        )
        for s, m in zip(states, m_bf, strict=True):
            assert abs(m - M.xstate_entropies(0.0, s).m) <= 1e-9
        applicable = [s for s in random_bd_states(600, rng) if abs(s[0]) >= abs(s[1])][:200]
        assert len(applicable) == 200
        for res, m in zip(*_bruteforce_m_of_ad_states(applicable, rng), strict=True):
            assert not res.used_fallback
            assert abs(m - res.m) <= 1e-9
        # |c1| < |c2|: covered through the S x S symmetry, no fallback
        swapped = [s for s in random_bd_states(600, rng) if abs(s[0]) < abs(s[1])][:200]
        assert len(swapped) == 200
        for res, m in zip(*_bruteforce_m_of_ad_states(swapped, rng), strict=True):
            assert not res.used_fallback
            assert abs(m - res.m) <= 1e-9


def test_criterion_6_unital_monotonicity():
    with criterion(6, "unital channels never decrease S or U_b; nonunital counterexample"):
        start = time.time()
        report = property_check_unital(1000, seed=7)
        assert report.n_violations == 0
        assert report.n_checks == 1000 * 40
        assert report.counterexample_state is not None
        ub0, ub1 = report.counterexample_ub_drop
        assert ub1 < ub0 - 1e-9
        assert time.time() - start < 60.0


def test_criterion_7_longtime_classification():
    with criterion(7, "Supplement III long-time verdicts partition the tetrahedron"):
        assert classify_longtime_ad(FIG_STATE).verdict == "Decrease"
        assert classify_longtime_ad(BellDiagonalState(-1, 1, 1)).verdict == "Increase"
        assert classify_longtime_ad(BellDiagonalState(0, 0, 0)).verdict == "Decrease"
        rng = np.random.default_rng(314)
        for s in random_bd_states(1000, rng):
            res = classify_longtime_ad(s)
            assert res.u_b_limit == pytest.approx(1.0, abs=1e-6)
            s0 = shannon_entropy(np.clip(bell_eigenvalues(s), 0.0, None))
            if s0 > 1.0 + 1e-9:
                assert res.verdict == "Decrease"
            elif s0 < 1.0 - 1e-9:
                assert res.verdict == "Increase"


def test_criterion_8_oracle_equivalence():
    with criterion(8, "closed-form evolutions and spectra match Kraus/LAPACK routes"):
        rng = np.random.default_rng(2718)
        for axis in (1, 2, 3):
            for s in random_bd_states(200, rng):
                eta = float(rng.uniform(0.0, 1.0))
                via_kraus = O.apply_local_A(O.make_flip_channel(axis, eta), bd_to_density(s))
                via_formula = bd_to_density(evolve_bd_flip(s, axis, eta))
                assert np.max(np.abs(via_kraus - via_formula)) <= 1e-10
        for s in random_bd_states(200, rng):
            gt = float(rng.uniform(0.0, 10.0))
            via_kraus = O.apply_local_A(O.make_amplitude_damping(gt), bd_to_density(s))
            assert np.max(np.abs(via_kraus - evolve_bd_amplitude(s, gt))) <= 1e-10
        for s in random_bd_states(200, rng):
            closed = np.sort(bell_eigenvalues(s))
            lapack = np.sort(O.hermitian_eigenvalues(bd_to_density(s)))
            assert np.max(np.abs(closed - lapack)) <= 1e-10


def test_criterion_9_uncertainty_relation_never_violated():
    with criterion(9, "U - U_b >= -1e-9 across >= 50,000 randomized evaluations"):
        rng = np.random.default_rng(99)
        states = random_bd_states(500, rng)
        # flips and phase damping keep a state Bell-diagonal: every state under
        # 30 flip moves and 10 phase-damping moves, (500, 40, 3)
        c = states[:, None, :]
        levels = np.linspace(0.0, 0.5, 10)
        moves = [ChannelSpec("flip", axis).evolve(c, levels)[1] for axis in (1, 2, 3)]
        moves.append(ChannelSpec("pd").evolve(c, np.linspace(0.0, 10.0, 10))[1])
        t = np.concatenate(moves, axis=1)
        u_b = M.xstate_lower_bound_Ub(0.0, t)
        entropies = M.xstate_entropies(0.0, t)
        slacks = [entropies.uncertainty(pair) - u_b for pair in ALL_PAIRS]
        n_evals = sum(x.size for x in slacks)
        worst = min(float(x.min()) for x in slacks)
        # amplitude damping leaves the Bell-diagonal family: general path
        for s in states[:250]:
            for pair in ALL_PAIRS:
                for gt in (0.3, 1.0, 3.0, 20.0):
                    rho = evolve_bd_amplitude(s, gt)
                    slack = O.uncertainty_U(rho, pair) - O.lower_bound_Ub(rho, pair)
                    worst = min(worst, slack)
                    n_evals += 1
        assert n_evals >= 50_000
        assert worst >= -1e-9
        print(f"  [criterion 9] {n_evals} evaluations, min slack {worst:.3e}")
