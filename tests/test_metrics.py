import inspect
import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eurnoise import linalg as L
from eurnoise import metrics as M
from eurnoise import oracles as O
from eurnoise.linalg import DomainError, binary_entropy, shannon_entropy
from eurnoise.oracles import bd_to_density
from eurnoise import states as S
from eurnoise.states import BellDiagonalState, random_bd_states
from eurnoise.channels import CHANNEL_LITERALS, ChannelSpec, evolve_bd_amplitude, evolve_bd_flip
from eurnoise.channels import parse_channel_literal
from eurnoise.scenarios import FIG_STATE, SweepConfig, classify_longtime_ad, run_time_sweep

from conftest import LAYOUTS, bd_states, laid_out

PAIR_13 = M.pauli_pair(1, 3)
ALL_PAIRS = [M.pauli_pair(1, 2), M.pauli_pair(1, 3), M.pauli_pair(2, 3)]
BELL_VERTEX = BellDiagonalState(-1, 1, 1)
COARSE = (65, 65)  # faster brute-force grid for loops; refinement recovers accuracy
SPMC_TOL = 1e-12  # the band these tests hold the SPMC test to; spmc_holds has no default


def _discord(c):
    """D = M - S(A|B) of Bell-diagonal correlations c, from the core at r = 0."""
    e = M.xstate_entropies(0.0, c)
    return e.m - (e.s_ab - 1.0)


def _u(r, t, pair):
    """U = S(sigma_q|B) + S(sigma_r|B) of the X states (r, t): the first column."""
    return M.xstate_columns(r, t, pair)[..., 0]


class TestObservables:
    def test_eigenbases_diagonalize(self):
        for idx in (1, 2, 3):
            vecs = O.eigenbasis(idx)
            for v, expect in zip(vecs.T, (-1.0, 1.0)):  # eigh: ascending eigenvalues
                assert np.allclose(O.PAULI[idx] @ v, expect * v)
            assert abs(np.vdot(vecs[:, 0], vecs[:, 1])) < 1e-12

    def test_pair_needs_distinct_axes(self):
        for make in (M.pauli_pair, M.ObservablePair):
            with pytest.raises(DomainError, match="two distinct Pauli axes"):
                make(3, 3)
            with pytest.raises(DomainError, match="two distinct Pauli axes"):
                make(np.int64(2), 2)

    def test_pair_keeps_the_order_given(self):
        pair = M.pauli_pair(3, 1)
        assert (pair.q, pair.r) == (3, 1) and pair == M.ObservablePair(3, 1)
        assert pair != M.pauli_pair(1, 3)

    @pytest.mark.parametrize(
        "index", [1.0, np.float64(2.0), "1", None, 0, 4, True, False, np.True_], ids=repr
    )
    def test_rejects_non_integer_or_out_of_range_index(self, index):
        # linalg.is_axis, the flip-axis rule of ChannelSpec.check: an int or
        # numpy integer in 1..3; a directly constructed pair is checked too
        for make in (M.pauli_pair, M.ObservablePair):
            with pytest.raises(DomainError, match="Pauli index must be 1, 2, or 3"):
                make(index, 3)
            with pytest.raises(DomainError, match="Pauli index must be 1, 2, or 3"):
                make(3, index)

    def test_accepts_numpy_integer_index(self):
        s = BellDiagonalState(-0.5, 0.4, 0.8)
        pair = M.pauli_pair(np.int64(1), 3)
        assert M.xstate_columns(0.0, s, pair).tobytes() == M.xstate_columns(0.0, s, PAIR_13).tobytes()

    @pytest.mark.parametrize("j,k", [(1, 2), (1, 3), (2, 3), (3, 1)])
    def test_complementarity_half(self, j, k):
        assert O.complementarity(M.pauli_pair(j, k)) == pytest.approx(0.5, abs=1e-12)


# pairs of valid axes that did not come from pauli_pair, and the metrics entry
# points that take a pair: each refuses a plain pair with the one pair rule
PLAIN_PAIRS = [(1, 3), [1, 3], np.array([1, 3])]
PAIR_ENTRY_POINTS = {
    "spmc_holds": lambda pair: M.spmc_holds(FIG_STATE, pair, SPMC_TOL),
    "witness_discord_from_U": lambda pair: M.witness_discord_from_U(FIG_STATE, pair, 1.0),
    "xstate_columns": lambda pair: M.xstate_columns(0, FIG_STATE, pair).tolist(),
}


class TestPairRule:
    @pytest.mark.parametrize("pair", PLAIN_PAIRS, ids=repr)
    @pytest.mark.parametrize("entry", PAIR_ENTRY_POINTS.values(), ids=PAIR_ENTRY_POINTS)
    def test_rejects_a_pair_not_built_by_pauli_pair(self, entry, pair):
        with pytest.raises(DomainError, match=r"pauli_pair\(j, k\)"):
            entry(pair)

    @pytest.mark.parametrize("entry", PAIR_ENTRY_POINTS.values(), ids=PAIR_ENTRY_POINTS)
    def test_accepts_numpy_integer_pair(self, entry):
        pair = M.ObservablePair(np.int64(1), np.int64(3))
        assert entry(pair) == entry(PAIR_13)

    def test_the_rule_is_check_pair(self):
        M.check_pair(PAIR_13)
        M.check_pair(M.ObservablePair(np.int64(3), np.int64(1)))
        for pair in PLAIN_PAIRS:
            with pytest.raises(DomainError, match=r"pauli_pair\(j, k\), got"):
                M.check_pair(pair)


class TestPostMeasurementState:
    def test_fixes_maximally_mixed(self):
        rho = np.eye(4, dtype=complex) / 4
        for idx in (1, 2, 3):
            out = O.post_measurement_state(rho, idx)
            assert np.allclose(out, rho, atol=1e-14)

    def test_bell_state_sigma3(self):
        rho = bd_to_density(BellDiagonalState(-1, 1, 1))
        out = O.post_measurement_state(rho, 3)
        expected = np.diag([0.5, 0, 0, 0.5]).astype(complex)
        assert np.allclose(out, expected, atol=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(bd_states(), st.sampled_from([1, 2, 3]))
    def test_idempotent(self, s, idx):
        once = O.post_measurement_state(bd_to_density(s), idx)
        twice = O.post_measurement_state(once, idx)
        assert np.max(np.abs(once - twice)) < 1e-12


class TestConditionalEntropy:
    def test_maximally_mixed(self):
        assert O.conditional_entropy(np.eye(4) / 4) == pytest.approx(1.0, abs=1e-12)

    def test_bell_state(self):
        rho = bd_to_density(BellDiagonalState(-1, 1, 1))
        assert O.conditional_entropy(rho) == pytest.approx(-1.0, abs=1e-10)

    def test_fig_state(self, fig_state):
        expected = -sum(p * np.log2(p) for p in (0.225, 0.675, 0.025, 0.075)) - 1.0
        assert O.conditional_entropy(bd_to_density(fig_state)) == pytest.approx(
            expected, abs=1e-10
        )


class TestUncertainty:
    def test_maximally_mixed(self):
        rho = np.eye(4, dtype=complex) / 4
        assert O.uncertainty_U(rho, PAIR_13) == pytest.approx(2.0, abs=1e-10)

    def test_bell_vertex_certainty(self):
        rho = bd_to_density(BellDiagonalState(-1, 1, 1))
        assert O.uncertainty_U(rho, PAIR_13) == pytest.approx(0.0, abs=1e-9)

    def test_fig_state_closed_form(self, fig_state):
        expected = binary_entropy(0.25) + binary_entropy(0.9)
        u = _u(0.0, fig_state, PAIR_13)
        assert u == pytest.approx(expected, abs=1e-14)
        assert O.uncertainty_U(bd_to_density(fig_state), PAIR_13) == pytest.approx(
            expected, abs=1e-10
        )

    @settings(max_examples=30, deadline=None)
    @given(bd_states(), st.sampled_from([(1, 2), (1, 3), (2, 3)]))
    def test_general_equals_closed_form(self, s, jk):
        pair = M.pauli_pair(*jk)
        assert O.uncertainty_U(bd_to_density(s), pair) == pytest.approx(
            _u(0.0, s, pair), abs=1e-10
        )


class TestLowerBound:
    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_subnormal_flip_on_bell_vertex(self, axis):
        # a subnormal off-diagonal entry must not overflow the eigensolver
        rho = O.apply_local_A(O.make_flip_channel(axis, 2.2e-309), bd_to_density(BELL_VERTEX))
        assert O.lower_bound_Ub(rho, PAIR_13) == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed(self):
        assert O.lower_bound_Ub(np.eye(4) / 4, PAIR_13) == pytest.approx(2.0, abs=1e-10)

    def test_bell_vertex(self):
        rho = bd_to_density(BellDiagonalState(-1, 1, 1))
        assert O.lower_bound_Ub(rho, PAIR_13) == pytest.approx(0.0, abs=1e-9)

    def test_fig_state(self, fig_state):
        expected = -sum(p * np.log2(p) for p in (0.225, 0.675, 0.025, 0.075))
        assert M.xstate_lower_bound_Ub(0.0, fig_state) == pytest.approx(expected, abs=1e-12)
        assert O.lower_bound_Ub(bd_to_density(fig_state), PAIR_13) == pytest.approx(
            expected, abs=1e-10
        )

    @settings(max_examples=40, deadline=None)
    @given(bd_states(), st.sampled_from([(1, 2), (1, 3), (2, 3)]))
    def test_never_above_uncertainty(self, s, jk):
        pair = M.pauli_pair(*jk)
        rho = bd_to_density(s)
        assert O.uncertainty_U(rho, pair) - O.lower_bound_Ub(rho, pair) >= -1e-9


class TestSpmc:
    def test_fig_state_pair_13(self, fig_state):
        assert M.spmc_holds(fig_state, PAIR_13, SPMC_TOL)

    def test_the_caller_always_passes_the_band(self, fig_state):
        params = inspect.signature(M.spmc_holds).parameters
        assert list(params) == ["s", "pair", "tol"]
        assert all(p.default is p.empty for p in params.values())
        with pytest.raises(TypeError):
            M.spmc_holds(fig_state, PAIR_13)

    def test_center_any_pair(self):
        center = BellDiagonalState(0, 0, 0)
        for jk in [(1, 2), (1, 3), (2, 3)]:
            assert M.spmc_holds(center, M.pauli_pair(*jk), SPMC_TOL)

    def test_fig_state_pair_12_fails(self, fig_state):
        assert not M.spmc_holds(fig_state, M.pauli_pair(1, 2), SPMC_TOL)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-12, -0.5], ids=repr)
    def test_rejects_a_tol_that_is_not_finite_and_non_negative(self, fig_state, tol):
        # a NaN tol made every state fail the test, silently
        with pytest.raises(DomainError, match="tol must be a finite number >= 0"):
            M.spmc_holds(fig_state, PAIR_13, tol=tol)

    @pytest.mark.parametrize("tol", ["1e-12", b"0", None, 1j, np.complex128(0.0), [0.0, "0"]], ids=repr)
    def test_rejects_a_tol_that_is_not_real(self, fig_state, tol):
        with pytest.raises(DomainError) as info:
            M.spmc_holds(fig_state, PAIR_13, tol=tol)
        assert str(info.value) == f"tol must be real numbers, got {tol!r}"

    @pytest.mark.parametrize("tol", [0, 1, True, np.float32(1e-3), np.array(1e-12)], ids=repr)
    def test_takes_any_real_tol(self, fig_state, tol):
        assert M.spmc_holds(fig_state, PAIR_13, tol=tol)

    def test_a_zero_tol_asks_for_equality(self):
        assert M.spmc_holds(BellDiagonalState(0, 0, 0), PAIR_13, tol=0.0)
        assert M.spmc_holds(BellDiagonalState(-1, 1, 1), PAIR_13, tol=-0.0)
        assert not M.spmc_holds(BellDiagonalState(0, 1e-300, 0), PAIR_13, tol=0.0)

    def test_record_tuple_and_array_agree(self, fig_state):
        for c in [fig_state, (-0.5, 0.4, 0.8), np.array([-0.5, 0.4, 0.8])]:
            for jk in [(1, 3), (3, 1), (1, 2), (2, 3)]:
                pair = M.pauli_pair(*jk)
                assert M.spmc_holds(c, pair, SPMC_TOL) is M.spmc_holds(fig_state, pair, SPMC_TOL)
            assert M.spmc_holds(c, PAIR_13, SPMC_TOL)

    @settings(max_examples=40, deadline=None)
    @given(bd_states())
    def test_identity_u_equals_ub(self, s):
        # Supplement-style identity: on the SPMC surface U == U_b
        from eurnoise.states import is_valid

        surf = BellDiagonalState(s.c1, -s.c1 * s.c3, s.c3)
        if not is_valid(surf):
            return
        assert _u(0.0, surf, PAIR_13) == pytest.approx(
            M.xstate_lower_bound_Ub(0.0, surf), abs=1e-10
        )


class TestConcurrence:
    def test_separable(self):
        assert O.concurrence(np.eye(4) / 4) == 0.0

    def test_bell_state(self):
        rho = bd_to_density(BellDiagonalState(-1, 1, 1))
        assert O.concurrence(rho) == pytest.approx(1.0, abs=1e-10)

    def test_fig_state(self, fig_state):
        # 2 max(0, lambda_max - 1/2) = 2 (0.675 - 0.5)
        assert O.concurrence(bd_to_density(fig_state)) == pytest.approx(0.35, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(bd_states())
    def test_bd_closed_form(self, s):
        from eurnoise.states import bell_eigenvalues

        lam_max = float(np.max(bell_eigenvalues(s)))
        expected = 2.0 * max(0.0, lam_max - 0.5)
        # sqrt of a near-zero eigenvalue carries ~1e-9 inherent error
        assert O.concurrence(bd_to_density(s)) == pytest.approx(expected, abs=1e-7)

    def test_rank_deficient_state(self):
        # Bell weights proportional to (0, 0.9025..., 0.2125..., 0): the Wootters
        # value is 1e-8 off the exact X-state value here, which is within the
        # oracle tolerance and must not raise
        lam = np.array([0.0, 0.9025189306698165, 0.21258132126618007, 0.0])
        lpp, lpm, lsp, lsm = lam / lam.sum()
        s = BellDiagonalState(lpp - lpm + lsp - lsm, -lpp + lpm + lsp - lsm, lpp + lpm - lsp - lsm)
        exact = float(M.xstate_columns(0.0, s.as_tuple(), PAIR_13)[3])
        assert exact == pytest.approx(2.0 * lam.max() / lam.sum() - 1.0, abs=1e-15)
        assert O.concurrence(bd_to_density(s)) == pytest.approx(exact, abs=1e-7)


class TestMinimalMissingInfo:
    def test_bruteforce_maximally_mixed(self):
        m, _ = M.minimal_missing_info_bruteforce(np.eye(4, dtype=complex) / 4, COARSE)
        assert m == pytest.approx(1.0, abs=1e-12)

    def test_bruteforce_bell_state(self):
        rho = bd_to_density(BellDiagonalState(-1, 1, 1))
        m, _ = M.minimal_missing_info_bruteforce(rho, COARSE)
        assert m == pytest.approx(0.0, abs=1e-9)

    def test_bruteforce_fig_state(self, fig_state):
        m, (theta, _) = M.minimal_missing_info_bruteforce(bd_to_density(fig_state))
        assert m == pytest.approx(binary_entropy(0.9), abs=1e-10)
        assert theta == pytest.approx(0.0, abs=1e-6)  # sigma3 measurement

    @pytest.mark.parametrize("grid", [(65, 65), (181, 361)])
    def test_the_y_axis_off_the_grid_is_a_start(self, grid):
        # neither grid holds xi = pi/2; T = diag(0, 0.5, -0.5 + 6e-8) makes the y-z circle a
        # valley flat within 5e-8 whose end on the grid, the z axis, is not its minimum
        s = evolve_bd_flip(BellDiagonalState(0.0, 0.5, -0.5), 2, 2.0**-24)
        m, angles = M.minimal_missing_info_bruteforce(bd_to_density(s), grid)
        assert M.xstate_entropies(0.0, s).m_z - m > 4e-8
        assert m == pytest.approx(binary_entropy(0.75), abs=1e-15)
        assert angles == pytest.approx((np.pi / 4, np.pi / 2), abs=1e-9)

    def test_grid_floor(self):
        with pytest.raises(DomainError):
            M.minimal_missing_info_bruteforce(np.eye(4) / 4, (32, 32))

    def test_bd_closed_form_examples(self, fig_state):
        assert M.xstate_entropies(0.0, BellDiagonalState(0, 0, 0)).m == 1.0
        assert M.xstate_entropies(0.0, BellDiagonalState(-1, 1, 1)).m == 0.0
        assert M.xstate_entropies(0.0, fig_state).m == pytest.approx(
            binary_entropy(0.9), abs=1e-14
        )

    @settings(max_examples=15, deadline=None)
    @given(bd_states())
    def test_bd_vs_bruteforce(self, s):
        m, _ = M.minimal_missing_info_bruteforce(bd_to_density(s), COARSE)
        assert m == pytest.approx(M.xstate_entropies(0.0, s).m, abs=1e-9)


def _general_densities(rng, n):
    """Seeded densities G G^dag / tr of rank 1 to 4, with b != 0 almost surely."""
    out = []
    for k in rng.integers(1, 5, size=n):
        g = rng.normal(size=(4, k)) + 1j * rng.normal(size=(4, k))
        rho = g @ g.conj().T
        out.append(rho / np.trace(rho).real)
    return np.array(out)


def _b_pure_densities(rng):
    """rho_A x |psi><psi| for B in |0>, |1> and |+>, so one outcome along +-z or +-x has p = 0."""
    kets = [np.array([1, 0]), np.array([0, 1]), np.array([1, 1]) / np.sqrt(2)]
    rho_a = _general_densities(rng, 3)[:, :2, :2]  # a 2x2 block of a density, not normalized
    rho_a = rho_a / np.trace(rho_a, axis1=1, axis2=2)[:, None, None]
    return np.array([np.kron(a, np.outer(k, k.conj())) for a in rho_a for k in kets])


def _oracle_conditional_entropy(rho, theta, xi):
    """sum_k q_k S(rho_A^k) from eurnoise.oracles alone: the projectors I x (I +- n.sigma)/2
    built from PAULI, then partial_trace and von_neumann_entropy."""
    n = (np.sin(2 * theta) * np.cos(xi), np.sin(2 * theta) * np.sin(xi), np.cos(2 * theta))
    total = 0.0
    for sign in (1, -1):
        proj = (O.IDENTITY_2 + sign * sum(c * O.PAULI[j] for j, c in zip((1, 2, 3), n))) / 2
        big = O.tensor_product(O.IDENTITY_2, proj)
        rho_a = O.partial_trace(big @ rho @ big, "A")
        q = np.trace(rho_a).real
        if q > 1e-12:  # an outcome of probability q adds at most q (S <= 1 bit)
            total += q * O.von_neumann_entropy(rho_a / q)
    return total


# fixed measurements: +z, -z, +x, -x and +y, then seeded angles
FIXED_THETA = np.concatenate([[0.0, np.pi / 2, np.pi / 4, np.pi / 4, np.pi / 4],
                              np.random.default_rng(151).uniform(0, np.pi, 8)])
FIXED_XI = np.concatenate([[0.0, 0.0, 0.0, np.pi, np.pi / 2],
                           np.random.default_rng(152).uniform(0, 2 * np.pi, 8)])


@pytest.mark.filterwarnings("error")
class TestBruteForceBlochForm:
    """The real Bloch form of the brute force against routes built from the oracles."""

    def test_tolerances_restate_the_oracles(self):
        assert M._HERMITICITY_TOL == O.HERMITICITY_TOL
        assert M._EIGENVALUE_CLAMP == O.EIGENVALUE_CLAMP

    def test_pauli_correlations_match_traces(self):
        rng = np.random.default_rng(153)
        for rho in _general_densities(rng, 20):
            r = M._pauli_correlations(rho)
            for m, n in itertools.product(range(4), repeat=2):
                sm = O.IDENTITY_2 if m == 0 else O.PAULI[m]
                sn = O.IDENTITY_2 if n == 0 else O.PAULI[n]
                expected = np.trace(rho @ O.tensor_product(sm, sn)).real
                assert r[m, n] == pytest.approx(expected, abs=1e-15)
            assert np.abs(r[0, 1:]).max() > 1e-3  # b != 0

    @pytest.mark.parametrize("family", ["general", "b_pure"])
    def test_conditional_entropy_matches_oracle_route(self, family):
        rng = np.random.default_rng(154)
        states = _general_densities(rng, 40) if family == "general" else _b_pure_densities(rng)
        for rho in states:
            got = M._conditional_entropy(M._pauli_correlations(rho), FIXED_THETA, FIXED_XI)
            expected = [_oracle_conditional_entropy(rho, t, x) for t, x in zip(FIXED_THETA, FIXED_XI)]
            assert np.abs(got - expected).max() <= 1e-12

    def test_b_pure_states_hit_p_zero(self):
        # |0>, |1> and |+> on B: along +z, -z and +x one outcome has probability 0
        r = M._pauli_correlations(_b_pure_densities(np.random.default_rng(155)))
        b = r[:, 0, 1:]
        assert {tuple(np.round(v, 12)) for v in b} == {(0, 0, 1), (0, 0, -1), (1, 0, 0)}

    def test_product_states_give_s_of_a(self):
        # a measurement on B of rho_A x rho_B leaves rho_A whatever the outcome
        rng = np.random.default_rng(156)
        halves = _general_densities(rng, 10)[:, :2, :2]
        halves = halves / np.trace(halves, axis1=1, axis2=2)[:, None, None]
        rho = np.array([np.kron(a, b) for a, b in zip(halves[:5], halves[5:])])
        m, _ = M.minimal_missing_info_bruteforce(rho, COARSE)
        expected = [O.von_neumann_entropy(a) for a in halves[:5]]
        assert np.abs(m - expected).max() <= 1e-12

    def test_pure_states_give_zero(self):
        # B measured in its Schmidt basis leaves A pure
        g = np.random.default_rng(157).normal(size=(2, 20, 4))
        psi = g[0] + 1j * g[1]
        psi /= np.linalg.norm(psi, axis=1)[:, None]
        m, _ = M.minimal_missing_info_bruteforce(psi[:, :, None] * psi[:, None, :].conj(), COARSE)
        assert np.abs(m).max() <= 1e-9

    @pytest.mark.parametrize("shape", [(1,), (5,), (2, 3), (0,)])
    def test_batch_equals_one_at_a_time_bitwise(self, shape):
        rng = np.random.default_rng(158)
        n = int(np.prod(shape))
        ad = [evolve_bd_amplitude(s, float(rng.uniform(0, 5))) for s in random_bd_states(n, rng)]
        rho = np.array(ad[: n // 2] + list(_general_densities(rng, n - n // 2)))
        m, (theta, xi) = M.minimal_missing_info_bruteforce(rho.reshape(shape + (4, 4)), COARSE)
        assert m.shape == theta.shape == xi.shape == shape
        for idx, one in zip(np.ndindex(shape), rho):
            m1, (t1, x1) = M.minimal_missing_info_bruteforce(one, COARSE)
            assert type(m1) is type(t1) is type(x1) is float
            assert (m[idx], theta[idx], xi[idx]) == (m1, t1, x1)

    def test_angles_lie_on_the_convention_and_give_m(self):
        # the refinement steps past the grid's edges; the angles come back folded
        # onto [0, pi] x [0, 2 pi), where n(theta, xi) gives the returned M
        rng = np.random.default_rng(159)
        rho = np.array([evolve_bd_amplitude(s, float(rng.uniform(0, 5)))
                        for s in random_bd_states(60, rng)])
        m, (theta, xi) = M.minimal_missing_info_bruteforce(rho, COARSE)
        assert ((0.0 <= theta) & (theta <= np.pi)).all(), theta[(theta < 0) | (theta > np.pi)]
        assert ((0.0 <= xi) & (xi < 2 * np.pi)).all(), xi[(xi < 0) | (xi >= 2 * np.pi)]
        at = M._conditional_entropy(M._pauli_correlations(rho), theta[:, None], xi[:, None])
        assert np.abs(at[:, 0] - m).max() <= 1e-15

    def test_fold_angles(self):
        theta = np.array([-1e-17, -0.25, np.pi + 0.5, 0.0, np.pi, 1.0])
        xi = np.array([-1e-17, -0.25, 2 * np.pi + 0.5, 2 * np.pi, 0.0, 1.0])
        t, x = M._fold_angles(theta, xi)
        assert ((0.0 <= t) & (t <= np.pi)).all() and ((0.0 <= x) & (x < 2 * np.pi)).all()
        assert x[0] == 0.0  # -1e-17 mod 2 pi rounds up to 2 pi
        assert t[3:].tolist() == [0.0, 0.0, 1.0] and x[3:].tolist() == [0.0, 0.0, 1.0]
        s, c = np.sin(2 * theta), np.cos(2 * theta)
        n = np.stack([s * np.cos(xi), s * np.sin(xi), c])
        s, c = np.sin(2 * t), np.cos(2 * t)
        assert np.abs(np.stack([s * np.cos(x), s * np.sin(x), c]) - n).max() <= 1e-15

    @pytest.mark.parametrize(
        "rho, message",
        [
            (np.full((4, 4), np.nan), "density has a NaN or infinite entry"),
            (np.eye(4) / 4 + np.diag([np.inf, 0, 0, 0]), "density has a NaN or infinite entry"),
            (np.eye(4), "density has trace 4.0, not 1"),
            (np.diag([1.75, -0.25, -0.25, -0.25]), "density has eigenvalue -0.25 below -1e-09"),
            (np.eye(3) / 3, r"density must have shape \(\.\.\., 4, 4\), got shape \(3, 3\)"),
            (np.full(16, 1 / 16), r"got shape \(16,\)"),
            (np.eye(4) / 4 + np.diag([1e-9] * 3, 1), "density is not Hermitian within 1e-12"),
            (np.array([np.eye(4) / 4, np.diag([1.75, -0.25, -0.25, -0.25])]),
             "density has eigenvalue -0.25 below -1e-09"),
        ],
        ids=["nan", "inf", "identity", "negative", "3x3", "flat", "not-hermitian", "batch"],
    )
    def test_rejects_a_bad_density(self, rho, message):
        with pytest.raises(DomainError, match=message):
            M.minimal_missing_info_bruteforce(rho, COARSE)

    # the kind check comes before any conversion: text is not read as numbers
    @pytest.mark.parametrize(
        "rho",
        [[["0.25" if i == j else "0" for j in range(4)] for i in range(4)],
         [[b"0.25" if i == j else b"0" for j in range(4)] for i in range(4)],
         None,
         [[0.25, 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0.25]]],
        ids=["numeric_str", "numeric_bytes", "none", "ragged"],
    )
    def test_refuses_what_is_not_a_number(self, rho):
        with pytest.raises(DomainError) as info:
            M.minimal_missing_info_bruteforce(rho, COARSE)
        assert str(info.value) == f"density must be real or complex numbers, got {rho!r}"

    def test_takes_bools_integers_floats_and_complex(self):
        pure = np.diag([True, False, False, False])  # |00><00|
        results = [
            M.minimal_missing_info_bruteforce(rho, COARSE)
            for rho in (pure, pure.astype(int), pure.astype(float), pure.astype(complex),
                        pure.tolist())
        ]
        assert results[1:] == results[:-1]

    def test_accepts_a_density_within_the_windows(self):
        rho = np.diag([0.5 + 5e-10, 0.5 + 4e-10, -5e-10, 0.0]).astype(complex)
        rho[0, 1] += 5e-13
        m, _ = M.minimal_missing_info_bruteforce(rho, COARSE)
        assert 0.0 <= m <= 1.0

    @pytest.mark.parametrize("grid", [(64.5, 64), (64, 64.5), (True, 64), (64, False), (63, 64)])
    def test_grid_entries_follow_the_count_rule(self, grid):
        with pytest.raises(DomainError, match="grid points per angle must be an integer >= 64"):
            M.minimal_missing_info_bruteforce(np.eye(4) / 4, grid)

    @pytest.mark.parametrize("grid", [(64, 64, 64), (64,), 64, ()])
    def test_grid_is_two_counts(self, grid):
        with pytest.raises(DomainError, match="grid must be two counts"):
            M.minimal_missing_info_bruteforce(np.eye(4) / 4, grid)

    def test_numpy_integer_grid(self):
        m, _ = M.minimal_missing_info_bruteforce(np.eye(4) / 4, (np.int64(64), np.int32(65)))
        assert m == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "grid",
        [(np.int8(100), np.int8(100)), (np.uint8(200), np.uint8(100)),
         (np.int16(200), np.int16(200))],
        ids=repr,
    )
    def test_narrow_integer_counts_give_the_bits_of_python_ints(self, grid):
        # the grid arithmetic ran in the counts' own type: 4 * n_xi and n_theta * n_xi
        # wrapped, with numpy's "overflow encountered in scalar multiply"
        rho = _general_densities(np.random.default_rng(2902), 1)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m, angles = M.minimal_missing_info_bruteforce(rho, grid)
        want_m, want_angles = M.minimal_missing_info_bruteforce(rho, tuple(map(int, grid)))
        assert [float.hex(x) for x in (m, *angles)] == [
            float.hex(x) for x in (want_m, *want_angles)
        ]


OUTSIDE_STATES = [
    BellDiagonalState(0.9, 0.9, 0.9),
    BellDiagonalState(np.nan, 0.0, 0.0),
    BellDiagonalState(0.0, np.nan, 0.0),
    BellDiagonalState(0.0, 0.0, np.nan),
]


@pytest.mark.parametrize("s", OUTSIDE_STATES, ids=repr)
@pytest.mark.parametrize(
    "entry",
    [
        lambda s: SweepConfig(s, ChannelSpec("pd"), PAIR_13, 0.0, 10.0, 201, "linear"),
        lambda s: ChannelSpec("pd").evolve(s, 1.0),
        lambda s: M.minimal_missing_info_ad(s, 1.0),
        classify_longtime_ad,
        lambda s: M.witness_discord_from_U(s, PAIR_13, 1.0),
        lambda s: M.spmc_holds(s, PAIR_13, SPMC_TOL),
    ],
    ids=["SweepConfig", "ChannelSpec.evolve", "minimal_missing_info_ad", "classify",
         "witness_discord_from_U", "spmc_holds"],
)
def test_entry_points_reject_states_outside_tetrahedron(s, entry):
    with pytest.raises(DomainError, match="outside the Bell-diagonal tetrahedron"):
        entry(s)


# batches of valid states, each a DomainError at an entry point that takes one
# state; three distinct states over a 3-point grid once gave one state per point
BATCHES = [
    np.array([[0.0, 0.0, 0.0], [-0.5, 0.4, 0.8], [0.2, 0.1, 0.3]]),
    np.zeros((2, 3)),
    np.array([[-0.5, 0.4, 0.8]]),
    np.zeros((0, 3)),
    np.zeros((2, 1, 3)),
]
ONE_STATE_ENTRIES = {
    "SweepConfig": lambda c: SweepConfig(c, ChannelSpec("ad"), PAIR_13, 0.0, 2.0, 3, "linear"),
    "spmc_holds": lambda c: M.spmc_holds(c, PAIR_13, SPMC_TOL),
    "witness_discord_from_U": lambda c: M.witness_discord_from_U(c, PAIR_13, 1.0),
    "minimal_missing_info_ad": lambda c: M.minimal_missing_info_ad(c, 1.0),
}
# arrays where one strength or one measured U belongs
NOT_SCALARS = [np.array([1.0]), np.array([0.5, 1.0]), [1.0, 2.0], np.ones((2, 2)), np.empty(0)]


@pytest.mark.parametrize("c", BATCHES, ids=lambda c: f"shape{c.shape}")
@pytest.mark.parametrize("entry", ONE_STATE_ENTRIES.values(), ids=ONE_STATE_ENTRIES.keys())
def test_one_state_entry_points_reject_a_batch(entry, c):
    with pytest.raises(DomainError) as info:
        entry(c)
    assert str(info.value) == f"one state must have shape (3,), got shape {c.shape}"


@pytest.mark.parametrize("x", NOT_SCALARS, ids=lambda x: f"shape{np.shape(x)}")
def test_minimal_missing_info_ad_takes_one_strength(x, fig_state):
    with pytest.raises(DomainError) as info:
        M.minimal_missing_info_ad(fig_state, x)
    assert str(info.value) == f"ad strength must be a scalar, got shape {np.shape(x)}"


@pytest.mark.parametrize("x", ["1", b"1", 1 + 0j, None], ids=repr)
def test_minimal_missing_info_ad_names_its_strength_as_the_channel_does(x, fig_state):
    # one name for the amplitude-damping strength, whichever check refuses it
    with pytest.raises(DomainError) as info:
        M.minimal_missing_info_ad(fig_state, x)
    assert str(info.value) == f"ad strength must be real numbers, got {x!r}"
    with pytest.raises(DomainError) as info:
        ChannelSpec("ad").check(x)
    assert str(info.value) == f"ad strength must be real numbers, got {x!r}"


@pytest.mark.parametrize("x", NOT_SCALARS, ids=lambda x: f"shape{np.shape(x)}")
def test_witness_takes_one_measured_u(x, fig_state):
    with pytest.raises(DomainError) as info:
        M.witness_discord_from_U(fig_state, PAIR_13, x)
    assert str(info.value) == f"measured uncertainty must be a scalar, got shape {np.shape(x)}"


@pytest.mark.parametrize("x", NOT_SCALARS, ids=lambda x: f"shape{np.shape(x)}")
def test_spmc_holds_takes_one_tol(x, fig_state):
    with pytest.raises(DomainError) as info:
        M.spmc_holds(fig_state, PAIR_13, tol=x)
    assert str(info.value) == f"tol must be a scalar, got shape {np.shape(x)}"


class TestMinimalMissingInfoAD:
    @pytest.mark.parametrize("gt", [np.nan, -1.0, np.inf])
    def test_bad_strength_rejected(self, fig_state, gt):
        with pytest.raises(DomainError, match=f"ad strength {gt}"):
            M.minimal_missing_info_ad(fig_state, gt)

    def test_zero_time_matches_bd(self, fig_state):
        res = M.minimal_missing_info_ad(fig_state, 0.0)
        assert not res.used_fallback
        assert res.m_x == pytest.approx(binary_entropy(0.75), abs=1e-12)
        assert res.m == pytest.approx(binary_entropy(0.9), abs=1e-12)

    def test_longtime_vanishes(self, fig_state):
        assert M.minimal_missing_info_ad(fig_state, 50.0).m == pytest.approx(0.0, abs=1e-9)

    def test_log_two_values(self, fig_state):
        res = M.minimal_missing_info_ad(fig_state, np.log(2))
        e = M.xstate_entropies(*ChannelSpec("ad").evolve(fig_state, np.log(2)))
        assert [type(x) for x in (res.m, res.m_x, res.m_z)] == [float] * 3  # the core's, as floats
        assert (res.m, res.m_x, res.m_z) == (float(e.m), float(e.m_x), float(e.m_z))
        u = np.sqrt(0.375)
        assert res.m_x == pytest.approx(binary_entropy((1 + u) / 2), abs=1e-12)
        assert res.m_z == pytest.approx(
            (binary_entropy(0.45) + binary_entropy(0.05)) / 2, abs=1e-12
        )
        assert res.m == min(res.m_x, res.m_z)

    def test_log_two_vs_bruteforce(self, fig_state):
        gt = np.log(2)
        m, _ = M.minimal_missing_info_bruteforce(evolve_bd_amplitude(fig_state, gt))
        assert m == pytest.approx(M.minimal_missing_info_ad(fig_state, gt).m, abs=1e-9)

    @pytest.mark.parametrize("gt", [710.0, 745.0, 800.0])
    def test_longtime_finite(self, fig_state, gt):
        # cosh(Gamma*t) overflows from ~710; the (r, T) form never forms it
        res = M.minimal_missing_info_ad(fig_state, gt)
        assert np.all(np.isfinite([res.m, res.m_x, res.m_z]))
        assert res.m == pytest.approx(0.0, abs=1e-12)

    def test_swapped_coefficients_closed_form(self):
        # |c1| < |c2|: S x S swaps c1 and c2 and leaves M unchanged, so the
        # closed form covers this state too
        s = BellDiagonalState(0.1, 0.5, 0.2)
        res = M.minimal_missing_info_ad(s, 0.8)
        assert not res.used_fallback
        m, _ = M.minimal_missing_info_bruteforce(evolve_bd_amplitude(s, 0.8))
        assert res.m == pytest.approx(m, abs=1e-12)


class TestDiscord:
    def test_classical_state(self):
        assert O.discord(np.eye(4, dtype=complex) / 4) == pytest.approx(0.0, abs=1e-9)

    def test_bell_state(self):
        rho = bd_to_density(BellDiagonalState(-1, 1, 1))
        assert O.discord(rho) == pytest.approx(1.0, abs=1e-9)

    def test_fig_state(self, fig_state):
        s_ab = -sum(p * np.log2(p) for p in (0.225, 0.675, 0.025, 0.075))
        expected = -(s_ab - 1.0) + binary_entropy(0.9)  # 0.18872...
        assert O.discord(bd_to_density(fig_state)) == pytest.approx(expected, abs=1e-10)
        assert _discord(fig_state) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(bd_states())
    def test_non_negative(self, s):
        assert _discord(s) >= -1e-9


class TestDiscordWitness:
    def test_fig2_const(self, fig_state):
        # const = 1 + H_bin(0.9); at t=0, U = U_b so D = const - U
        u0 = _u(0.0, fig_state, PAIR_13)
        d = M.witness_discord_from_U(fig_state, PAIR_13, u0)
        assert d == pytest.approx(_discord(fig_state), abs=1e-12)
        # log2(1/c) is the exact 1 of every distinct Pauli pair, as in U_b
        assert d == 1.0 + binary_entropy(0.9) - u0
        assert M.witness_discord_from_U(fig_state, M.pauli_pair(3, 1), u0) == d

    def test_record_tuple_and_array_agree(self, fig_state):
        u0 = _u(0.0, fig_state, PAIR_13)
        d = M.witness_discord_from_U(fig_state, PAIR_13, u0)
        for c in [(-0.5, 0.4, 0.8), np.array([-0.5, 0.4, 0.8])]:
            assert M.witness_discord_from_U(c, PAIR_13, u0) == d
            assert M.witness_discord_from_U(c, PAIR_13, u0, noise_axis=3) == d
            with pytest.raises(M.WitnessNotValidError):
                M.witness_discord_from_U(c, PAIR_13, u0, noise_axis=1)

    @pytest.mark.parametrize("axis", [3.0, True, 0, 4, "3"], ids=repr)
    def test_rejects_a_noise_axis_that_is_not_an_axis(self, axis, fig_state):
        with pytest.raises(DomainError, match="Pauli axis must be 1, 2 or 3"):
            M.witness_discord_from_U(fig_state, PAIR_13, 1.0, noise_axis=axis)

    def test_fully_dephased_discord_zero(self, fig_state):
        dephased = evolve_bd_flip(fig_state, 3, 0.5)
        u = _u(0.0, dephased, PAIR_13)
        d = M.witness_discord_from_U(fig_state, PAIR_13, u)
        assert d == pytest.approx(0.0, abs=1e-12)
        assert _discord(dephased) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_wrong_axis(self, fig_state):
        with pytest.raises(M.WitnessNotValidError):
            M.witness_discord_from_U(fig_state, PAIR_13, 1.0, noise_axis=2)

    def test_rejects_non_dominant(self):
        s = BellDiagonalState(0.8, -0.16, 0.2)  # SPMC for (1,3) but c1 dominates axis 3
        with pytest.raises(M.WitnessNotValidError):
            M.witness_discord_from_U(s, PAIR_13, 1.0, noise_axis=3)

    @pytest.mark.parametrize("u", [np.nan, np.inf, -np.inf])
    def test_rejects_a_measured_u_that_is_not_finite(self, u, fig_state):
        with pytest.raises(DomainError, match="not finite"):
            M.witness_discord_from_U(fig_state, PAIR_13, u)

    @pytest.mark.parametrize("u", [1 + 1j, np.complex128(1.0), "1.0", b"1", None, [1j]], ids=repr)
    def test_rejects_a_measured_u_that_is_not_real(self, u):
        # a complex u gave a complex discord, a str or None numpy's TypeError
        with pytest.raises(DomainError) as info:
            M.witness_discord_from_U(BellDiagonalState(0.8, -0.5, 0.4), M.pauli_pair(1, 2), u)
        assert str(info.value) == f"measured uncertainty must be real numbers, got {u!r}"

    @pytest.mark.parametrize("u", [1, True, np.float32(1.25), np.array(1.25)], ids=repr)
    def test_a_real_measured_u_gives_a_float(self, u, fig_state):
        d = M.witness_discord_from_U(fig_state, PAIR_13, u)
        assert type(d) is float and d == 1.0 + binary_entropy(0.9) - float(u)

    def test_rejects_spmc_violation(self):
        s = BellDiagonalState(-0.5, 0.35, 0.8)  # inside the tetrahedron, c2 != -c1*c3
        with pytest.raises(M.WitnessNotValidError):
            M.witness_discord_from_U(s, PAIR_13, 1.0)


# the X core's entry points, each taking (r, T) through one builder: linalg.as_real for both,
# then the (..., 3) shape rule for T
XSTATE_ENTRIES = {
    "xstate_entropies": M.xstate_entropies,
    "xstate_lower_bound_Ub": M.xstate_lower_bound_Ub,
    "xstate_columns": lambda r, t: M.xstate_columns(r, t, PAIR_13),
}
# T that a float conversion read as numbers: numeric text gave U_b 1.8833830982290132 and
# E 0.0, a complex T lost its imaginary part with a ComplexWarning, None read as NaN
T_NOT_REAL = {
    "numeric_str": ["0.1", "0.2", "0.3"],
    "numeric_bytes": [b"0.1", b"0.2", b"0.3"],
    "complex": np.array([0.1 + 1j, 0.2, 0.3]),
    "complex_zero": np.zeros(3, dtype=complex),
    "none": [0.1, None, 0.3],
    "ragged": [[0.1, 0.2, 0.3], [0.1, 0.2]],
}
# r was not converted at all: "0.1" raised numpy's TypeError, None an AttributeError
R_NOT_REAL = {
    "numeric_str": "0.1", "none": None, "complex": 1j, "complex_array": np.array([0, 0.1j]),
}


class TestXStateRealInput:
    """r and T of every X-core entry point meet one rule: DomainError naming r or T."""

    @pytest.mark.parametrize("t", T_NOT_REAL.values(), ids=T_NOT_REAL.keys())
    @pytest.mark.parametrize("entry", XSTATE_ENTRIES.values(), ids=XSTATE_ENTRIES.keys())
    def test_rejects_a_t_that_is_not_real(self, entry, t):
        with pytest.raises(DomainError) as info:
            entry(0.0, t)
        assert str(info.value) == f"T must be real numbers, got {t!r}"

    @pytest.mark.parametrize("r", R_NOT_REAL.values(), ids=R_NOT_REAL.keys())
    @pytest.mark.parametrize("entry", XSTATE_ENTRIES.values(), ids=XSTATE_ENTRIES.keys())
    def test_rejects_an_r_that_is_not_real(self, entry, r):
        with pytest.raises(DomainError) as info:
            entry(r, [0.1, 0.2, 0.3])
        assert str(info.value) == f"r must be real numbers, got {r!r}"

    @pytest.mark.parametrize(
        "t", [[0.1, 0.2], np.zeros((2, 2)), 0.5, np.zeros((3, 0))],
        ids=lambda t: f"shape{np.shape(t)}",
    )
    @pytest.mark.parametrize("entry", XSTATE_ENTRIES.values(), ids=XSTATE_ENTRIES.keys())
    def test_rejects_a_t_without_three_correlations(self, entry, t):
        # T[..., 2] raised IndexError
        with pytest.raises(DomainError) as info:
            entry(0.0, t)
        assert str(info.value) == f"T must have shape (..., 3), got shape {np.shape(t)}"

    @pytest.mark.parametrize("entry", XSTATE_ENTRIES.values(), ids=XSTATE_ENTRIES.keys())
    def test_real_input_of_any_kind_gives_the_bits_of_floats(self, entry):
        want = entry(0.0, np.array([0.5, 0.25, 0.0]))
        for r, t in [(0, (0.5, 0.25, 0)), (False, [Fraction(1, 2), Fraction(1, 4), False]),
                     (np.float64(0.0), np.array([0.5, 0.25, 0.0], dtype=">f8"))]:
            assert np.asarray(entry(r, t)).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize(
        "r, t, message",
        [(np.nan, [0.1, 0.2, 0.3], "r entry nan"), (0.0, [0.1, np.nan, 0.3], "T entry nan"),
         (0.0, [np.inf, 0.2, 0.3], "T entry inf"), (0.0, [5.0, 0.2, 0.3], "T entry 5.0")],
        ids=["nan_r", "nan_t2", "inf_t1", "outside"],
    )
    @pytest.mark.parametrize("entry", XSTATE_ENTRIES.values(), ids=XSTATE_ENTRIES.keys())
    def test_an_entry_outside_the_x_states_names_r_or_t(self, entry, r, t, message):
        # E unchecked gave nan, nan, inf and E = 2.05; then the pass's binary check and the
        # spectrum check spoke of arguments the caller never passed
        with pytest.raises(DomainError) as info:
            entry(r, t)
        assert str(info.value) == f"{message} outside [-1, 1]"

    @pytest.mark.parametrize(
        "r, t, name, bad",
        [(0.0, (1e308, 1e308, 0.3), "T", "1e+308"), (1e308, (0.1, 0.2, 0.3), "r", "1e+308"),
         (np.zeros(2), [[0.1, 0.2, -np.inf], [0.1, 0.2, 0.3]], "T", "-inf"),
         (np.array([0.0, -1.0 - 1e-9]), np.zeros((2, 3)), "r", "-1.000000001"),
         (0.0, (1 + 5e-12, 0.0, 0.0), "T", "1.000000000005")],
    )
    @pytest.mark.parametrize("entry", XSTATE_ENTRIES.values(), ids=XSTATE_ENTRIES.keys())
    def test_a_huge_entry_is_refused_before_any_arithmetic(self, entry, r, t, name, bad):
        # "overflow encountered in add" and "in square" came first, then a kernel message
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as info:
                entry(r, t)
        assert str(info.value) == f"{name} entry {bad} outside [-1, 1]"

    @pytest.mark.parametrize(
        "r, t", [(np.zeros(2), np.zeros((3, 3))), (np.zeros((2, 1)), np.zeros((3, 4, 3))),
                 (np.zeros(3), np.zeros((2, 3))), (np.zeros((4, 2)), np.zeros((4, 3, 3)))],
        ids=lambda a: "x".join(map(str, np.shape(a))),
    )
    @pytest.mark.parametrize("entry", XSTATE_ENTRIES.values(), ids=XSTATE_ENTRIES.keys())
    def test_an_r_that_does_not_broadcast_names_both_shapes(self, entry, r, t):
        # numpy's ValueError "operands could not be broadcast together" came first
        with pytest.raises(DomainError) as info:
            entry(r, t)
        assert str(info.value) == (
            f"r of shape {r.shape} does not broadcast against T of shape {t.shape}")

    @pytest.mark.parametrize("entry", XSTATE_ENTRIES.values(), ids=XSTATE_ENTRIES.keys())
    def test_an_r_that_broadcasts_gives_the_bits_of_the_broadcast_r(self, entry):
        r, t = np.array([[-0.5], [0.0]]), np.full((2, 3, 3), 0.2)
        got, want = entry(r, t), entry(*np.broadcast_arrays(r, t[..., 0])[:1], t)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("literal", CHANNEL_LITERALS)
    def test_the_range_rule_takes_every_state_check_bd_takes(self, literal):
        # each Bell vertex pushed out as far as check_bd admits: its entries reach
        # 1 + 4e-12, and no factors enlarge them
        spec = parse_channel_literal(literal)
        grid = spec.check([0.0, 0.25, 0.5, 1.0] if spec.kind == "flip" else [0.0, 1.0, 50.0, 800.0])
        for c in PUSHED_VERTICES:
            assert np.abs(c).max() > 1.0 + 3.9e-12
            r, t = spec.factors(grid)
            t = c * t
            M._xstate_args(r, t)  # the intake alone, which every entry point meets first
            assert np.isfinite(M.xstate_lower_bound_Ub(r, t)).all()
            for one in range(len(grid)):
                assert np.isfinite(M.xstate_lower_bound_Ub(r[one], t[one]))

    def test_concurrence_takes_the_vertices_within_the_spectrum_tolerance(self):
        # hypot rounding leaves a -2.2e-16 eigenvalue at a Bell vertex
        assert M.xstate_columns(0.0, BELL_VERTICES, PAIR_13)[:, 3].tolist() == [1.0] * 4


def noise():
    """(channel spec, strength): flip on any axis at eta, phase or amplitude
    damping at Gamma*t."""
    return st.one_of(
        st.tuples(
            st.sampled_from([1, 2, 3]).map(lambda ax: ChannelSpec("flip", axis=ax)),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        st.tuples(
            st.sampled_from([ChannelSpec("pd"), ChannelSpec("ad")]),
            st.floats(min_value=0.0, max_value=20.0),
        ),
    )


class TestXStateCoreVsOracles:
    """The closed forms the sweeps run on, crossed against the general
    density-matrix routes on the Kraus-evolved state."""

    @settings(max_examples=40, deadline=None)
    @given(bd_states(), noise())
    @example(BellDiagonalState(0.0, 0.5, -0.5), (ChannelSpec("flip", axis=2), 2.0**-24))
    def test_core_matches_oracles(self, s, spec_strength):
        spec, strength = spec_strength
        r, t = spec.evolve(s, strength)
        rho = O.apply_local_A(O.channel_at(spec, strength), bd_to_density(s))
        u_b = float(M.xstate_lower_bound_Ub(r, t))
        assert u_b == pytest.approx(O.lower_bound_Ub(rho, PAIR_13), abs=1e-10)
        tables = [M.xstate_columns(r, t, pair).tolist() for pair in ALL_PAIRS]
        for pair, (u, *_) in zip(ALL_PAIRS, tables):
            assert u == pytest.approx(O.uncertainty_U(rho, pair), abs=1e-10)
            assert u >= u_b - 1e-9
        # U_b, D, E and M do not depend on the pair; U_b is the spectrum route's, bit for bit
        assert {tuple(table[1:]) for table in tables} == {tuple(tables[0][1:])}
        _, u_b_column, d, e, m = tables[0]
        assert u_b_column == u_b
        assert e == pytest.approx(O.concurrence(rho), abs=1e-7)
        assert 0.0 <= e <= 1.0
        m_brute = M.minimal_missing_info_bruteforce(rho, COARSE)[0]
        assert m == pytest.approx(m_brute, abs=1e-9)
        assert 0.0 <= m <= 1.0
        assert d == m - (u_b - 1.0) >= -1e-9
        assert d == pytest.approx(m_brute - O.conditional_entropy(rho), abs=1e-9)


# ---- the per-column reference: one checked entropy call per distribution ----
# The sweep columns as they were written before the sweep stacked its entropies
# into two calls. Each function below calls binary_entropy or shannon_entropy
# once per distribution, so every argument meets its check on its own.


def _ref_conditional_entropy(r, t, index):
    """S(sigma_index|B): M_z = (H_bin((1 + r + T3)/2) + H_bin((1 + r - T3)/2))/2 for
    sigma_3, else H_bin((1 + T_index)/2)."""
    t = np.asarray(t, dtype=float)
    if index != 3:
        return binary_entropy((1.0 + t[..., index - 1]) / 2.0)
    t3 = t[..., 2]
    return (binary_entropy((1 + r + t3) / 2) + binary_entropy((1 + r - t3) / 2)) / 2


def _old_s3_b_row(r, t):
    """S(sigma_3|B) as H{(1 +- r +- T3)/4} - 1, the four-entry row the core once took it
    from; kept only to check that the core still rejects every input this row rejects."""
    t3 = np.asarray(t, dtype=float)[..., 2]
    up, down = 1 + r, 1 - r
    return shannon_entropy(np.stack([up + t3, up - t3, down - t3, down + t3], axis=-1) / 4) - 1.0


def _ref_joint_entropy(r, t):
    t = np.asarray(t, dtype=float)
    t1, t2, t3 = t[..., 0], t[..., 1], t[..., 2]
    rad_m, rad_p = np.hypot(r, t1 - t2), np.hypot(r, t1 + t2)
    up, down = 1 + t3, 1 - t3
    return shannon_entropy(np.stack([up + rad_m, up - rad_m, down + rad_p, down - rad_p], axis=-1) / 4)


def _ref_m_x_m_z(r, t):
    t = np.asarray(t, dtype=float)
    t1, t2, t3 = t[..., 0], t[..., 1], t[..., 2]
    u = np.minimum(np.sqrt(np.square(r) + np.maximum(t1 * t1, t2 * t2)), 1.0)
    m_x = binary_entropy((1.0 + u) / 2.0)
    m_z = (binary_entropy((1 + r + t3) / 2) + binary_entropy((1 + r - t3) / 2)) / 2
    return m_x, m_z


def _ref_entropies(r, t):
    """(S(sigma_1|B), S(sigma_2|B), S(sigma_3|B), S(rho_AB), M_x, M_z) in eight calls."""
    conditional = [_ref_conditional_entropy(r, t, j) for j in (1, 2, 3)]
    return (*conditional, _ref_joint_entropy(r, t), *_ref_m_x_m_z(r, t))


def _ref_concurrence(r, t):
    """E from r^2 and the sums T1 -+ T2, 1 +- T3, each formed here."""
    t = np.asarray(t, dtype=float)
    t1, t2, t3 = t[..., 0], t[..., 1], t[..., 2]
    return M._concurrence(np.square(r), t1 - t2, t1 + t2, 1 + t3, 1 - t3)


def _ref_sweep(cfg):
    """Rows (t, U, U_b, D, E, M) of a sweep, its entropies from the reference."""
    t = cfg.grid
    r, corr = cfg.channel.evolve(cfg.initial, t)
    u = _ref_conditional_entropy(r, corr, cfg.pair.q) + _ref_conditional_entropy(r, corr, cfg.pair.r)
    u_b = _ref_joint_entropy(r, corr)
    m = np.minimum(*_ref_m_x_m_z(r, corr))
    return np.stack([t, u, u_b, m - (u_b - 1.0), _ref_concurrence(r, corr), m], axis=1)


def _or_domain_error(f, *args):
    try:
        return f(*args)
    except DomainError:
        return DomainError


def _bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


# five grids: (kind, axis, t_start, t_end, n_points, spacing)
REFERENCE_GRIDS = [
    ("ad", None, 0.0, 800.0, 41, "linear"),
    ("ad", None, 0.01, 800.0, 41, "log"),
    ("pd", None, 0.0, 10.0, 33, "linear"),
    ("flip", 1, 0.0, 1.0, 33, "linear"),
    ("flip", 2, 0.0, 1.0, 33, "linear"),
]
REFERENCE_PAIRS = [(1, 2), (1, 3), (3, 1), (2, 3)]
# entries just inside and just outside the kernels' 1e-12 windows
EDGES = [-1.0, 0.0, 1.0, 1.0 + 1e-12, 1.0 + 4e-12, -1.0 - 1e-12, -1.0 - 4e-12]
coordinate = st.one_of(st.floats(-1.2, 1.2), st.sampled_from(EDGES))


def _reference_configs():
    """The 6060 reference sweeps: 303 states, five grids, four ordered pairs."""
    states = random_bd_states(300, np.random.default_rng(20110)).tolist()
    states += [BellDiagonalState(-1, 1, 1), BellDiagonalState(1, 1, -1), FIG_STATE]
    for s, (kind, axis, t0, t1, n, spacing), pair in itertools.product(
        states, REFERENCE_GRIDS, REFERENCE_PAIRS
    ):
        yield SweepConfig(s, ChannelSpec(kind, axis), M.pauli_pair(*pair), t0, t1, n, spacing)


class TestEntropiesMatchPerColumnReference:
    """xstate_entropies takes in two stacked calls what the reference takes in
    eight: every entry still meets its own check, and every value keeps its bits."""

    def test_sweep_records_bitwise_equal_reference(self):
        for cfg in _reference_configs():
            rows = np.array(run_time_sweep(cfg))
            assert rows.tobytes() == _ref_sweep(cfg).tobytes(), cfg

    def test_m_is_the_smaller_of_m_x_and_m_z_bitwise(self):
        for cfg in _reference_configs():
            e = M.xstate_entropies(*cfg.channel.evolve(cfg.initial, cfg.grid))
            assert _bits(e.m) == _bits(np.minimum(e.m_x, e.m_z)), cfg

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[coordinate] * 4), min_size=1, max_size=5), st.booleans())
    @example([(0.0, 0.0, 0.0, 1.0 + 4e-12)], True)
    @example([(0.0, 1.0 + 1e-12, -1.0 - 1e-12, 1.0)], True)
    @example([(0.3, 0.2, -0.1, 0.5), (1.2, 0.0, 0.0, 0.0)], False)
    def test_raises_exactly_when_the_reference_does(self, rows, one_state):
        rt = np.array(rows)
        r, t = (rt[0, 0], rt[0, 1:]) if one_state else (rt[:, 0], rt[:, 1:])
        got, want = _or_domain_error(M.xstate_entropies, r, t), _or_domain_error(_ref_entropies, r, t)
        assert (got is DomainError) == (want is DomainError)
        # the binary window on (1 + r +- T3)/2 is the stricter one: no input check was lost
        if _or_domain_error(_old_s3_b_row, r, t) is DomainError:
            assert got is DomainError
        lower = _or_domain_error(M.xstate_lower_bound_Ub, r, t)
        want_lower = _or_domain_error(_ref_joint_entropy, r, t)
        assert (lower is DomainError) == (want_lower is DomainError)
        if lower is not DomainError:
            assert _bits(lower) == _bits(want_lower)
        if got is DomainError:
            return
        assert [_bits(x) for x in got] == [_bits(x) for x in want]
        for q, k in itertools.permutations((1, 2, 3), 2):
            u = M.xstate_columns(r, t, M.pauli_pair(q, k))[..., 0]
            assert _bits(u) == _bits(want[q - 1] + want[k - 1])
        assert _bits(got.m) == _bits(np.minimum(want[4], want[5]))


# ---- the spectrum reference: the four sums of rho_AB's spectrum, stacked and
# then divided by 4, as written before xstate_lower_bound_Ub wrote its columns
# into one block and scaled it in place. np.stack is the stacking helper the
# route used, without its shortcut.


def _stacked_joint_spectrum(r, t1, t2, t3):  # 4 x the eigenvalues of rho_AB
    rad_m, rad_p = np.hypot(r, t1 - t2), np.hypot(r, t1 + t2)
    up, down = 1 + t3, 1 - t3
    return up + rad_m, up - rad_m, down + rad_p, down - rad_p


def _stacked_lower_bound_Ub(r, t):
    t = np.asarray(t, dtype=float)
    cols = _stacked_joint_spectrum(r, t[..., 0], t[..., 1], t[..., 2])
    return shannon_entropy(np.stack(cols, axis=-1) / 4)


# the pure Bell states (Phi+, Phi-, Psi+, Psi-) as correlations, one per row
BELL_VERTICES = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]], dtype=float)


def _pushed_out(vertex):
    """A Bell vertex pushed out along its own direction to the last float check_bd admits."""
    push = 1.0 + 3.99e-12
    while S.is_valid(vertex * np.nextafter(push, 2.0)):
        push = np.nextafter(push, 2.0)
    return S.check_bd(vertex * push)


PUSHED_VERTICES = np.array([_pushed_out(v) for v in BELL_VERTICES])
SPECTRUM_SHAPES = [(), (5,), (4, 5), (2, 3, 4), (0,), (0, 5), (4, 0)]
# e^{-800} underflows to 0, so Gamma*t = 800 gives the r = -1 limit exactly
GAMMA_T = st.one_of(st.floats(0.0, 50.0), st.sampled_from([0.0, 800.0, 1e6]))


@st.composite
def x_states(draw):
    """(r, t) over a drawn batch shape: Bell-diagonal states at r = 0, or their
    amplitude-damped images. Weights of 0 and 1 are drawn often, so many
    states are pure Bell states, and many strengths give r = -1. t comes in a
    drawn memory layout, and so does an array r."""
    shape = draw(st.sampled_from(SPECTRUM_SHAPES))
    weight = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))
    w = draw(arrays(np.float64, shape + (4,), elements=weight))
    w[..., 0] += w.sum(axis=-1) == 0.0
    c = (w / w.sum(axis=-1, keepdims=True)) @ BELL_VERTICES
    layout = draw(st.sampled_from(LAYOUTS))
    if draw(st.booleans()):
        return 0.0, laid_out(c, layout)
    r, t = ChannelSpec("ad").evolve(c, draw(arrays(np.float64, shape, elements=GAMMA_T)))
    return laid_out(r, layout), laid_out(t, layout)


# ---- U_b in Python floats: T of at most _FEW entries, r of T's leading shape ----------

FEW_UB_SHAPES = [(), *[(k,) for k in range(1, 11)], *[(2, k) for k in range(1, L._FEW // 6 + 1)]]
FEW_GAMMA_T = st.one_of(st.sampled_from([0.0, 50.0, 800.0]), st.floats(0.0, 60.0))


@st.composite
def few_x_states(draw):
    """(r, t) whose T holds at most _FEW entries, r of T's leading shape: Bell-diagonal
    states, pure ones often, amplitude-damped at Gamma*t of 0, 50, 800 or drawn, in a
    drawn memory layout."""
    shape = draw(st.sampled_from(FEW_UB_SHAPES))
    weight = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))
    w = draw(arrays(np.float64, shape + (4,), elements=weight))
    w[..., 0] += w.sum(axis=-1) == 0.0
    c = (w / w.sum(axis=-1, keepdims=True)) @ BELL_VERTICES
    r, t = ChannelSpec("ad").evolve(c, draw(arrays(np.float64, shape, elements=FEW_GAMMA_T)))
    layout = draw(st.sampled_from(LAYOUTS))
    return laid_out(r, layout), laid_out(t, layout)


def _array_path_Ub(r, t):
    """xstate_lower_bound_Ub with every input on the array path, as above _FEW entries."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(M, "_FEW", -1)
        return M.xstate_lower_bound_Ub(r, t)


class TestFloatUbIsTheArrayPath:
    """Up to _FEW entries of T, with r of T's leading shape, U_b is taken in Python floats
    between one hypot and one log2 call; it gives the array path's type and bits."""

    @settings(max_examples=400, deadline=None)
    @given(few_x_states())
    @example((np.float64(0.0), BELL_VERTICES[0]))
    @example(ChannelSpec("ad").evolve(BELL_VERTICES, [0.0, 50.0, 800.0, 1.0]))
    @example(ChannelSpec("ad").evolve(np.full((2, 5, 3), 0.2), np.full((2, 5), 800.0)))
    def test_bits_and_type_of_every_few_shape_and_layout(self, rt):
        r, t = rt
        assert _typed_bits(M.xstate_lower_bound_Ub(r, t)) == _typed_bits(_array_path_Ub(r, t))

    @pytest.mark.parametrize("shape", FEW_UB_SHAPES, ids=str)
    def test_interior_states_never_reach_an_array_kernel(self, monkeypatch, shape):
        c = random_bd_states(int(np.prod(shape)), np.random.default_rng(3001)).reshape(shape + (3,))
        r, t = ChannelSpec("ad").evolve(c, np.full(shape, 1.5))
        one = float(r.flat[0]), t.reshape(-1, 3)[0]  # a Python float r and a (3,) T
        want = [_typed_bits(_array_path_Ub(*rt)) for rt in ((r, t), one)]
        monkeypatch.setattr(M, "shannon_entropy", None)  # a kernel call raises TypeError
        monkeypatch.setattr(M, "_spectrum_rows", None)
        assert [_typed_bits(M.xstate_lower_bound_Ub(*rt)) for rt in ((r, t), one)] == want

    @pytest.mark.parametrize("vertex", range(4))
    def test_the_vertex_spectrum_takes_the_ordered_path_and_its_clamp(self, monkeypatch, vertex):
        # hypot rounding leaves 4 rho_AB's spectrum a -2.2e-16 entry at each Bell vertex
        # damped to Gamma*t = 0.01: it fails the float Shannon test, and the array path
        # clamps it to 0 as it always has, whichever way the state comes in
        r, t = ChannelSpec("ad").evolve(BELL_VERTICES[vertex], 0.01)
        assert M._spectrum_rows(r, *np.moveaxis(t, -1, 0))[0].min() * 4 == -2.0**-52
        entered, ordered = [], L._sum_last
        monkeypatch.setattr(L, "_sum_last", lambda p: entered.append(p.shape) or ordered(p))
        one = M.xstate_lower_bound_Ub(r, t)
        assert entered == [(4,)]
        clamped = np.maximum(M._spectrum_rows(r, *np.moveaxis(t, -1, 0))[0], 0.0)
        assert _typed_bits(one) == _typed_bits(shannon_entropy(clamped))
        assert _bits(one) == _bits(M.xstate_lower_bound_Ub(np.full(3, r), np.stack([t] * 3))[0])

    def test_few_entries_with_a_broadcast_r_take_the_array_path(self, monkeypatch):
        entered = []
        monkeypatch.setattr(M, "_entropy_floats", lambda p, k: entered.append(k))
        r, t = ChannelSpec("ad").evolve(np.array(FIG_STATE), [0.5, 1.0])
        M.xstate_lower_bound_Ub(r, np.broadcast_to(t, (3, 2, 3)))  # r (2,), T (3, 2, 3)
        M.xstate_lower_bound_Ub(r, np.broadcast_to(t, (12, 2, 3)))  # 72 entries
        assert entered == []
        M.xstate_lower_bound_Ub(r, t)
        assert entered == [4]


def _core_bits(r, t):
    """dtype, shape and bytes of the six fields of xstate_entropies and of U_b."""
    return [_bits(x) for x in (*M.xstate_entropies(r, t), M.xstate_lower_bound_Ub(r, t))]


def _typed_bits(x):
    return type(x), _bits(x)


class TestSpectrumMatchesStackedReference:
    """Writing rho_AB's spectrum into the rows of one block and scaling it in place
    changes no bit of U_b or S(rho_AB), whatever the layout of (r, t); and a batch
    gives the bits of its rows and of its points, one call each."""

    @settings(max_examples=300, deadline=None)
    @given(x_states())
    @example((0.0, BELL_VERTICES))
    @example(ChannelSpec("ad").evolve(BELL_VERTICES, 800.0))
    @example(ChannelSpec("ad").evolve(BELL_VERTICES[2], 800.0))
    @example((0.0, BELL_VERTICES[3]))
    @example(ChannelSpec("ad").evolve(np.zeros((4, 0, 3)), np.zeros((4, 0))))
    def test_bitwise_equal(self, rt):
        r, t = rt
        ub = M.xstate_lower_bound_Ub(r, t)
        assert _typed_bits(ub) == _typed_bits(_stacked_lower_bound_Ub(r, t))
        e = M.xstate_entropies(r, t)
        assert _typed_bits(e.s_ab) == _typed_bits(ub)  # S(rho_AB) is U_b's call

    @settings(max_examples=150, deadline=None)
    @given(x_states(), st.sampled_from(["F", "strided"]))
    @example((0.0, BELL_VERTICES), "F")
    @example(ChannelSpec("ad").evolve(BELL_VERTICES[:, None], np.geomspace(0.01, 800, 7)), "strided")
    def test_a_batch_is_its_rows_and_points(self, rt, layout):
        r, t = rt
        want = [np.asarray(x) for x in (*M.xstate_entropies(r, t), M.xstate_lower_bound_Ub(r, t))]
        assert _core_bits(r, laid_out(t, layout)) == [_bits(x) for x in want]
        rb = np.broadcast_to(r, t.shape[:-1])
        for i in range(len(t) if t.ndim > 1 else 0):  # the (K, 3) rows of an (N, K, 3) block
            assert _core_bits(rb[i], t[i]) == [_bits(x[i]) for x in want]
        scalars = [np.float64] * 3 + [float] + [np.float64] * 2 + [float]  # S(rho_AB), U_b floats
        for i in np.ndindex(t.shape[:-1]):  # each point
            e, ub = M.xstate_entropies(rb[i], t[i]), M.xstate_lower_bound_Ub(rb[i], t[i])
            assert [type(x) for x in (*e, ub)] == scalars
            assert [_bits(x) for x in (*e, ub)] == [_bits(x[i]) for x in want]

    def test_the_examples_are_pure_states_and_the_r_minus_1_limit(self):
        assert ChannelSpec("ad").evolve(BELL_VERTICES, 800.0)[0] == -1.0
        assert M.xstate_lower_bound_Ub(0.0, BELL_VERTICES).tolist() == [0.0] * 4


# ---- the one pass against the public calls it replaces ----------------------


def _composed(r, t):
    """(the six XStateEntropies fields, E) of X states from the public calls the pass
    replaces: one binary_entropy over the five binary arguments stacked on a last axis,
    then xstate_lower_bound_Ub, which checks rho_AB's spectrum, and the concurrence of
    the sums formed here. The range rule, which every public call meets at intake, comes first."""
    t = np.asarray(t, dtype=float)
    M._xstate_args(r, t)
    t1, t2, t3 = t[..., 0], t[..., 1], t[..., 2]
    u = np.minimum(np.sqrt(np.square(r) + np.maximum(t1 * t1, t2 * t2)), 1.0)
    args = np.broadcast_arrays(1.0 + u, 1 + r + t3, 1 + r - t3, 1.0 + t1, 1.0 + t2)
    h = binary_entropy(np.stack(args, axis=-1) / 2)
    m_x, h_up, h_down, s1_b, s2_b = np.moveaxis(h, -1, 0)
    m_z = (h_up + h_down) / 2
    return (s1_b, s2_b, m_z, M.xstate_lower_bound_Ub(r, t), m_x, m_z), _ref_concurrence(r, t)


def _composed_columns(r, t, pair):
    """The columns U, U_b, D, E and M, (..., 5), from ``_composed``."""
    e, conc = _composed(r, t)
    u_b, m = e[3], np.minimum(e[4], e[5])
    return np.stack([e[pair.q - 1] + e[pair.r - 1], u_b, m - (u_b - 1.0), conc, m], axis=-1)


def _message(f, *args):
    try:
        f(*args)
    except DomainError as exc:
        return str(exc)
    return None


# log AD grids to Gamma*t = 800, where 1 + r rounds to 0 and (1 + r +- T3)/2 takes the
# binary ordered path, over seeded states and the Bell vertices, whose 4 rho_AB spectrum
# keeps a -2.2e-16 entry from hypot rounding and takes the Shannon ordered path
PASS_STATES = np.concatenate([random_bd_states(40, np.random.default_rng(2201)), BELL_VERTICES])
LOG_AD = ChannelSpec("ad").factors(np.geomspace(0.01, 800.0, 101))


class TestOnePassEqualsThePublicCalls:
    """The X core's one checked pass gives, byte for byte and with the same messages,
    what one binary_entropy call, xstate_lower_bound_Ub and the concurrence give."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_sweep_columns_in_every_layout(self, monkeypatch, layout):
        entered = {"binary": 0, "shannon": 0}
        first_outside, sum_last = L._first_outside, L._sum_last
        monkeypatch.setattr(L, "_first_outside", lambda x, lo, hi: entered.__setitem__(
            "binary", entered["binary"] + (hi == 1 + 1e-12)) or first_outside(x, lo, hi))
        monkeypatch.setattr(L, "_sum_last", lambda p: entered.__setitem__(
            "shannon", entered["shannon"] + 1) or sum_last(p))
        r, f = LOG_AD
        for c in PASS_STATES:
            rt = (laid_out(r, layout), laid_out(c * f, layout))
            for pair in itertools.permutations((1, 2, 3), 2):
                pair = M.pauli_pair(*pair)
                got = M.xstate_columns(*rt, pair)
                assert got.tobytes() == _composed_columns(*rt, pair).tobytes()
            e = M.xstate_entropies(*rt)
            assert [_bits(x) for x in e] == [_bits(x) for x in _composed(*rt)[0]]
        # both ordered paths were taken, by the pass and by the public calls alike
        assert entered["binary"] >= 2 * len(PASS_STATES) and entered["shannon"] >= 8

    @settings(max_examples=300, deadline=None)
    @given(x_states())
    @example((0.0, BELL_VERTICES))
    @example(ChannelSpec("ad").evolve(BELL_VERTICES, 800.0))
    @example(ChannelSpec("ad").evolve(BELL_VERTICES[2], 800.0))
    def test_entropies_of_any_shape_and_layout(self, rt):
        got, (want, _) = M.xstate_entropies(*rt), _composed(*rt)
        assert [_typed_bits(x) for x in got] == [_typed_bits(x) for x in want]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[coordinate] * 4), min_size=1, max_size=5), st.booleans())
    @example([(0.0, 1.2, 0.0, 0.0)], True)  # both checks fail: the binary one speaks
    @example([(0.0, 0.3, 0.3, 1.0 + 4e-12)], False)  # (1 + T3)/2 within the window
    @example([(0.0, 0.9, 0.9, 0.9)], True)  # only the spectrum fails
    @example([(0.3, 0.2, -0.1, 0.5), (1.2, 0.0, 0.0, 0.0)], False)
    def test_messages_and_bits_of_any_input(self, rows, one_state):
        rt = np.array(rows)
        r, t = (rt[0, 0], rt[0, 1:]) if one_state else (rt[:, 0], rt[:, 1:])
        want = _message(_composed, r, t)
        assert _message(M.xstate_entropies, r, t) == want
        assert _message(M.xstate_columns, r, t, PAIR_13) == want
        if want is None:
            assert [_bits(x) for x in M.xstate_entropies(r, t)] == [_bits(x) for x in _composed(r, t)[0]]
            assert _bits(M.xstate_columns(r, t, PAIR_13)) == _bits(_composed_columns(r, t, PAIR_13))

    def test_a_block_whose_binary_rows_pass_names_the_spectrum_entry(self):
        assert _message(M.xstate_entropies, 0, (0.9, 0.9, 0.9)) == (
            "probability -0.42500000000000004 is negative or not finite")

    def test_the_binary_message_comes_before_the_shannon_message(self):
        # every entry is within the range rule; (1 + r + T3)/2 is not, nor is the spectrum
        r, t = np.array([0.0, 0.9]), np.array([[0.3, 0.3, 0.3], [0.0, 0.0, 0.9]])
        assert _message(M.xstate_lower_bound_Ub, r, t).startswith("probabilit")
        for f in (M.xstate_entropies, _composed, XSTATE_ENTRIES["xstate_columns"]):
            assert _message(f, r, t) == f"binary entropy argument {(1 + 0.9 + 0.9) / 2} outside [0, 1]"


# (r, T1, T2, T3) at the 16 corners of the intake's box, and at +0 and -0
BOX_EXAMPLES = [*itertools.product((-M._X_MAX, M._X_MAX), repeat=4), (0.0,) * 4, (-0.0,) * 4]


class _FloatSpectrum(Exception):
    """Raised with the float U_b's spectrum rows in place of their entropy."""


def _float_spectrum(r, t):
    """The rows xstate_lower_bound_Ub hands _entropy_floats, as a (..., 4) array."""
    def seen(p, k):
        raise _FloatSpectrum(p)

    with pytest.MonkeyPatch.context() as mp, pytest.raises(_FloatSpectrum) as rows:
        mp.setattr(M, "_entropy_floats", seen)
        M.xstate_lower_bound_Ub(r, t)
    return np.reshape(rows.value.args[0], (-1, 4))


@settings(max_examples=1000, deadline=None)
@given(st.tuples(*[st.floats(-M._X_MAX, M._X_MAX)] * 4))
def test_the_intake_holds_every_spectrum_sum_within_1e_15_of_1(rt):
    # why the pass's one unit test needs no row-sum test beside it: every (r, T) the range
    # rule admits, a state or not, gives spectrum rows that sum to 1 within 1e-15, far
    # inside the Shannon window of 1e-9, by the array rows and the float U_b's alike
    r, t = rt[0], np.array(rt[1:])
    for rows in (M._spectrum_rows(r, *t)[0], _float_spectrum(r, t)):
        assert np.abs(np.add.reduce(rows, -1) - 1.0).max() <= 1e-15, rows


for _corner in BOX_EXAMPLES:
    test_the_intake_holds_every_spectrum_sum_within_1e_15_of_1 = example(_corner)(
        test_the_intake_holds_every_spectrum_sum_within_1e_15_of_1)


class TestCheckBdsEdge:
    """Each Bell vertex pushed out as far as check_bd admits: rho_AB's spectrum holds an
    entry above 1, which Shannon's ordered path clamps to 1 as binary's does."""

    def test_u_b_is_never_negative(self):
        assert (M._spectrum_rows(0.0, *PUSHED_VERTICES.T)[0].max(-1) > 1.0).all()
        for c in PUSHED_VERTICES:  # one state: the float path, which falls back
            assert M.xstate_lower_bound_Ub(0.0, c) >= 0.0
            assert classify_longtime_ad(c).u_b_initial >= 0.0
        many = np.tile(PUSHED_VERTICES, (3, 1))  # 36 entries of T: the array path
        assert (M.xstate_lower_bound_Ub(np.zeros(len(many)), many) >= 0.0).all()
        assert (classify_longtime_ad(many).u_b_initial >= 0.0).all()

    @pytest.mark.xfail(strict=True, raises=DomainError,
                       reason="the binary window is narrower than check_bd's bound (ROADMAP item 6)")
    def test_a_pd_sweep_of_a_pushed_out_vertex_is_finite_and_non_negative(self):
        c = S.parse_state_literal("bd:1.000000000004,1.000000000004,-1.000000000004")
        cfg = SweepConfig(c, ChannelSpec("pd"), PAIR_13, 0.0, 10.0, 11, "linear")
        table = np.asarray(run_time_sweep(cfg))
        assert np.isfinite(table).all() and (table[:, [1, 2, 5]] >= 0.0).all()  # U, U_b, M


# ---- xstate_columns against each column's definition -----------------------

COLUMN_STATES = np.concatenate(
    [random_bd_states(6, np.random.default_rng(2901)), BELL_VERTICES[:1], [FIG_STATE]]
)


def _defined_columns(r, t, pair):
    """U, U_b, D, E and M of X states (r, t), each from its definition: U = S(sigma_q|B) +
    S(sigma_r|B) and M = min(M_x, M_z) over xstate_entropies, U_b = S(rho_AB) by the
    spectrum route, D = M - (U_b - 1), and E from the concurrence of sums formed here."""
    e = M.xstate_entropies(r, t)
    u_b, m = M.xstate_lower_bound_Ub(r, t), np.minimum(e.m_x, e.m_z)
    return [e[pair.q - 1] + e[pair.r - 1], u_b, m - (u_b - 1.0), _ref_concurrence(r, t), m]


def _assert_columns_are_defined(r, t, pair):
    got = M.xstate_columns(r, t, pair)
    assert got.dtype == np.float64 and got.shape == np.shape(M.xstate_entropies(r, t).m) + (5,)
    for name, column, want in zip(M.COLUMNS, np.moveaxis(got, -1, 0), _defined_columns(r, t, pair)):
        assert _bits(column) == _bits(want), (name, pair)
    return got


class TestColumnsMatchTheirDefinitions:
    """Each column of xstate_columns is, bit for bit, its definition over the X core's
    public calls: on every channel literal, grid size, ordered pair and layout."""

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("n", [2, 3, 17, 201])
    @pytest.mark.parametrize("literal", CHANNEL_LITERALS)
    def test_every_column_on_every_channel(self, literal, n, layout):
        spec = parse_channel_literal(literal)
        r, f = spec.factors(spec.check(np.linspace(0.0, 1.0 if spec.kind == "flip" else 10.0, n)))
        for c in COLUMN_STATES:
            rt = laid_out(r, layout), laid_out(c * f, layout)
            for q, k in itertools.permutations((1, 2, 3), 2):
                assert _assert_columns_are_defined(*rt, M.pauli_pair(q, k)).shape == (n, 5)

    @pytest.mark.parametrize("q, k", list(itertools.permutations((1, 2, 3), 2)))
    def test_a_batch_is_its_rows_and_points(self, q, k):
        # N states x K strengths as one (N, K, 3) call, against its (K, 3) rows and points
        pair = M.pauli_pair(q, k)
        r, f = ChannelSpec("ad").factors(np.geomspace(0.01, 800.0, 17))
        t = COLUMN_STATES[:, None, :] * f
        batch = _assert_columns_are_defined(r, t, pair)
        assert batch.shape == (len(COLUMN_STATES), 17, 5)
        for i, row in enumerate(t):
            assert _bits(_assert_columns_are_defined(r, row, pair)) == _bits(batch[i])
            for j, point in enumerate(row):
                got = _assert_columns_are_defined(r[j], point, pair)
                assert _bits(got) == _bits(batch[i, j])


class TestSigma3GivenBIsMz:
    """In every X state of the core a z outcome on B, each of weight 1/2, leaves A
    diagonal with weights (1 + r +- T3)/2: S(sigma_3|B) is M_z exactly."""

    @settings(max_examples=300, deadline=None)
    @given(x_states())
    @example((0.0, BELL_VERTICES))
    @example(ChannelSpec("ad").evolve(BELL_VERTICES, 800.0))
    def test_s3_b_is_m_z_bitwise(self, rt):
        e = M.xstate_entropies(*rt)
        assert _typed_bits(e.s3_b) == _typed_bits(e.m_z)

    @settings(max_examples=60, deadline=None)
    @given(bd_states(), st.none() | st.floats(0.0, 800.0) | st.sampled_from([40.0, 800.0]))
    def test_matches_the_pinching_oracle(self, s, gamma_t):
        r, t, rho = 0.0, s, bd_to_density(s)
        if gamma_t is not None:  # amplitude-damped
            r, t = ChannelSpec("ad").evolve(s, gamma_t)
            rho = O.apply_local_A(O.channel_at(ChannelSpec("ad"), gamma_t), rho)
        want = O.conditional_entropy(O.post_measurement_state(rho, 3))
        assert float(M.xstate_entropies(r, t).s3_b) == pytest.approx(want, abs=1e-10)
