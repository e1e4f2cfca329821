import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eurnoise import metrics as M
from eurnoise import oracles as O
from eurnoise.linalg import DomainError, binary_entropy
from eurnoise.states import BellDiagonalState, bd_to_density
from eurnoise.channels import ChannelSpec, evolve_bd_amplitude, evolve_bd_flip
from eurnoise.scenarios import classify_longtime_ad

from conftest import bd_states

PAIR_13 = M.pauli_pair(1, 3)
ALL_PAIRS = [M.pauli_pair(1, 2), M.pauli_pair(1, 3), M.pauli_pair(2, 3)]
BELL_VERTEX = BellDiagonalState(-1, 1, 1)
COARSE = (65, 65)  # faster brute-force grid for loops; refinement recovers accuracy


class TestObservables:
    def test_eigenbases_diagonalize(self):
        for idx in (1, 2, 3):
            obs = M.pauli_observable(idx)
            for v, expect in zip(obs.eigenbasis, (1.0, -1.0)):
                assert np.allclose(O.PAULI[idx] @ v, expect * v)
            assert abs(np.vdot(obs.eigenbasis[0], obs.eigenbasis[1])) < 1e-12

    def test_pair_needs_distinct_axes(self):
        with pytest.raises(DomainError):
            M.pauli_pair(3, 3)

    @pytest.mark.parametrize(
        "index", [1.0, np.float64(2.0), "1", None, 0, 4, True, False, np.True_], ids=repr
    )
    def test_rejects_non_integer_or_out_of_range_index(self, index):
        # the flip-axis rule of ChannelSpec.check: an int or numpy integer in 1..3
        with pytest.raises(DomainError, match="Pauli index must be 1, 2, or 3"):
            M.pauli_observable(index)
        with pytest.raises(DomainError, match="Pauli index must be 1, 2, or 3"):
            M.pauli_pair(index, 3)

    def test_accepts_numpy_integer_index(self):
        s = BellDiagonalState(-0.5, 0.4, 0.8)
        pair = M.pauli_pair(np.int64(1), 3)
        assert M.uncertainty_U_bd(s, pair) == M.uncertainty_U_bd(s, PAIR_13)

    @pytest.mark.parametrize("j,k", [(1, 2), (1, 3), (2, 3), (3, 1)])
    def test_complementarity_half(self, j, k):
        assert M.complementarity(M.pauli_pair(j, k)) == pytest.approx(0.5, abs=1e-12)


class TestPostMeasurementState:
    def test_fixes_maximally_mixed(self):
        rho = np.eye(4, dtype=complex) / 4
        for idx in (1, 2, 3):
            out = O.post_measurement_state(rho, M.pauli_observable(idx))
            assert np.allclose(out, rho, atol=1e-14)

    def test_bell_state_sigma3(self):
        rho = bd_to_density(BellDiagonalState(-1, 1, 1))
        out = O.post_measurement_state(rho, M.pauli_observable(3))
        expected = np.diag([0.5, 0, 0, 0.5]).astype(complex)
        assert np.allclose(out, expected, atol=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(bd_states(), st.sampled_from([1, 2, 3]))
    def test_idempotent(self, s, idx):
        obs = M.pauli_observable(idx)
        once = O.post_measurement_state(bd_to_density(s), obs)
        twice = O.post_measurement_state(once, obs)
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
        assert M.uncertainty_U_bd(fig_state, PAIR_13) == pytest.approx(expected, abs=1e-14)
        assert O.uncertainty_U(bd_to_density(fig_state), PAIR_13) == pytest.approx(
            expected, abs=1e-10
        )

    @settings(max_examples=30, deadline=None)
    @given(bd_states(), st.sampled_from([(1, 2), (1, 3), (2, 3)]))
    def test_general_equals_closed_form(self, s, jk):
        pair = M.pauli_pair(*jk)
        assert O.uncertainty_U(bd_to_density(s), pair) == pytest.approx(
            M.uncertainty_U_bd(s, pair), abs=1e-10
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
        assert M.lower_bound_Ub_bd(fig_state) == pytest.approx(expected, abs=1e-12)
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
        assert M.spmc_holds(fig_state, PAIR_13)

    def test_center_any_pair(self):
        center = BellDiagonalState(0, 0, 0)
        for jk in [(1, 2), (1, 3), (2, 3)]:
            assert M.spmc_holds(center, M.pauli_pair(*jk))

    def test_fig_state_pair_12_fails(self, fig_state):
        assert not M.spmc_holds(fig_state, M.pauli_pair(1, 2))

    @settings(max_examples=40, deadline=None)
    @given(bd_states())
    def test_identity_u_equals_ub(self, s):
        # Supplement-style identity: on the SPMC surface U == U_b
        from eurnoise.states import is_valid

        surf = BellDiagonalState(s.c1, -s.c1 * s.c3, s.c3)
        if not is_valid(surf):
            return
        assert M.uncertainty_U_bd(surf, PAIR_13) == pytest.approx(
            M.lower_bound_Ub_bd(surf), abs=1e-10
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
        exact = float(M.xstate_concurrence(0.0, s.as_tuple()))
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

    def test_grid_floor(self):
        with pytest.raises(DomainError):
            M.minimal_missing_info_bruteforce(np.eye(4) / 4, (32, 32))

    def test_bd_closed_form_examples(self, fig_state):
        assert M.minimal_missing_info_bd(BellDiagonalState(0, 0, 0)) == 1.0
        assert M.minimal_missing_info_bd(BellDiagonalState(-1, 1, 1)) == 0.0
        assert M.minimal_missing_info_bd(fig_state) == pytest.approx(
            binary_entropy(0.9), abs=1e-14
        )

    @settings(max_examples=15, deadline=None)
    @given(bd_states())
    def test_bd_vs_bruteforce(self, s):
        m, _ = M.minimal_missing_info_bruteforce(bd_to_density(s), COARSE)
        assert m == pytest.approx(M.minimal_missing_info_bd(s), abs=1e-9)


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
        lambda s: M.uncertainty_U_bd(s, PAIR_13),
        M.lower_bound_Ub_bd,
        lambda s: M.minimal_missing_info_ad(s, 1.0),
        classify_longtime_ad,
        lambda s: M.witness_discord_from_U(s, PAIR_13, 1.0),
    ],
    ids=["uncertainty_U_bd", "lower_bound_Ub_bd", "minimal_missing_info_ad", "classify",
         "witness_discord_from_U"],
)
def test_entry_points_reject_states_outside_tetrahedron(s, entry):
    with pytest.raises(DomainError, match="outside the Bell-diagonal tetrahedron"):
        entry(s)


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
        assert M.discord_bd(fig_state) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(bd_states())
    def test_non_negative(self, s):
        assert M.discord_bd(s) >= -1e-9


class TestDiscordWitness:
    def test_fig2_const(self, fig_state):
        # const = 1 + H_bin(0.9); at t=0, U = U_b so D = const - U
        u0 = M.uncertainty_U_bd(fig_state, PAIR_13)
        d = M.witness_discord_from_U(fig_state, PAIR_13, u0)
        assert d == pytest.approx(M.discord_bd(fig_state), abs=1e-12)

    def test_fully_dephased_discord_zero(self, fig_state):
        dephased = evolve_bd_flip(fig_state, 3, 0.5)
        u = M.uncertainty_U_bd(dephased, PAIR_13)
        d = M.witness_discord_from_U(fig_state, PAIR_13, u)
        assert d == pytest.approx(0.0, abs=1e-12)
        assert M.discord_bd(dephased) == pytest.approx(0.0, abs=1e-9)

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

    def test_rejects_spmc_violation(self):
        s = BellDiagonalState(-0.5, 0.35, 0.8)  # inside the tetrahedron, c2 != -c1*c3
        with pytest.raises(M.WitnessNotValidError):
            M.witness_discord_from_U(s, PAIR_13, 1.0)


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
    def test_core_matches_oracles(self, s, spec_strength):
        spec, strength = spec_strength
        r, t = spec.evolve(s, strength)
        rho = O.apply_local_A(O.channel_at(spec, strength), bd_to_density(s))
        u_b = float(M.xstate_lower_bound_Ub(r, t))
        assert u_b == pytest.approx(O.lower_bound_Ub(rho, PAIR_13), abs=1e-10)
        for pair in ALL_PAIRS:
            u = float(M.xstate_uncertainty_U(r, t, pair))
            assert u == pytest.approx(O.uncertainty_U(rho, pair), abs=1e-10)
            assert u >= u_b - 1e-9
        e = float(M.xstate_concurrence(r, t))
        assert e == pytest.approx(O.concurrence(rho), abs=1e-7)
        assert 0.0 <= e <= 1.0
        m = float(M.xstate_minimal_missing_info(r, t)[0])
        assert m == pytest.approx(M.minimal_missing_info_bruteforce(rho, COARSE)[0], abs=1e-9)
        assert 0.0 <= m <= 1.0
        assert m - (u_b - 1.0) >= -1e-9
