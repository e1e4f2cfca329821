import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eurnoise import channels as C
from eurnoise import oracles as O
from eurnoise.linalg import DomainError
from eurnoise.oracles import bd_to_density
from eurnoise.states import BellDiagonalState, check_bd, random_bd_states

from conftest import bd_states


class TestFlipChannel:
    def test_identity_at_zero(self):
        ch = O.make_flip_channel(1, 0.0)
        assert np.allclose(ch.operators[0], np.eye(2))
        assert np.allclose(ch.operators[1], 0.0)

    def test_full_dephasing(self, fig_state):
        s = C.evolve_bd_flip(fig_state, 3, 0.5)
        assert s.as_tuple() == pytest.approx((0.0, 0.0, 0.8))

    def test_quarter_strength_factor(self, fig_state):
        s = C.evolve_bd_flip(fig_state, 2, 0.25)
        assert s.c1 == pytest.approx(-0.25)
        assert s.c2 == pytest.approx(0.4)
        assert s.c3 == pytest.approx(0.4)

    def test_eta_out_of_range(self):
        with pytest.raises(DomainError):
            O.make_flip_channel(1, 1.2)
        with pytest.raises(DomainError):
            O.make_flip_channel(4, 0.1)


class TestPhaseDamping:
    def test_identity_at_zero(self):
        ch = O.make_phase_damping(0.0)
        assert np.allclose(ch.operators[0], np.eye(2))
        assert C.pd_equivalent_eta(0.0) == 0.0

    def test_longtime_eta_limit(self):
        assert C.pd_equivalent_eta(1e4) == pytest.approx(0.5)

    def test_two_log_two(self):
        ch = O.make_phase_damping(2 * np.log(2))
        assert ch.operators[0][1, 1] == pytest.approx(0.5)
        assert C.pd_equivalent_eta(2 * np.log(2)) == pytest.approx(0.25)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            O.make_phase_damping(-0.1)

    @pytest.mark.parametrize("gamma_t", [0.0, 1e4, 2 * np.log(2), 1.3, 800.0, 5e-324])
    def test_equivalent_eta_is_the_formula_bit_for_bit(self, gamma_t):
        got, want = C.pd_equivalent_eta(gamma_t), (1.0 - np.exp(-gamma_t / 2.0)) / 2.0
        assert type(got) is type(want) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "gamma_t", [np.nan, "abc", None, [1.0, np.nan], -1e308, -0.1, np.inf], ids=repr
    )
    def test_equivalent_eta_takes_the_pd_strength_rule(self, gamma_t):
        # NaN came back as NaN, text, None and a list raised TypeError, -1e308 warned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^pd strength "):
                C.pd_equivalent_eta(gamma_t)

    def test_flip_equivalence_on_states(self, fig_state):
        # phase damping == phase flip with eta3 = (1 - e^{-Gt/2})/2
        gt = 1.3
        ch = O.make_phase_damping(gt)
        rho = O.apply_local_A(ch, bd_to_density(fig_state))
        s = C.evolve_bd_flip(fig_state, 3, C.pd_equivalent_eta(gt))
        assert np.max(np.abs(rho - bd_to_density(s))) < 1e-12


class TestAmplitudeDamping:
    def test_identity_at_zero(self):
        ch = O.make_amplitude_damping(0.0)
        assert np.allclose(ch.operators[0], np.eye(2))

    def test_log_two_amplitude(self):
        ch = O.make_amplitude_damping(np.log(2))
        assert abs(ch.operators[1][1, 0]) == pytest.approx(np.sqrt(0.5))

    def test_decays_toward_one(self):
        rho = O.apply_local_A(
            O.make_amplitude_damping(50.0), bd_to_density(BellDiagonalState(0, 0, 0))
        )
        expected = np.kron(np.diag([0.0, 1.0]), np.eye(2) / 2)
        assert np.max(np.abs(rho - expected)) < 1e-9


class TestUnitality:
    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_flips_unital(self, axis):
        assert O.is_unital(O.make_flip_channel(axis, 0.3))

    def test_phase_damping_unital(self):
        assert O.is_unital(O.make_phase_damping(1.7))

    def test_amplitude_damping_not_unital(self):
        assert not O.is_unital(O.make_amplitude_damping(np.log(2)))
        # at Gt = 0 it degenerates to the identity channel
        assert O.is_unital(O.make_amplitude_damping(0.0))


class TestClosedFormAgreement:
    @settings(max_examples=50, deadline=None)
    @given(bd_states(), st.sampled_from([1, 2, 3]), st.floats(0.0, 1.0))
    def test_flip_kraus_vs_closed_form(self, s, axis, eta):
        via_kraus = O.apply_local_A(O.make_flip_channel(axis, eta), bd_to_density(s))
        via_formula = bd_to_density(C.evolve_bd_flip(s, axis, eta))
        assert np.max(np.abs(via_kraus - via_formula)) < 1e-10

    @settings(max_examples=50, deadline=None)
    @given(bd_states(), st.floats(0.0, 20.0))
    def test_amplitude_kraus_vs_closed_form(self, s, gt):
        via_kraus = O.apply_local_A(O.make_amplitude_damping(gt), bd_to_density(s))
        via_formula = C.evolve_bd_amplitude(s, gt)
        assert np.max(np.abs(via_kraus - via_formula)) < 1e-10

    def test_amplitude_closed_form_entries(self, fig_state):
        rho = C.evolve_bd_amplitude(fig_state, np.log(2))
        assert rho[0, 0].real * 2 == pytest.approx(0.45)
        assert rho[1, 1].real * 2 == pytest.approx(0.05)
        assert rho[0, 3].real * 2 == pytest.approx(-0.9 / (2 * np.sqrt(2)))
        assert rho[1, 2].real * 2 == pytest.approx(-0.1 / (2 * np.sqrt(2)))

    def test_amplitude_zero_time_reduces_to_bd(self, fig_state):
        assert np.max(
            np.abs(C.evolve_bd_amplitude(fig_state, 0.0) - bd_to_density(fig_state))
        ) < 1e-14

    def test_amplitude_longtime_limit(self, fig_state):
        rho = C.evolve_bd_amplitude(fig_state, 50.0)
        expected = np.kron(np.diag([0.0, 1.0]), np.eye(2) / 2)
        assert np.max(np.abs(rho - expected)) < 1e-9


@settings(max_examples=50, deadline=None)
@given(
    bd_states(),
    st.sampled_from([1, 2, 3]),
    st.floats(0.0, 0.5),
    st.floats(0.0, 0.5),
)
def test_flip_semigroup_composition(s, axis, eta_a, eta_b):
    two_step = C.evolve_bd_flip(C.evolve_bd_flip(s, axis, eta_a), axis, eta_b)
    eta_combined = (1.0 - (1.0 - 2 * eta_a) * (1.0 - 2 * eta_b)) / 2.0
    one_step = C.evolve_bd_flip(s, axis, eta_combined)
    assert one_step.as_tuple() == pytest.approx(two_step.as_tuple(), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(bd_states(), st.sampled_from([1, 3]), st.floats(0.0, 1.0))
def test_spmc_preserved_by_axis_1_and_3_flips(s, axis, eta):
    # project the draw onto the SPMC surface c2 = -c1*c3 first
    from eurnoise.states import is_valid

    surf = BellDiagonalState(s.c1, -s.c1 * s.c3, s.c3)
    if not is_valid(surf):
        return
    out = C.evolve_bd_flip(surf, axis, eta)
    assert abs(out.c2 + out.c1 * out.c3) < 1e-12


def test_spmc_break_points_under_axis_2_flip(fig_state):
    # the axis-2 flip scales c1 and c3 by (1 - 2*eta) while leaving c2
    # fixed, so on a state with c2 = -c1*c3 != 0 the condition can only
    # survive where (1 - 2*eta)^2 == 1. Locate the points by scan rather
    # than assuming them.
    holding = []
    for eta in np.linspace(0.0, 1.0, 1001):
        out = C.evolve_bd_flip(fig_state, 2, float(eta))
        if abs(out.c2 + out.c1 * out.c3) <= 1e-9:
            holding.append(float(eta))
    assert holding == [0.0, 1.0]


@settings(max_examples=40, deadline=None)
@given(bd_states(), st.floats(0.0, 10.0))
def test_trace_preserved(s, gt):
    for ch in (
        O.make_flip_channel(2, min(gt / 10.0, 1.0)),
        O.make_phase_damping(gt),
        O.make_amplitude_damping(gt),
    ):
        rho = O.apply_local_A(ch, bd_to_density(s))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)


class TestParseChannelLiteral:
    def test_flip(self):
        assert C.parse_channel_literal("flip:3") == C.ChannelSpec("flip", axis=3)
        with pytest.raises(DomainError):
            C.parse_channel_literal("flip:3:0.25")

    def test_flip_family(self):
        spec = C.parse_channel_literal("flip:1")
        assert spec == C.ChannelSpec("flip", axis=1)
        ops = O.channel_at(spec, 0.1).operators
        assert np.allclose(ops[1], np.sqrt(0.1) * O.PAULI[1], atol=1e-15)

    def test_pd_product_form(self):
        assert C.parse_channel_literal("pd") == C.ChannelSpec("pd")
        for text in ("pd:0.5:3.0", "pd:1.5"):
            with pytest.raises(DomainError):
                C.parse_channel_literal(text)

    def test_ad(self):
        assert O.channel_at(C.parse_channel_literal("ad"), 0.7).label == "ad"
        with pytest.raises(DomainError):
            C.parse_channel_literal("ad:0.7")

    @pytest.mark.parametrize(
        "bad",
        ["flip", "flip:9:0.1", "pd:-1", "xx:1", "ad:a", "flip:0", "flip:01", "flip: 1",
         "flip:1:", "pd:", "ad:0", "AD", " ad", ""],
    )
    def test_rejects(self, bad):
        with pytest.raises(DomainError):
            C.parse_channel_literal(bad)

    def test_every_literal_passes_the_contract(self):
        for text in C.CHANNEL_LITERALS:
            C.parse_channel_literal(text).check(0.0)


BAD_SPECS = [
    C.ChannelSpec("bogus"),
    C.ChannelSpec("flip"),
    C.ChannelSpec("flip", axis=4),
    C.ChannelSpec("flip", axis=3.0),
    C.ChannelSpec("pd", axis=3),
    C.ChannelSpec("ad", axis=1),
    C.ChannelSpec("flip", axis=True),
    C.ChannelSpec("flip", axis=False),
]


class TestChannelContract:
    """ChannelSpec.check is the one place that decides kind, axis and strength."""

    def test_the_caller_always_passes_the_strength(self):
        params = inspect.signature(C.ChannelSpec.check).parameters
        assert list(params) == ["self", "strength"]
        assert all(p.default is p.empty for p in params.values())
        with pytest.raises(TypeError):
            C.ChannelSpec("ad").check()

    @pytest.mark.parametrize("spec", BAD_SPECS, ids=repr)
    def test_bad_spec_rejected_by_evolve_and_at(self, spec, fig_state):
        with pytest.raises(DomainError):
            spec.evolve(fig_state, np.linspace(0.0, 0.5, 3))
        with pytest.raises(DomainError):
            O.channel_at(spec, 0.1)

    @pytest.mark.parametrize("kind", ["flip", "pd", "ad"])
    @pytest.mark.parametrize("bad", [np.nan, -0.1, np.inf, -np.inf])
    def test_bad_strength_names_scalar(self, kind, bad, fig_state):
        spec = C.ChannelSpec(kind, axis=2 if kind == "flip" else None)
        with pytest.raises(DomainError) as info:
            spec.evolve(fig_state, np.array([0.0, 0.25, bad, 0.5]))
        assert str(bad) in str(info.value) and "[" not in str(info.value)

    def test_numpy_integer_axis_accepted(self):
        assert C.ChannelSpec("flip", axis=np.int64(2)).check(0.5) == 0.5

    def test_flip_strength_above_one(self):
        with pytest.raises(DomainError, match="1.5"):
            C.ChannelSpec("flip", axis=1).check(1.5)
        assert C.ChannelSpec("pd").check(1.5) == 1.5

    def test_nan_strength_rejected_by_builders(self, fig_state):
        for build in (
            O.make_phase_damping,
            O.make_amplitude_damping,
            lambda gt: O.make_flip_channel(3, gt),
            lambda gt: C.evolve_bd_flip(fig_state, 3, gt),
            lambda gt: C.evolve_bd_amplitude(fig_state, gt),
        ):
            with pytest.raises(DomainError, match="strength nan"):
                build(np.nan)


class TestNanInvariants:
    def test_kraus_channel_with_nan_operators(self):
        with pytest.raises(O.ChannelError):
            O.KrausChannel((np.full((2, 2), np.nan, dtype=complex),), "nan")

    def test_apply_local_a_with_nan_state(self):
        rho = np.full((4, 4), np.nan, dtype=complex)
        with pytest.raises(O.ChannelError):
            O.apply_local_A(O.make_phase_damping(0.5), rho)


NON_PHYSICAL_STATES = [BellDiagonalState(0.9, 0.9, 0.9)] + [
    BellDiagonalState(*(np.nan if j == i else 0.1 for j in range(3))) for i in range(3)
]
EVERY_SPEC = [C.ChannelSpec("flip", axis=a) for a in (1, 2, 3)]
EVERY_SPEC += [C.ChannelSpec("pd"), C.ChannelSpec("ad")]


class TestEvolveChecksState:
    """ChannelSpec.evolve refuses a state outside the tetrahedron, NaN included."""

    @pytest.mark.parametrize("s", NON_PHYSICAL_STATES, ids=repr)
    @pytest.mark.parametrize("spec", EVERY_SPEC, ids=repr)
    def test_evolve_rejects(self, spec, s):
        with pytest.raises(DomainError, match="tetrahedron"):
            spec.evolve(s, np.linspace(0.0, 0.5, 3))
        with pytest.raises(DomainError, match="tetrahedron"):
            spec.evolve(s, 0.0)

    @pytest.mark.parametrize("s", NON_PHYSICAL_STATES, ids=repr)
    def test_closed_form_wrappers_reject(self, s):
        with pytest.raises(DomainError, match="tetrahedron"):
            C.evolve_bd_flip(s, 2, 0.1)
        with pytest.raises(DomainError, match="tetrahedron"):
            C.evolve_bd_amplitude(s, 0.1)


class TestFlipFactorsThroughEvolve:
    """ChannelSpec.evolve is the one place that builds the flip factors: the
    axis coefficient is kept, the other two scale by 1 - 2 eta. pd is the
    phase flip at pd_equivalent_eta, bit for bit while 1 - e^{-Gt/2} is exact."""

    @pytest.mark.parametrize("axis", [0, 4, 3.0, -1, None, True, False])
    def test_bad_axis_rejected(self, axis, fig_state):
        with pytest.raises(DomainError, match="flip axis"):
            C.ChannelSpec("flip", axis).evolve(fig_state, 0.1)

    @pytest.mark.parametrize("eta", [-0.1, 1.5, np.nan, np.inf])
    def test_bad_eta_rejected(self, eta, fig_state):
        with pytest.raises(DomainError, match="strength"):
            C.ChannelSpec("flip", 3).evolve(fig_state, np.array([0.0, eta]))

    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_factors(self, axis):
        c = np.array([-1.0, 1.0, 1.0])  # a Bell vertex: T / c is the factor exactly
        r, t = C.ChannelSpec("flip", axis).evolve(c, np.array([0.0, 0.25, 0.5]))
        expected = np.array([[1.0] * 3, [0.5] * 3, [0.0] * 3])
        expected[:, axis - 1] = 1.0
        assert (t / c).tolist() == expected.tolist() and r.tolist() == [0.0] * 3
        assert C.ChannelSpec("flip", axis).evolve(c, 0.25)[1].shape == (3,)

    def test_pd_is_the_phase_flip_at_the_equivalent_eta(self):
        # for Gt <= 2 ln 2, e^{-Gt/2} >= 1/2: 1 - e^{-Gt/2} is exact (Sterbenz), and the
        # flip's 1 - 2 eta gives e^{-Gt/2} back bit for bit; beyond, it rounds by under an eps
        c = np.array([-0.5, 0.4, 0.8])
        pd, flip = C.ChannelSpec("pd"), C.ChannelSpec("flip", 3)
        exact = np.append(np.linspace(0.0, 2 * np.log(2), 201), 5e-324)
        r, t = pd.evolve(c, exact)
        assert t.tobytes() == flip.evolve(c, C.pd_equivalent_eta(exact))[1].tobytes()
        assert r.tolist() == [0.0] * len(exact)
        gt = np.linspace(0.0, 10.0, 7)
        r, t = pd.evolve(c, gt)
        assert np.abs(t - flip.evolve(c, C.pd_equivalent_eta(gt))[1]).max() <= np.finfo(float).eps
        assert r.tolist() == [0.0] * 7


def _factors_formula(spec, t):
    """(r, f) of each channel written out: AD r = e^{-Gt} - 1, f = (e^{-Gt/2},
    e^{-Gt/2}, e^{-Gt}); pd r = 0, f = (e^{-Gt/2}, e^{-Gt/2}, 1); a flip r = 0,
    f = 1 on its axis and 1 - 2 eta on the others."""
    if spec.kind == "ad":
        return np.exp(-t) - 1.0, np.stack([np.exp(-t / 2.0)] * 2 + [np.exp(-t)], axis=-1)
    if spec.kind == "pd":
        return np.zeros_like(t), np.stack([np.exp(t * -0.5)] * 2 + [np.ones_like(t)], axis=-1)
    f = np.repeat(np.asarray(1.0 - 2.0 * t)[..., None], 3, axis=-1)
    f[..., spec.axis - 1] = 1.0
    return np.zeros_like(t), f


def _bits(x):
    return np.shape(x), np.asarray(x).tobytes()


def _strengths(literal):
    """A scalar or a short array of strengths: eta in [0, 1], Gamma*t in [0, 800]."""
    one = st.floats(0.0, 1.0 if literal.startswith("flip") else 800.0)
    return st.one_of(one, st.lists(one, min_size=1, max_size=6).map(np.array))


class TestFactors:
    """ChannelSpec.factors is the one closed-form map. evolve(c, t) is check, then
    check_bd, then (r, c * f) of factors, bit for bit, and (r, f) is each channel's
    formula written out."""

    def _check(self, literal, s, t):
        spec = C.parse_channel_literal(literal)
        r, f = spec.factors(spec.check(t))
        got_r, got_t = spec.evolve(s, t)
        assert _bits(got_r) == _bits(r)
        assert _bits(got_t) == _bits(check_bd(s) * f)
        want_r, want_f = _factors_formula(spec, np.asarray(t, dtype=float))
        assert _bits(r) == _bits(want_r) and _bits(f) == _bits(want_f)
        assert np.isfinite(r).all() and np.isfinite(f).all()

    @pytest.mark.parametrize("literal", C.CHANNEL_LITERALS)
    @settings(max_examples=40, deadline=None)
    @given(s=bd_states(), data=st.data())
    def test_evolve_is_the_map_of_factors(self, literal, s, data):
        self._check(literal, s, data.draw(_strengths(literal)))

    @pytest.mark.parametrize(
        "literal, t",
        [(lit, t) for lit in C.CHANNEL_LITERALS
         for t in (0.0, 1.0, np.array([0.0, 1.0]), np.array([[1.0], [0.0]]))]
        + [(lit, t) for lit in ("pd", "ad") for t in (800.0, 1e300, np.finfo(float).max)]
        + [(lit, t) for lit in C.CHANNEL_LITERALS for t in (-0.0, 5e-324, np.linspace(0, 1, 201))]
        + [(lit, t) for lit in ("pd", "ad")
           for t in (745.0, 746.0, np.linspace(0, 10, 201), np.geomspace(0.01, 800, 101))],
    )
    def test_at_the_ends_of_the_ranges(self, literal, t, fig_state):
        self._check(literal, fig_state, t)


def _seeded_correlations(n, seed):
    return random_bd_states(n, np.random.default_rng(seed))


class TestEvolveOverManyStates:
    """One state is the N = 1 case of the array path: evolving N states at
    once equals N single-state calls bit for bit."""

    @pytest.mark.parametrize("literal", C.CHANNEL_LITERALS)
    def test_grid_per_state_equals_single_calls(self, literal):
        spec = C.parse_channel_literal(literal)
        c = _seeded_correlations(200, 17)
        grid = np.linspace(0.0, 1.0 if spec.kind == "flip" else 10.0, 9)
        r, t = spec.evolve(c[:, None, :], grid)
        assert t.shape == (200, 9, 3)
        for n in range(len(c)):
            r1, t1 = spec.evolve(c[n], grid)
            assert t[n].tobytes() == t1.tobytes() and r.tobytes() == r1.tobytes()

    @pytest.mark.parametrize("literal", C.CHANNEL_LITERALS)
    def test_strength_per_state_equals_single_calls(self, literal):
        spec = C.parse_channel_literal(literal)
        c = _seeded_correlations(200, 23)
        strengths = np.random.default_rng(5).uniform(0.0, 1.0, 200)
        r, t = spec.evolve(c, strengths)
        assert t.shape == (200, 3)
        for n in range(len(c)):
            r1, t1 = spec.evolve(c[n], strengths[n])
            assert t[n].tobytes() == t1.tobytes() and r[n].tobytes() == r1.tobytes()

    @pytest.mark.parametrize("literal", C.CHANNEL_LITERALS)
    def test_tuple_array_and_state_agree(self, literal):
        spec = C.parse_channel_literal(literal)
        grid = np.array([0.0, 0.3, 0.6])
        via_state = spec.evolve(BellDiagonalState(0.1, 0.2, 0.3), grid)
        for c in [(0.1, 0.2, 0.3), [0.1, 0.2, 0.3], np.array([0.1, 0.2, 0.3])]:
            r, t = spec.evolve(c, grid)
            assert t.tobytes() == via_state[1].tobytes() and r.tobytes() == via_state[0].tobytes()

    def test_names_the_first_state_outside(self):
        c = np.array([[0.1, 0.2, 0.3], [0.9, 0.9, 0.9], [1.0, 1.0, 1.0]])
        with pytest.raises(DomainError, match=r"state \(0\.9, 0\.9, 0\.9\) lies outside"):
            C.ChannelSpec("ad").evolve(c[:, None, :], np.array([0.0, 1.0]))

    @pytest.mark.parametrize("shape", [(), (2,), (4,), (3, 2)])
    def test_rejects_arrays_that_are_not_correlations(self, shape):
        with pytest.raises(DomainError, match="shape"):
            C.ChannelSpec("pd").evolve(np.zeros(shape), 1.0)
