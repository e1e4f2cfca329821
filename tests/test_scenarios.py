import dataclasses
import gc
import itertools
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eurnoise import linalg
from eurnoise import metrics
from eurnoise import scenarios as SC
from eurnoise.linalg import DomainError, binary_entropy, shannon_entropy
from eurnoise.states import BellDiagonalState, bell_eigenvalues, random_bd_states
from eurnoise.channels import CHANNEL_LITERALS, ChannelSpec, parse_channel_literal
from eurnoise.metrics import (
    pauli_pair,
    spmc_holds,
    xstate_columns,
    xstate_entropies,
    xstate_lower_bound_Ub,
    _concurrence,
)

PAIR_13 = pauli_pair(1, 3)
BLOCK = SC.ROWS_BLOCK
FIG_STATE = BellDiagonalState(-0.5, 0.4, 0.8)
# pairs of valid axes that did not come from pauli_pair: each is refused up front
PLAIN_PAIRS = [(1, 3), [1, 3], np.array([1, 3])]
ORDERED_PAIRS = list(itertools.permutations((1, 2, 3), 2))


def fig_config(kind, **kw):
    defaults = dict(
        initial=FIG_STATE,
        channel=ChannelSpec(kind),
        pair=PAIR_13,
        t_start=0.0,
        t_end=10.0,
        n_points=201,
        spacing="linear",
    )
    defaults.update(kw)
    return SC.SweepConfig(**defaults)


class TestSweepConfig:
    def test_the_caller_passes_every_field(self):
        # the figure grid is written once, in the CLI's preset defaults
        init = [f for f in dataclasses.fields(SC.SweepConfig) if f.init]
        assert [f.name for f in init] == [
            "initial", "channel", "pair", "t_start", "t_end", "n_points", "spacing"
        ]
        missing = dataclasses.MISSING
        assert all(f.default is missing and f.default_factory is missing for f in init)
        with pytest.raises(TypeError):
            SC.SweepConfig(FIG_STATE, ChannelSpec("pd"), PAIR_13, 0.0, 10.0, 201)

    def test_rejects_bad_grid(self):
        with pytest.raises(DomainError):
            fig_config("pd", t_end=0.0)
        with pytest.raises(DomainError):
            fig_config("pd", n_points=1)

    @pytest.mark.parametrize(
        "initial",
        [(-0.5, 0.4, 0.8), [-0.5, 0.4, 0.8], np.array([-0.5, 0.4, 0.8]), FIG_STATE],
        ids=lambda c: type(c).__name__,
    )
    def test_any_state_sequence_gives_a_hashable_config_of_its_checked_copy(self, initial):
        want = SC.run_time_sweep(fig_config("ad", initial=(-0.5, 0.4, 0.8), n_points=11))
        cfg = fig_config("ad", initial=initial, n_points=11)
        assert hash(cfg) == hash(cfg) and cfg == cfg and cfg != fig_config("ad", n_points=11)
        assert type(cfg.initial) is np.ndarray and cfg.initial.shape == (3,)
        assert not cfg.initial.flags.writeable and not cfg.grid.flags.writeable
        if isinstance(initial, (list, np.ndarray)):
            # as_real hands a float64 array back as it is: the config copies it after the check
            assert not np.shares_memory(cfg.initial, initial)
            initial[:] = [0.9, 0.9, 0.9]  # outside the tetrahedron, after the check
        assert cfg.initial.tolist() == [-0.5, 0.4, 0.8]
        got = SC.run_time_sweep(cfg)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert SC.emit_csv(got) == SC.emit_csv(want)

    def test_keeps_only_what_it_checks(self):
        settable = [f.name for f in dataclasses.fields(SC.SweepConfig) if f.init]
        assert settable == ["initial", "channel", "pair", "t_start", "t_end", "n_points", "spacing"]
        with pytest.raises(TypeError):
            fig_config("pd", outputs=("U",))

    @pytest.mark.parametrize(
        "spec",
        [ChannelSpec("bogus"), ChannelSpec("flip"), ChannelSpec("pd", axis=3)],
        ids=repr,
    )
    def test_rejects_bad_channel(self, spec):
        with pytest.raises(DomainError):
            fig_config("pd", channel=spec, t_end=0.5)

    def test_rejects_invalid_initial_state(self):
        with pytest.raises(DomainError, match="tetrahedron"):
            fig_config("pd", initial=BellDiagonalState(0.9, 0.9, 0.9))

    @pytest.mark.parametrize("pair", PLAIN_PAIRS, ids=repr)
    def test_rejects_a_pair_not_built_by_pauli_pair(self, pair):
        with pytest.raises(DomainError, match=r"pauli_pair\(j, k\)"):
            fig_config("pd", pair=pair)

    def test_accepts_numpy_integer_pair(self):
        cfg = fig_config("pd", pair=pauli_pair(np.int64(1), np.int64(3)), n_points=5)
        want = SC.run_time_sweep(fig_config("pd", n_points=5))
        assert np.asarray(SC.run_time_sweep(cfg)).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize(
        "kw",
        [
            dict(t_end=np.inf),
            dict(t_end=np.nan),
            dict(t_start=-np.inf),
            dict(t_start=-1.0),
        ],
    )
    def test_rejects_bad_range(self, kw):
        with pytest.raises(DomainError):
            fig_config("ad", **kw)

    def test_flip_range_names_value(self):
        with pytest.raises(DomainError, match="1.5") as info:
            fig_config("flip", channel=ChannelSpec("flip", axis=3), t_end=1.5)
        assert "[" not in str(info.value)
        fig_config("flip", channel=ChannelSpec("flip", axis=3), t_end=1.0)

    def test_log_spacing(self):
        grid = fig_config("pd", t_start=0.1, spacing="log").grid
        assert grid[0] == pytest.approx(0.1) and grid[-1] == pytest.approx(10.0)

    def test_log_spacing_from_zero_rejected_by_constructor(self):
        with pytest.raises(DomainError, match="log spacing needs t_start > 0"):
            fig_config("pd", t_start=0.0, spacing="log")

    @pytest.mark.parametrize("n", [2.5, 5.0, np.float64(5.0), "5", None, 1, np.int64(1)], ids=repr)
    def test_rejects_non_integral_or_small_n_points(self, n):
        with pytest.raises(DomainError, match="n_points must be an integer >= 2"):
            fig_config("pd", n_points=n)

    def test_accepts_numpy_integer_n_points(self):
        records = SC.run_time_sweep(fig_config("pd", n_points=np.int64(5)))
        want = SC.run_time_sweep(fig_config("pd", n_points=5))
        assert np.asarray(records).tobytes() == np.asarray(want).tobytes()


class TestFig2Sweep:
    def test_closed_form_u(self):
        # U(t) = H_bin(0.9) + H_bin(0.5 - 0.25 e^{-t/2}) along the whole grid
        records = SC.run_time_sweep(fig_config("pd"))
        assert len(records) == 201
        for r in records:
            expected = binary_entropy(0.9) + binary_entropy(0.5 - 0.25 * np.exp(-r.t / 2))
            assert r.u == pytest.approx(expected, abs=1e-10)

    def test_monotone_nondecreasing(self):
        records = SC.run_time_sweep(fig_config("pd"))
        u = [r.u for r in records]
        assert all(b >= a - 1e-12 for a, b in zip(u, u[1:]))

    def test_zero_time_record(self):
        r0 = SC.run_time_sweep(fig_config("pd"))[0]
        u0 = xstate_columns(0.0, FIG_STATE, PAIR_13)[0]
        assert r0.u == pytest.approx(u0, abs=1e-12)
        assert r0.u_b == pytest.approx(xstate_lower_bound_Ub(0.0, FIG_STATE), abs=1e-12)

    def test_record_invariants(self):
        for r in SC.run_time_sweep(fig_config("pd")):
            assert r.u >= r.u_b - 1e-9
            assert r.d >= -1e-9
            assert 0.0 <= r.e <= 1.0 + 1e-12


class TestFig3Sweep:
    def test_uncertainty_decreases_longtime(self):
        records = SC.run_time_sweep(fig_config("ad", t_end=20.0))
        assert records[0].u == pytest.approx(1.2802737180484138, abs=1e-6)
        assert records[-1].u == pytest.approx(1.0, abs=1e-4)
        assert records[-1].u < records[0].u

    def test_m_non_monotonic(self):
        records = SC.run_time_sweep(fig_config("ad", t_end=20.0))
        m0 = records[0].m
        assert min(r.m for r in records) < m0 - 0.1

    def test_correlations_decay(self):
        records = SC.run_time_sweep(fig_config("ad", t_end=20.0))
        assert records[-1].d < 0.01
        assert records[-1].e < 0.01

    def test_record_invariants(self):
        for r in SC.run_time_sweep(fig_config("ad", n_points=51)):
            assert r.u >= r.u_b - 1e-9
            assert r.d >= -1e-9
            assert 0.0 <= r.e <= 1.0 + 1e-12


    def test_log_grid_to_800_finite(self):
        cfg = fig_config("ad", t_start=0.01, t_end=800.0, n_points=101, spacing="log")
        records = SC.run_time_sweep(cfg)
        values = np.array([[r.u, r.u_b, r.d, r.e, r.m] for r in records])
        assert np.all(np.isfinite(values))
        assert records[-1].u_b == pytest.approx(1.0, abs=1e-12)
        assert records[-1].m == pytest.approx(0.0, abs=1e-12)


class TestClassifyLongtime:
    def test_fig_state_decreases(self):
        res = SC.classify_longtime_ad(FIG_STATE)
        assert res.verdict == "Decrease"
        assert res.u_b_initial == pytest.approx(1.2802737180484138, abs=1e-10)
        assert res.u_b_limit == pytest.approx(1.0, abs=1e-6)

    def test_bell_vertex_increases(self):
        res = SC.classify_longtime_ad(BellDiagonalState(-1, 1, 1))
        assert res.verdict == "Increase"
        assert res.u_b_initial == pytest.approx(0.0, abs=1e-10)

    def test_center_decreases(self):
        res = SC.classify_longtime_ad(BellDiagonalState(0, 0, 0))
        assert res.verdict == "Decrease"
        assert res.u_b_initial == pytest.approx(2.0, abs=1e-12)


# the pure Bell states (Phi+, Phi-, Psi+, Psi-) and the maximally mixed state
VERTICES_AND_ORIGIN = np.array(
    [[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1], [0, 0, 0]], dtype=float
)


@pytest.fixture(scope="class")
def longtime_states():
    """200,000 seeded states, then the vertices and the origin, with their classification."""
    states = np.concatenate(
        [random_bd_states(200_000, np.random.default_rng(2022)), VERTICES_AND_ORIGIN]
    )
    return states, SC.classify_longtime_ad(states)


class TestExactLongTimeLimits:
    """Amplitude damping takes every state to |1><1| x I/2: U_b -> 1, M -> 0, and U -> 1
    for a pair with sigma_3, 2 for (1, 2). The limits are oracles for the evaluation at
    Gamma*t = LONGTIME_GAMMA_T, which is computed, not assumed."""

    def test_u_b_limit_is_exactly_one(self, longtime_states):
        _, res = longtime_states
        assert res.u_b_limit.tolist() == [1.0] * len(res.u_b_limit)

    def test_verdict_is_the_sign_of_the_bell_entropy_minus_one(self, longtime_states):
        states, res = longtime_states
        s = shannon_entropy(bell_eigenvalues(states))
        outside = np.abs(s - 1.0) > SC.BOUNDARY_BAND
        assert outside.sum() >= len(states) - 5  # a vertex has S = 0, the origin S = 2
        want = np.where(s > 1.0, "Decrease", "Increase")
        assert np.array_equal(res.verdict[outside], want[outside])

    @pytest.mark.parametrize("pair", ORDERED_PAIRS)
    def test_the_sweep_ends_at_m_zero_and_u_one_or_two(self, pair):
        states = [*random_bd_states(500, np.random.default_rng(50)), *VERTICES_AND_ORIGIN]
        limit = 1.0 if 3 in pair else 2.0
        for c in states:
            cfg = SC.SweepConfig(
                c, ChannelSpec("ad"), pauli_pair(*pair), 0.0, SC.LONGTIME_GAMMA_T, 2, "linear"
            )
            t, u, u_b, d, e, m = np.asarray(SC.run_time_sweep(cfg))[-1]
            assert (t, m, u_b, d) == (SC.LONGTIME_GAMMA_T, 0.0, 1.0, 0.0), c
            assert abs(u - limit) <= 2.3e-16, c


@pytest.fixture
def check_calls(monkeypatch):
    """The name of every check_bd and ChannelSpec.check call, wherever a
    loaded eurnoise module binds check_bd."""
    calls = []
    check_bd, check = SC.check_bd, ChannelSpec.check

    def counted_check_bd(c):
        calls.append("check_bd")
        return check_bd(c)

    def counted_check(self, strength=0.0):
        calls.append("ChannelSpec.check")
        return check(self, strength)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "eurnoise" and getattr(mod, "check_bd", None) is check_bd:
            monkeypatch.setattr(mod, "check_bd", counted_check_bd)
    monkeypatch.setattr(ChannelSpec, "check", counted_check)
    return calls


class TestSweepChecksOnce:
    """A sweep checks its state and its strengths once each, when its config
    is built; run_time_sweep maps what passed and checks nothing again."""

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    @pytest.mark.parametrize("literal", CHANNEL_LITERALS)
    def test_one_check_each_at_construction(self, check_calls, literal, spacing):
        spec = parse_channel_literal(literal)
        t_end = 1.0 if spec.kind == "flip" else 10.0
        for n in (2, 3, 201):
            check_calls.clear()
            cfg = fig_config(
                "pd", channel=spec, t_start=0.01, t_end=t_end, n_points=n, spacing=spacing
            )
            assert sorted(check_calls) == ["ChannelSpec.check", "check_bd"]
            check_calls.clear()
            records = SC.run_time_sweep(cfg)
            assert check_calls == [] and len(records) == n
            assert np.array(records).tobytes() == _sweep_columns(cfg).tobytes()

    def test_grid_is_read_only(self):
        grid = fig_config("pd", n_points=5).grid
        assert grid.tolist() == [0.0, 2.5, 5.0, 7.5, 10.0]
        with pytest.raises(ValueError, match="read-only"):
            grid[1] = 20.0

    @pytest.mark.parametrize("kind", ["pd", "ad"])
    def test_log_grid_that_overflows_is_rejected(self, kind):
        # numpy's geomspace takes the inner point to inf: a DomainError, no warning
        big = float(np.nextafter(linalg.FLOAT_MAX, 0.0))
        with pytest.raises(DomainError, match="log grid from .* overflows"):
            fig_config(kind, t_start=big, t_end=linalg.FLOAT_MAX, n_points=3, spacing="log")


class TestClassifyOneCoreCall:
    """classify evaluates U_b at Gamma*t = 0 and at the limit in one core
    call; both values equal the separate evaluations bit for bit."""

    def test_matches_separate_evaluations_exactly(self):
        for s in random_bd_states(1000, np.random.default_rng(2024)):
            res = SC.classify_longtime_ad(s)
            limit = xstate_lower_bound_Ub(*ChannelSpec("ad").evolve(s, 50.0))
            assert res.u_b_initial == float(xstate_lower_bound_Ub(0.0, s))
            assert res.u_b_limit == float(limit)

    def test_one_core_call(self, monkeypatch):
        shapes = []
        core = SC.xstate_lower_bound_Ub

        def counted(r, t):
            shapes.append(np.shape(t))
            return core(r, t)

        monkeypatch.setattr(SC, "xstate_lower_bound_Ub", counted)
        SC.classify_longtime_ad(FIG_STATE)
        assert shapes == [(2, 3)]
        SC.classify_longtime_ad(random_bd_states(37, np.random.default_rng(1)))
        assert shapes == [(2, 3), (37, 2, 3)]


@pytest.fixture
def entropy_calls(monkeypatch):
    """(kernel name, shape of its argument) for every call of the two checked
    entropy kernels, wherever a loaded eurnoise module binds them."""
    calls = []
    for name in ("binary_entropy", "shannon_entropy"):
        kernel = getattr(linalg, name)

        def counted(p, _name=name, _kernel=kernel):
            calls.append((_name, np.shape(p)))
            return _kernel(p)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "eurnoise" and getattr(mod, name, None) is kernel:
                monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.fixture
def plogp_calls(monkeypatch):
    """The shape of the argument of every linalg._plogp call, wherever a loaded
    eurnoise module binds it."""
    calls, plogp = [], linalg._plogp

    def counted(p):
        calls.append(np.shape(p))
        return plogp(p)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "eurnoise" and getattr(mod, "_plogp", None) is plogp:
            monkeypatch.setattr(mod, "_plogp", counted)
    return calls


@pytest.fixture
def ordered_checks(monkeypatch):
    """The shape of every array that failed a kernel's fast test and went on to the
    ordered checks, which start by naming its first bad value."""
    calls, first_outside = [], linalg._first_outside

    def counted(x, lo, hi):
        calls.append(np.shape(x))
        return first_outside(x, lo, hi)

    monkeypatch.setattr(linalg, "_first_outside", counted)
    return calls


class TestEntropyCallCounts:
    """A sweep takes every entropy in one p log2 p call over one (14, n) block of rows,
    under the kernels' own checks, and calls neither kernel; a long-time
    classification takes U_b alone, in one Shannon call."""

    @pytest.mark.parametrize("literal", CHANNEL_LITERALS)
    def test_sweep_makes_one_plogp_call_and_no_kernel_call(
        self, entropy_calls, plogp_calls, ordered_checks, literal
    ):
        spec = parse_channel_literal(literal)
        t_end = 1.0 if spec.kind == "flip" else 10.0
        for n in (2, 3, 17, 201):
            for pair in ORDERED_PAIRS:
                plogp_calls.clear()
                cfg = fig_config("pd", channel=spec, pair=pauli_pair(*pair), t_end=t_end, n_points=n)
                SC.run_time_sweep(cfg)
                assert plogp_calls == [(14, n)]
        assert entropy_calls == []
        assert ordered_checks == []  # every entry of an interior state is in range

    def test_one_state_classify_takes_u_b_in_floats_and_a_batch_one_shannon_call(
        self, monkeypatch, entropy_calls
    ):
        floats, entropy_floats = [], metrics._entropy_floats
        monkeypatch.setattr(
            metrics, "_entropy_floats", lambda p, k: floats.append((len(p), k)) or entropy_floats(p, k)
        )
        SC.classify_longtime_ad(FIG_STATE)  # the (2, 4) spectrum as 8 Python floats
        assert (floats, entropy_calls) == ([(8, 4)], [])
        SC.classify_longtime_ad(random_bd_states(37, np.random.default_rng(1)))
        assert (floats, entropy_calls) == ([(8, 4)], [("shannon_entropy", (37, 2, 4))])


@pytest.fixture
def kernel_check_calls(monkeypatch):
    """The name of every call of the kernels' checks and of their row-sum test, in order,
    wherever a loaded eurnoise module binds them."""
    calls = []
    for name in ("_check_binary", "_check_distribution", "_sums_near_one"):
        kernel = getattr(linalg, name)

        def counted(*args, _name=name, _kernel=kernel, **kw):
            calls.append(_name)
            return _kernel(*args, **kw)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "eurnoise" and getattr(mod, name, None) is kernel:
                monkeypatch.setattr(mod, name, counted)
    return calls


class TestOneUnitTestDecidesTheBlock:
    """The pass decides its block of binary and spectrum rows with one unit test; the
    intake bounds every spectrum sum, so no row-sum test runs, and only a block that fails
    it meets the kernels' checks, binary first."""

    def test_the_figure_sweeps_and_one_state_classify_call_no_check(self, kernel_check_calls):
        SC.run_time_sweep(fig_config("pd"))  # fig2
        SC.run_time_sweep(fig_config("ad"))  # fig3
        SC.classify_longtime_ad(FIG_STATE)
        assert kernel_check_calls == []

    def test_the_bell_vertex_sweep_calls_each_check_once(self, kernel_check_calls):
        SC.run_time_sweep(fig_config("ad", initial=(-1.0, 1.0, 1.0)))  # smfig-b
        assert kernel_check_calls == ["_check_binary", "_check_distribution"]


# the two ad-longtime states of the benchmark, on its 101-point log grid to Gamma*t = 800
LONGTIME_STATES = [(-0.5, 0.4, 0.8), (0.6, -0.3, 0.2)]


@pytest.mark.parametrize("initial", LONGTIME_STATES)
def test_long_ad_sweeps_of_interior_states_skip_the_ordered_shannon_path(monkeypatch, initial):
    # rho_AB's spectrum, the one Shannon argument, holds no negative entry here, where
    # 1 + r rounds to 0. Two roads to an ordered path remain: a pure Bell vertex
    # reaches this one, as hypot rounding leaves a -2.2e-16 entry in 4 x rho_AB's
    # spectrum, and binary_entropy's own ordered path is still reached through
    # (1 + r +- T3)/2 (ROADMAP item 5)
    entered = []
    ordered = linalg._sum_last
    monkeypatch.setattr(linalg, "_sum_last", lambda p: entered.append(p.shape) or ordered(p))
    for pair in ORDERED_PAIRS:
        SC.run_time_sweep(
            SC.SweepConfig(initial, ChannelSpec("ad"), pauli_pair(*pair), 0.01, 800.0, 101, "log")
        )
    assert entered == []


def _tetrahedron_landmarks():
    """The vertices, edge midpoints and face centres of the tetrahedron, and states on
    segments from the centre to each edge midpoint whose S(rho_BD) lies within
    BOUNDARY_BAND of 1, on both sides of it."""
    v = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]], dtype=float)
    pairs, triples = itertools.combinations(range(4), 2), itertools.combinations(range(4), 3)
    edges = np.array([(v[i] + v[j]) / 2 for i, j in pairs])
    faces = np.array([(v[i] + v[j] + v[k]) / 3 for i, j, k in triples])
    near = []
    for mid in edges:  # S = 1 at the midpoint, 2 at the centre: bisect S = 1 + 4e-10
        for target in (1.0 + 4e-10, 1.0):
            lo, hi = 0.0, 1.0
            for _ in range(80):
                at = (lo + hi) / 2
                s = SC.classify_longtime_ad(mid * (1 - at)).u_b_initial
                lo, hi = (at, hi) if s < target else (lo, at)
            near += [mid * (1 - lo), mid * (1 - hi)]
    return np.concatenate([v, edges, faces, near])


class TestOneStateClassifyIsTheBatch:
    """One state takes U_b in Python floats and N states the array path: the verdicts,
    the bits and the types of the columns are the same."""

    def test_at_the_tetrahedron_landmarks_and_the_boundary_band(self):
        states = _tetrahedron_landmarks()
        many = SC.classify_longtime_ad(states)
        assert {"Decrease", "Increase", "Boundary"} <= set(many.verdict.tolist())
        for i, state in enumerate(states):
            one = SC.classify_longtime_ad(state)
            for name in ("verdict", "u_b_initial", "u_b_limit"):
                got, want = getattr(one, name), getattr(many, name)[i]
                assert type(got) is type(want) and np.ndim(got) == 0, (name, state)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (name, state)


class TestClassifyManyStates:
    """One state is the N = 1 case of the array path: N states give length-N
    columns equal to N single-state calls bit for bit."""

    def test_columns_equal_single_calls_bitwise(self):
        states = random_bd_states(1500, np.random.default_rng(77))
        many = SC.classify_longtime_ad(states)
        assert [col.shape for col in (many.verdict, many.u_b_initial, many.u_b_limit)] == [(1500,)] * 3
        assert {"Decrease", "Increase"} <= set(many.verdict.tolist())
        single = [SC.classify_longtime_ad(s) for s in states]
        assert np.array_equal(many.verdict, [res.verdict for res in single])
        assert many.u_b_initial.tobytes() == np.array([r.u_b_initial for r in single]).tobytes()
        assert many.u_b_limit.tobytes() == np.array([r.u_b_limit for r in single]).tobytes()

    def test_one_state_gives_numpy_scalars(self):
        fig = SC.classify_longtime_ad(FIG_STATE)
        for c in [FIG_STATE, (-0.5, 0.4, 0.8), [-0.5, 0.4, 0.8], np.array([-0.5, 0.4, 0.8])]:
            res = SC.classify_longtime_ad(c)
            assert type(res.verdict) is np.str_ and res.verdict == "Decrease"
            assert type(res.u_b_initial) is np.float64 and type(res.u_b_limit) is np.float64
            assert (res.u_b_initial, res.u_b_limit) == (fig.u_b_initial, fig.u_b_limit)
        for n in (1, 2, 37):
            res = SC.classify_longtime_ad(random_bd_states(n, np.random.default_rng(n)))
            for col, kind in zip((res.verdict, res.u_b_initial, res.u_b_limit), "Uff"):
                assert type(col) is np.ndarray and col.shape == (n,) and col.dtype.kind == kind

    def test_boundary_band(self, monkeypatch):
        # U_b exactly at the limit, or within the band of it, is a boundary
        monkeypatch.setattr(SC, "xstate_lower_bound_Ub", lambda r, t: np.array(
            [[1.0, 1.0], [1.0 + 1e-9, 1.0], [1.0 - 1e-9, 1.0], [1.0 + 3e-9, 1.0], [0.5, 1.0]]
        ))
        res = SC.classify_longtime_ad(np.zeros((5, 3)))
        assert res.verdict.tolist() == ["Boundary", "Boundary", "Boundary", "Decrease", "Increase"]

    def test_empty_and_outside(self):
        res = SC.classify_longtime_ad(np.zeros((0, 3)))
        assert [col.shape for col in (res.verdict, res.u_b_initial, res.u_b_limit)] == [(0,)] * 3
        with pytest.raises(DomainError, match=r"state \(0\.9, 0\.9, 0\.9\) lies outside"):
            SC.classify_longtime_ad(np.array([[0.0, 0.0, 0.0], [0.9, 0.9, 0.9]]))
        with pytest.raises(DomainError, match=r"shape \(3,\) or \(N, 3\)"):
            SC.classify_longtime_ad(np.zeros((2, 2, 3)))


def _sweep_columns(cfg):
    """Reference rows: each column from its definition over the grid, stacked; E from the
    concurrence of r^2 and the sums T1 -+ T2, 1 +- T3 formed here."""
    t = cfg.grid
    r, corr = cfg.channel.evolve(cfg.initial, t)
    e = xstate_entropies(r, corr)
    u, u_b, m = e[cfg.pair.q - 1] + e[cfg.pair.r - 1], xstate_lower_bound_Ub(r, corr), e.m
    t1, t2, t3 = corr.T
    conc = _concurrence(np.square(r), t1 - t2, t1 + t2, 1 + t3, 1 - t3)
    return np.stack([t, u, u_b, m - (u_b - 1.0), conc, m], axis=1)


class TestSweepRecords:
    @pytest.mark.parametrize("kind", ["flip:1", "flip:2", "flip:3", "pd", "ad"])
    def test_records_equal_core_columns_bitwise(self, kind):
        rng = np.random.default_rng(list(kind.encode()))
        family, _, axis = kind.partition(":")
        spec = ChannelSpec(family, int(axis) if axis else None)
        t_end = 1.0 if axis else 10.0
        for n, s in enumerate(random_bd_states(20, rng)):
            pair = pauli_pair(*((1, 2), (1, 3), (2, 3))[n % 3])
            cfg = fig_config(family, initial=s, channel=spec, pair=pair, t_end=t_end, n_points=17 + n)
            records = SC.run_time_sweep(cfg)
            assert all(type(rec) is SC.SweepRecord for rec in records)
            assert np.array(records).tobytes() == _sweep_columns(cfg).tobytes()

    def test_names_and_positions_agree(self):
        for rec in SC.run_time_sweep(fig_config("ad", n_points=11)):
            assert len(rec) == 6 and rec.t is rec[0] and rec.u is rec[1] and rec.u_b is rec[2]
            assert rec.d is rec[3] and rec.e is rec[4] and rec.m is rec[5]
            assert rec._fields == ("t", "u", "u_b", "d", "e", "m")
            assert SC.SweepRecord(*rec) == rec and type(SC.SweepRecord(*rec)) is SC.SweepRecord

    def test_immutable(self):
        rec = SC.run_time_sweep(fig_config("pd", n_points=2))[0]
        with pytest.raises(AttributeError):
            rec.u = 0.0


class TestRows:
    """A sweep or a surface is one read-only table; a record is built when a row is read."""

    @pytest.fixture(params=["sweep", "surface"])
    def rows(self, request):
        if request.param == "sweep":
            return SC.run_time_sweep(fig_config("ad", n_points=7))
        return SC.sample_spmc_surface(pauli_pair(2, 3), 3)

    def test_an_integer_index_gives_the_record_of_iteration(self, rows):
        records = list(rows)
        assert len(records) == len(rows) == len(rows.table)
        for i, rec in enumerate(records):
            assert type(rec) is rows.record and list(rec) == rows.table[i].tolist()
            for key in (i, i - len(rows), np.int64(i), np.intp(i - len(rows))):
                got = rows[key]
                assert got == rec and type(got) is rows.record
        with pytest.raises(IndexError):
            rows[len(rows)]

    @pytest.mark.parametrize(
        "key", [slice(0, 3), slice(None), 1.0, np.float64(1.0), True, "1", (0, 1), None], ids=repr
    )
    def test_a_slice_or_a_non_integer_index_is_refused(self, rows, key):
        # a 3-row slice of a surface would read as one state of three lists
        with pytest.raises(DomainError, match="integer index"):
            rows[key]

    @pytest.mark.parametrize(
        "table", [[["0.5"] * 6], [[0.5j] * 6], [[None] * 6]], ids=["numeric_str", "complex", "none"]
    )
    def test_rejects_a_table_that_is_not_real(self, table):
        # numeric text gave records of 0.5, a complex table a ComplexWarning, None NaN
        with pytest.raises(DomainError) as info:
            SC.Rows(table, SC.SweepRecord)
        assert str(info.value) == f"SweepRecord rows must be real numbers, got {table!r}"

    def test_the_array_is_the_read_only_table(self, rows):
        a = np.asarray(rows)
        assert np.shares_memory(a, rows.table) and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0.5
        as_float = np.asarray(rows, dtype=float)
        assert np.shares_memory(as_float, rows.table) and as_float.tobytes() == a.tobytes()
        assert a.tolist() == [list(rec) for rec in rows]
        copy = np.array(rows)
        assert copy.flags.writeable and not np.shares_memory(copy, rows.table)

    def test_a_callers_table_stays_writeable(self):
        vals = np.zeros((2, 6))
        rows = SC.Rows(vals, SC.SweepRecord)
        vals[1, 2] = 0.25
        assert rows[1].u_b == 0.25 and not np.asarray(rows).flags.writeable

    @pytest.mark.parametrize("record", [SC.SweepRecord, BellDiagonalState], ids=lambda r: r.__name__)
    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_iteration_reads_every_block_as_the_table(self, record, n):
        table = np.random.default_rng(n).normal(size=(n, len(record._fields)))
        edge = np.array([-0.0, 5e-324, np.nan, np.inf, -np.inf, 1e308])
        table.flat[: edge.size] = edge[: table.size]
        rows = SC.Rows(table, record)
        records = list(rows)
        assert len(records) == n
        for rec, row in zip(records, rows.table):
            assert type(rec) is record and all(type(x) is float for x in rec)
            assert np.array(rec).tobytes() == row.tobytes()  # NaN and signed zeros too

    def test_a_record_is_its_row_as_its_block_was_read(self):
        table = np.zeros((2 * BLOCK, 6))
        records = iter(SC.Rows(table, SC.SweepRecord))
        next(records)  # reads the first block
        table[1, 1] = table[BLOCK, 1] = 0.5  # the caller's table stays writeable
        rest = list(records)
        assert rest[0].u == 0.0 and rest[BLOCK - 1].u == 0.5

    def test_iteration_holds_one_block_of_a_surface(self):
        rows = SC.sample_spmc_surface(PAIR_13, 401)  # 160,801 records, about 25 MB as one list
        tracemalloc.start()
        try:
            next(iter(rows))
            first = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            for _ in rows:
                pass
            full = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first < 1e6 and full < 1e6, (first, full)

    @pytest.mark.parametrize("shape", [(6,), (2, 5), (2, 7), (2, 2, 6)])
    def test_a_table_of_another_width_is_refused(self, shape):
        with pytest.raises(DomainError, match="SweepRecord rows cannot have shape"):
            SC.Rows(np.zeros(shape), SC.SweepRecord)


def _surface_reference(pair, resolution):
    """Cells in row-major order over (c_j, c_k), closed by c_i = -c_j*c_k."""
    j, k = pair
    v = np.linspace(-1.0, 1.0, resolution)
    cells = np.empty((resolution, resolution, 3))
    cells[:, :, j - 1] = v[:, None]
    cells[:, :, k - 1] = v[None, :]
    cells[:, :, 6 - j - k - 1] = -np.outer(v, v)
    return cells.reshape(-1, 3)


class TestSpmcSurface:
    @pytest.mark.parametrize("pair", [(1, 2), (1, 3), (2, 3)])
    def test_cells_bitwise_equal_reference(self, pair):
        states = SC.sample_spmc_surface(pauli_pair(*pair), 401)
        assert len(states) == 401**2
        assert all(type(s) is BellDiagonalState for s in states)
        # tobytes compares signed zeros too
        assert np.array(states).tobytes() == _surface_reference(pair, 401).tobytes()

    @pytest.mark.parametrize("resolution", [2, 3, 4, 41])
    def test_small_grids_bitwise_equal_reference(self, resolution):
        states = SC.sample_spmc_surface(PAIR_13, resolution)
        assert np.array(states).tobytes() == _surface_reference((1, 3), resolution).tobytes()

    def test_starts_no_cyclic_collection(self):
        # named-tuple records stay GC-tracked; built with the collector
        # running, a 401^2 surface of records starts hundreds of collections.
        # The collection first empties the youngest generation, so a start
        # inside the call means the call itself made hundreds of tracked objects.
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        assert gc.isenabled()
        gc.collect()
        gc.callbacks.append(count)
        try:
            states = SC.sample_spmc_surface(PAIR_13, 401)
        finally:
            gc.callbacks.remove(count)
        assert len(states) == 401**2
        assert starts == []

    @pytest.mark.parametrize("resolution", [3.5, 5.0, np.float64(5.0), "5", None, 1], ids=repr)
    def test_rejects_non_integral_or_small_resolution(self, resolution):
        with pytest.raises(DomainError, match="resolution must be an integer >= 2"):
            SC.sample_spmc_surface(PAIR_13, resolution)

    def test_accepts_numpy_integer_resolution(self):
        got = SC.sample_spmc_surface(PAIR_13, np.int64(5))
        want = SC.sample_spmc_surface(PAIR_13, 5)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_accepts_numpy_integer_pair(self):
        got = SC.sample_spmc_surface(pauli_pair(np.int64(1), np.int64(3)), 5)
        want = SC.sample_spmc_surface(PAIR_13, 5)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("pair", PLAIN_PAIRS, ids=repr)
    def test_rejects_a_pair_not_built_by_pauli_pair(self, pair):
        with pytest.raises(DomainError, match=r"pauli_pair\(j, k\)"):
            SC.sample_spmc_surface(pair, 5)

    def test_corner_is_bell_vertex(self):
        states = SC.sample_spmc_surface(PAIR_13, 2)
        assert BellDiagonalState(-1.0, 1.0, 1.0) in states

    def test_center_present_on_odd_grids(self):
        states = SC.sample_spmc_surface(PAIR_13, 3)
        assert any(s.as_tuple() == pytest.approx((0, 0, 0), abs=1e-15) for s in states)

    def test_all_points_on_surface(self):
        for s in SC.sample_spmc_surface(PAIR_13, 11):
            assert spmc_holds(s, PAIR_13, tol=1e-12)

    def test_identity_on_surface(self):
        c = np.array(SC.sample_spmc_surface(PAIR_13, 21))
        u = xstate_columns(0.0, c, PAIR_13)[:, 0]
        assert np.max(np.abs(u - xstate_lower_bound_Ub(0.0, c))) <= 1e-10

    def test_other_pairs(self):
        for s in SC.sample_spmc_surface(pauli_pair(2, 3), 9):
            assert spmc_holds(s, pauli_pair(2, 3), tol=1e-12)


def _unital_reference(trials, seed, drop=0.0):
    """The unital report's fields, built family by family as the check once did:
    one ChannelSpec.evolve and one core call per family on its own grid, and U_b
    before the moves and after amplitude damping each in a call of its own. Every
    U_b after a unital move is then lowered by drop."""
    c = np.concatenate([random_bd_states(trials, np.random.default_rng(seed)), [FIG_STATE]])
    families = [(ChannelSpec("flip", a), np.linspace(0.0, 0.5, 10)) for a in (1, 2, 3)]
    families.append((ChannelSpec("pd"), np.linspace(0.0, 10.0, 10)))
    ub0 = xstate_lower_bound_Ub(0.0, c)
    ub1 = np.concatenate(
        [xstate_lower_bound_Ub(*spec.evolve(c[:-1, None, :], grid)) for spec, grid in families],
        axis=-1,
    ) - drop
    moves = [(spec, x) for spec, grid in families for x in grid]
    violations = tuple(
        (BellDiagonalState(*c[n]), *moves[k], ub0[n], ub1[n, k])
        for n, k in zip(*np.nonzero(ub1 < ub0[:-1, None] - 1e-9))
    )
    ub_ad = xstate_lower_bound_Ub(*ChannelSpec("ad").evolve(c, 20.0))
    drops = np.flatnonzero(ub_ad < ub0 - 1e-9)
    counter = (None, None, None)
    if drops.size:
        n = drops[0]
        counter = (BellDiagonalState(*c[n]), 20.0, (float(ub0[n]), float(ub_ad[n])))
    return (trials, ub1.size, len(violations), violations, *counter)


class TestUnitalPropertyCheck:
    def test_no_violations(self):
        report = SC.property_check_unital(200, seed=11)
        assert report.n_violations == 0
        assert report.n_checks == 200 * 40

    def test_counterexample_found(self):
        report = SC.property_check_unital(5, seed=3)
        assert report.n_violations == 0 and report.violations == ()
        assert report.counterexample_state is not None
        assert report.counterexample_gamma_t == SC.AD_PROBE_GAMMA_T
        ub0, ub1 = report.counterexample_ub_drop
        assert ub1 < ub0 - 1e-9

    @pytest.mark.parametrize("trials, seed", [(5, 3), (200, 11), (1, 10)])
    def test_counterexample_is_a_record_of_a_sampled_row(self, trials, seed):
        # the first row, in sample order then the figure state, whose U_b drops
        # under amplitude damping; seed 10's one sample does not drop
        rows = random_bd_states(trials, np.random.default_rng(seed)).tolist()
        rows.append(list(FIG_STATE))
        report = SC.property_check_unital(trials, seed)
        s = report.counterexample_state
        assert type(s) is BellDiagonalState and all(type(x) is float for x in s)
        assert list(s) in rows
        ub0, ub1 = report.counterexample_ub_drop
        assert ub0 == pytest.approx(xstate_lower_bound_Ub(0.0, s), abs=1e-12)
        assert ub1 == pytest.approx(xstate_lower_bound_Ub(*ChannelSpec("ad").evolve(s, 20.0)), abs=1e-12)
        for earlier in rows[: rows.index(list(s))]:
            limit = xstate_lower_bound_Ub(*ChannelSpec("ad").evolve(earlier, 20.0))
            assert limit >= xstate_lower_bound_Ub(0.0, earlier) - 1e-9
        assert (s == FIG_STATE) is (seed == 10)

    @pytest.mark.parametrize(
        "trials, seed",
        [(1, -1), (0, 5), (2.5, 1), (3.0, 1), (np.float64(3.0), 1), ("3", 1), (None, 1),
         (1, 2.5), (1, None), (True, 1), (False, 1), (1, True), (1, False), (True, False)],
    )
    def test_rejects_bad_arguments(self, trials, seed):
        with pytest.raises(DomainError):
            SC.property_check_unital(trials, seed)

    def test_violation_names_spec_and_strength_on_its_own_grid(self, monkeypatch):
        # a core that reports every U_b after a unital move (columns 1:-1 of the one
        # call) one bit lower makes every check a violation, in the order of
        # UNITAL_FAMILIES and their grids
        core = SC.xstate_lower_bound_Ub

        def lowered(r, t):
            ub = core(r, t)
            ub[..., 1:-1] -= 1.0
            return ub

        monkeypatch.setattr(SC, "xstate_lower_bound_Ub", lowered)
        report = SC.property_check_unital(2, seed=4)
        assert report.n_violations == report.n_checks == 80
        states = random_bd_states(2, np.random.default_rng(4)).tolist()
        moves = [(spec, x) for spec, grid in SC.UNITAL_FAMILIES for x in grid]
        assert [v[:3] for v in report.violations] == [(tuple(s), *m) for s in states for m in moves]
        assert all(type(v[0]) is BellDiagonalState for v in report.violations)
        assert [spec for spec, _ in SC.UNITAL_FAMILIES] == [
            ChannelSpec("flip", 1), ChannelSpec("flip", 2), ChannelSpec("flip", 3), ChannelSpec("pd")]
        pd_strengths = [v[2] for v in report.violations[:40] if v[1] == ChannelSpec("pd")]
        assert pd_strengths == list(SC.PD_GAMMA_T_GRID) and pd_strengths[-1] == 10.0
        ub0, ub1 = report.violations[0][3:]
        assert ub1 == pytest.approx(ub0 - 1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "band, lowered, n_violations",
        [(1e-9, 5e-10, 0), (1e-9, 3e-9, 80), (0.5, 0.25, 0), (0.5, 1.0, 80)],
    )
    def test_a_drop_counts_beyond_the_boundary_band(self, monkeypatch, band, lowered, n_violations):
        # classify's band: a unital move or the amplitude-damping probe that lowers U_b
        # within it is neither a violation nor a counterexample
        core = SC.xstate_lower_bound_Ub

        def lowering(r, t):
            ub = core(r, t)
            ub[..., 1:] = ub[..., :1] - lowered
            return ub

        monkeypatch.setattr(SC, "BOUNDARY_BAND", band)
        monkeypatch.setattr(SC, "xstate_lower_bound_Ub", lowering)
        report = SC.property_check_unital(2, seed=4)
        assert report.n_violations == n_violations
        assert (report.counterexample_state is None) is (n_violations == 0)

    def test_the_report_has_no_defaults(self):
        fields = dataclasses.fields(SC.UnitalCheckReport)
        assert len(fields) == 7
        assert all(f.default is dataclasses.MISSING for f in fields)
        assert all(f.default_factory is dataclasses.MISSING for f in fields)

    @pytest.mark.parametrize("trials", [1, 2, 37, 200])
    def test_one_core_call(self, monkeypatch, trials):
        # the sampled states and the figure state, each moved 42 ways: as it is,
        # the 40 unital moves, and the amplitude-damping probe
        shapes = []
        core = SC.xstate_lower_bound_Ub

        def counted(r, t):
            shapes.append(np.shape(t))
            return core(r, t)

        monkeypatch.setattr(SC, "xstate_lower_bound_Ub", counted)
        SC.property_check_unital(trials, seed=7)
        assert shapes == [(trials + 1, 42, 3)]

    @pytest.mark.parametrize("trials", [1, 37])
    def test_checks_its_states_once_and_no_strength_again(self, check_calls, trials):
        # every grid went through ChannelSpec.check when the move table was built
        SC.property_check_unital(trials, seed=7)
        assert check_calls == ["check_bd"]

    @pytest.mark.parametrize("trials", [1, 37])
    def test_one_shannon_call(self, entropy_calls, trials):
        SC.property_check_unital(trials, seed=7)
        assert entropy_calls == [("shannon_entropy", (trials + 1, 42, 4))]

    @pytest.mark.parametrize("drop", [0.0, 1.0], ids=["as_is", "unital_moves_lowered"])
    @pytest.mark.parametrize(
        "trials, seed", [(1, 0), (1, 10), (2, 4), (57, 3), (50, 77), (400, 9), (1000, 123)]
    )
    def test_report_equals_the_family_by_family_route_bitwise(
        self, monkeypatch, trials, seed, drop
    ):
        # lowered, every unital check is a violation, so the violations are compared too
        core = SC.xstate_lower_bound_Ub

        def lowered(r, t):
            ub = core(r, t)
            ub[..., 1:-1] -= drop
            return ub

        monkeypatch.setattr(SC, "xstate_lower_bound_Ub", lowered)
        got, want = SC.property_check_unital(trials, seed), _unital_reference(trials, seed, drop)
        assert got.n_violations == (got.n_checks if drop else 0)
        assert (got.n_trials, got.n_checks, got.n_violations) == want[:3]
        assert got.violations == want[3]
        # == on floats cannot tell -0.0 from 0.0; the hex strings can
        hexes = [[x.hex() for x in v[3:]] for v in got.violations]
        assert hexes == [[float(x).hex() for x in v[3:]] for v in want[3]]
        state, gamma_t, drop = want[4:]
        assert got.counterexample_state == state and got.counterexample_gamma_t == gamma_t
        if drop is None:
            assert got.counterexample_ub_drop is None
        else:
            assert [x.hex() for x in got.counterexample_ub_drop] == [x.hex() for x in drop]

    def test_the_figure_and_preset_states_are_plain_tuples(self):
        from eurnoise import cli

        assert type(SC.FIG_STATE) is tuple
        assert all(type(state) is tuple for state, *_ in cli.PRESETS.values())
        assert cli.PRESETS["smfig-b"][0] == (-1.0, 1.0, 1.0)

    def test_figure_state_is_defined_once(self):
        from eurnoise import cli

        assert SC.FIG_STATE == BellDiagonalState(-0.5, 0.4, 0.8)
        assert cli.FIG_STATE is SC.FIG_STATE and cli.PRESETS["fig3"][0] is SC.FIG_STATE

    def test_deterministic(self):
        a = SC.property_check_unital(1, seed=99)
        b = SC.property_check_unital(np.int64(1), seed=99)
        assert a == b


# the unital families of the runtime, each with the end of its 201-point grid
UNITAL_ENDS = {"flip:1": 0.5, "flip:2": 0.5, "flip:3": 0.5, "pd": 20.0}
UNITAL_STATES = np.concatenate([
    random_bd_states(2000, np.random.default_rng(8031)),
    [[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1], [0, 0, 0]],  # the vertices, the origin
])


@pytest.mark.parametrize("literal", UNITAL_ENDS)
def test_unital_noise_never_lowers_u(literal):
    # the paper's "unital noises only increase the amount of uncertainty", for U itself:
    # before a sigma_q measurement a Pauli channel on A is a binary symmetric channel on
    # the outcome, so S(sigma_q|B) cannot fall; property_check_unital checks U_b only
    grid = np.linspace(0.0, UNITAL_ENDS[literal], 201)
    r, t = parse_channel_literal(literal).evolve(UNITAL_STATES[:, None, :], grid)
    for pair in ((1, 2), (1, 3), (2, 3)):  # U is symmetric in the pair's order
        u = metrics.xstate_columns(r, t, pauli_pair(*pair))[..., 0]
        assert u.shape == (len(UNITAL_STATES), 201)
        assert np.diff(u, axis=-1).min() >= -1e-12, pair


def _pauli_channel_weights():
    """Weights p = (p_I, p_1, p_2, p_3) of Pauli channels: the simplex's vertices (the
    identity first), its edge midpoints, its centre and 200 seeded Dirichlet draws."""
    vertices = np.eye(4)
    midpoints = [(vertices[i] + vertices[j]) / 2 for i in range(4) for j in range(i + 1, 4)]
    draws = np.random.default_rng(8032).dirichlet(np.ones(4), 200)
    return np.concatenate([vertices, midpoints, [np.full(4, 0.25)], draws])


def test_no_pauli_channel_lowers_u_or_u_b():
    # the paper's unital claim for every Pauli channel on A, not only the axis flips and
    # pd: r stays 0 and T_j scales by f_j = 1 - 2 (p_k + p_l); the identity is channel 0
    p = _pauli_channel_weights()
    f = 1.0 - 2.0 * np.stack([p[:, 2] + p[:, 3], p[:, 1] + p[:, 3], p[:, 1] + p[:, 2]], axis=-1)
    assert f[0].tolist() == [1.0, 1.0, 1.0] and f[1].tolist() == [1.0, -1.0, -1.0]
    assert f[10].tolist() == [0.0, 0.0, 0.0]  # the centre: the fully depolarizing channel
    t = UNITAL_STATES[:, None, :] * f
    for pair in ((1, 2), (1, 3), (2, 3)):
        u = metrics.xstate_columns(0.0, t, pauli_pair(*pair))[..., :2]  # U, U_b
        assert u.shape == (len(UNITAL_STATES), len(p), 2)
        assert (u - u[:, :1]).min() >= -1e-12, pair


class TestEmitCsv:
    def test_header_subset(self):
        records = SC.run_time_sweep(fig_config("pd", n_points=2))
        data = SC.emit_csv(records, ("U",))
        assert data.decode().splitlines()[0] == "t,U"

    def test_fig2_first_line(self):
        records = SC.run_time_sweep(fig_config("pd"))
        first = SC.emit_csv(records).decode().splitlines()[1]
        assert first.startswith("0.000000000000,1.280273718048,")

    def test_round_trip(self):
        records = SC.run_time_sweep(fig_config("pd", n_points=9))
        body = SC.emit_csv(records).decode().splitlines()[1:]
        for line, r in zip(body, records):
            vals = [float(x) for x in line.split(",")]
            assert vals == pytest.approx([r.t, r.u, r.u_b, r.d, r.e, r.m], abs=1e-11)

    def test_byte_determinism(self):
        a = SC.emit_csv(SC.run_time_sweep(fig_config("pd", n_points=21)))
        b = SC.emit_csv(SC.run_time_sweep(fig_config("pd", n_points=21)))
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            SC.emit_csv([])

    @pytest.mark.parametrize(
        "outputs",
        [(), ("",), ("U", "U"), ("U", "Ub", "U"), ("X",), ("U", "X"), ("U", "u")]
        + ["EM", "UM", "U", "M", "Ub", "U,M"],  # a str is not read as its characters
    )
    def test_rejects_bad_columns(self, outputs):
        records = SC.run_time_sweep(fig_config("pd", n_points=2))
        with pytest.raises(DomainError, match="output columns"):
            SC.emit_csv(records, outputs)

    @pytest.mark.parametrize(
        "make",
        [lambda: 5, lambda: iter(["U"]), lambda: [["U"]], lambda: {"U": 1}, lambda: {"U"},
         lambda: np.array(["U", "M"]), lambda: [np.array("U")], lambda: None],
        ids=["int", "iterator", "nested_list", "dict", "set", "array", "array_name", "none"],
    )
    def test_takes_only_a_tuple_or_list_of_names(self, make):
        records = SC.run_time_sweep(fig_config("pd", n_points=2))
        with pytest.raises(DomainError, match="output columns"):
            SC.check_columns(make())
        with pytest.raises(DomainError, match="output columns"):
            SC.emit_csv(records, make())

    def test_a_list_is_its_tuple(self):
        records = SC.run_time_sweep(fig_config("pd", n_points=3))
        for outputs in [SC.ALL_COLUMNS, ("M", "U"), ("Ub",)]:
            assert SC.emit_csv(records, list(outputs)) == SC.emit_csv(records, outputs)

    def test_bytes_match_fstring_reference(self):
        rng = np.random.default_rng(11)
        vals = rng.normal(scale=3.0, size=(30, 6))
        vals[rng.random(vals.shape) < 0.15] = -0.0
        # signed zeros and tiny negatives print as -0.000000000000
        vals[0] = [-0.0, 0.0, -1e-13, 5e-13, -5e-13, 0.1234567890125]
        records = SC.Rows(vals, SC.SweepRecord)
        fields = dict(zip(SC.ALL_COLUMNS, ("u", "u_b", "d", "e", "m")))
        for k in range(1, len(SC.ALL_COLUMNS) + 1):
            for outputs in itertools.permutations(SC.ALL_COLUMNS, k):
                rows = [(r.t, *(getattr(r, fields[c]) for c in outputs)) for r in records]
                lines = ["t," + ",".join(outputs)]
                lines += [",".join(f"{x:.12f}" for x in row) for row in rows]
                assert SC.emit_csv(records, outputs) == ("\n".join(lines) + "\n").encode()

    def test_rejects_anything_but_the_rows_of_a_sweep(self):
        sweep = SC.run_time_sweep(fig_config("pd", n_points=3))
        others = [
            list(sweep),
            np.array(sweep),
            SC.sample_spmc_surface(PAIR_13, 3),
            SC.Rows(np.asarray(sweep)[:, :3], BellDiagonalState),
        ]
        for other in others:
            with pytest.raises(DomainError, match="SweepRecord rows of run_time_sweep"):
                SC.emit_csv(other)

    def test_rejects_a_non_finite_cell(self):
        table = np.array(SC.run_time_sweep(fig_config("pd", n_points=3)))
        table[1, 3] = float("nan")  # the D cell of row 1
        with pytest.raises(DomainError, match=r"CSV cell \(row 1, column 3\) is nan, not finite"):
            SC.emit_csv(SC.Rows(table, SC.SweepRecord))


def _percent_reference(a):
    return "".join(",".join(f"{x:.12f}" for x in row) + "\n" for row in a.tolist()).encode()


# cells where the 12-decimal rounding is hard: signed zeros and tiny values, exact
# ties (multiples of 2**-13 and 2**-41) and floats nearest a tie, the edge of the
# vectorized digits near 2**51 / 1e12, wide cells, and plain floats
HARD_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 999.25, -999.25, 1e20, -1e20, 1e300, -1e300]),
    st.floats(-1e-11, 1e-11),
    st.integers(-3 * 2**13, 3 * 2**13 - 1).map(lambda i: i / 2**13),
    st.integers(-(2**44), 2**44).map(lambda i: i * 2.0**-41),
    st.integers(-(2 * 10**15), 2 * 10**15).map(lambda k: (k + 0.5) / 1e12),
    st.floats(2240.0, 2260.0).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestCsvBody:
    """The one writer against `%`, on both sides of its size cutoff (the suite
    makes every RuntimeWarning an error)."""

    @settings(deadline=None)
    @given(arrays(float, st.tuples(st.integers(1, 60), st.integers(1, 6)), elements=HARD_CELLS,
                  fill=st.nothing()))
    @example(np.array([[2**-13, -(2**-13), 3 * 2**-41, 2251.7998, 2251.8, -0.0]]))
    def test_bytes_match_percent(self, a):
        want = _percent_reference(a)
        assert SC.csv_body(a) == want
        assert SC._vector_body(a) == want  # the vectorized route on small tables too

    def test_the_cutoff_sits_between_the_benchmark_tables(self):
        # 3-point sweeps (18 cells) stay on the template, 201-point ones (1206) do not
        assert 18 < SC._VECTOR_MIN_CELLS <= 1206
        a = np.random.default_rng(16).uniform(-1, 1, (201, 6))
        assert SC.csv_body(a) == _percent_reference(a) == SC._template_body(a)

    def test_every_edge_cell_of_a_large_table(self):
        ties = np.arange(-3 * 2**13, 3 * 2**13) / 2**13
        edges = [0.0, -0.0, 1e-13, -1e-13, 5e-13, -5e-13, 9999.0, -9999.9999999995, 1e4, 5e-324]
        # the floats at and next to (k + 1/2) / 1e12, for k up to 2e15: x 1e12 rounds
        # onto the tie or across it, where np.rint of it may round otherwise than `%`
        k = np.floor(10 ** np.random.default_rng(17).uniform(0, 15.3, 2000))
        near = (k + 0.5) / 1e12
        near = np.concatenate([near, np.nextafter(near, np.inf), np.nextafter(near, -np.inf)])
        a = np.concatenate([ties, edges, np.nextafter(ties, np.inf), near, -near]).reshape(-1, 2)
        want = _percent_reference(a)
        assert SC.csv_body(a) == want

        def rint_only(x):  # the digits without the tie fallback
            q = int(np.rint(abs(x) * 1e12))
            return "-" * bool(np.signbit(x)) + f"{q // 10**12}.{q % 10**12:012d}"

        cells = want.decode().replace("\n", ",").split(",")[:-1]
        assert sum(rint_only(x) != c for x, c in zip(a.ravel().tolist(), cells)) > 1000

    def test_empty_tables(self):
        assert SC.csv_body(np.empty((0, 3))) == b""
        assert SC.csv_body(np.empty((2, 0))) == b"\n\n"

    # a float conversion printed numeric text as its number (0.500000000000,1.000000000000),
    # dropped an imaginary part with a ComplexWarning, read None as a NaN cell ("cell (row 0,
    # column 0) is nan") and raised numpy's ValueError on a ragged list
    @pytest.mark.parametrize(
        "cells",
        [[["0.5", "1"]], [[b"0.5", b"1"]], [[0.5 + 1j, 1.0]], np.ones((1, 2), dtype=complex),
         [[None, 1.0]], [[0.5, 1.0], [1.0]]],
        ids=["numeric_str", "numeric_bytes", "complex", "complex_array", "none", "ragged"],
    )
    def test_rejects_cells_that_are_not_real(self, cells):
        with pytest.raises(DomainError) as info:
            SC.csv_body(cells)
        assert str(info.value) == f"CSV cells must be real numbers, got {cells!r}"

    def test_real_cells_of_any_kind_print_as_floats(self):
        want = b"0.500000000000,1.000000000000\n"
        for cells in ([[0.5, 1]], [[Fraction(1, 2), True]], np.array([[0.5, 1.0]], dtype=">f8")):
            assert SC.csv_body(cells) == want

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2), ()])
    def test_rejects_a_table_that_is_not_2d(self, shape):
        with pytest.raises(DomainError, match="a CSV table must have shape"):
            SC.csv_body(np.zeros(shape))

    @pytest.mark.parametrize("rows", [3, 201])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_the_first_non_finite_cell(self, rows, bad):
        a = np.zeros((rows, 6))
        a[2, 4] = a[rows - 1, 5] = bad
        with pytest.raises(DomainError, match=rf"\(row 2, column 4\) is {bad}, not finite"):
            SC.csv_body(a)
