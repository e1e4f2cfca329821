import gc
import itertools
import sys

import numpy as np
import pytest

from eurnoise import linalg
from eurnoise import scenarios as SC
from eurnoise.linalg import DomainError, binary_entropy
from eurnoise.states import BellDiagonalState, random_bd_states
from eurnoise.channels import CHANNEL_LITERALS, ChannelSpec, parse_channel_literal
from eurnoise.metrics import (
    pauli_pair,
    spmc_holds,
    xstate_concurrence,
    xstate_entropies,
    xstate_lower_bound_Ub,
)

PAIR_13 = pauli_pair(1, 3)
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
    )
    defaults.update(kw)
    return SC.SweepConfig(**defaults)


class TestSweepConfig:
    def test_rejects_bad_grid(self):
        with pytest.raises(DomainError):
            fig_config("pd", t_end=0.0)
        with pytest.raises(DomainError):
            fig_config("pd", n_points=1)

    def test_rejects_unknown_column(self):
        with pytest.raises(DomainError):
            fig_config("pd", outputs=("U", "X"))

    @pytest.mark.parametrize("outputs", [(), ("",), ("U", "U"), ("U", "Ub", "U")])
    def test_rejects_empty_or_duplicate_columns(self, outputs):
        with pytest.raises(DomainError):
            fig_config("pd", outputs=outputs)

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
        assert SC.run_time_sweep(cfg) == SC.run_time_sweep(fig_config("pd", n_points=5))

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
        grid = fig_config("pd", t_start=0.1, spacing="log").grid()
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
        assert records == SC.run_time_sweep(fig_config("pd", n_points=5))


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
        u0 = xstate_entropies(0.0, FIG_STATE).uncertainty(PAIR_13)
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


class TestEntropyCallCounts:
    """A sweep takes every entropy in one binary and one Shannon call, stacked
    over its grid; a long-time classification takes U_b alone, in one call."""

    @pytest.mark.parametrize("literal", CHANNEL_LITERALS)
    def test_sweep_makes_one_call_per_kernel(self, entropy_calls, literal):
        spec = parse_channel_literal(literal)
        t_end = 1.0 if spec.kind == "flip" else 10.0
        for n in (2, 3, 17, 201):
            for pair in ORDERED_PAIRS:
                entropy_calls.clear()
                cfg = fig_config("pd", channel=spec, pair=pauli_pair(*pair), t_end=t_end, n_points=n)
                SC.run_time_sweep(cfg)
                assert entropy_calls == [("binary_entropy", (n, 5)), ("shannon_entropy", (n, 2, 4))]

    def test_one_state_classify_makes_one_shannon_call(self, entropy_calls):
        SC.classify_longtime_ad(FIG_STATE)
        assert entropy_calls == [("shannon_entropy", (2, 4))]
        entropy_calls.clear()
        SC.classify_longtime_ad(random_bd_states(37, np.random.default_rng(1)))
        assert entropy_calls == [("shannon_entropy", (37, 2, 4))]


class TestClassifyManyStates:
    """One state is the N = 1 case of the array path: N states give length-N
    columns equal to N single-state calls bit for bit."""

    def test_columns_equal_single_calls_bitwise(self):
        states = random_bd_states(1500, np.random.default_rng(77))
        many = SC.classify_longtime_ad(states)
        assert [len(col) for col in (many.verdict, many.u_b_initial, many.u_b_limit)] == [1500] * 3
        assert {"Decrease", "Increase"} <= set(many.verdict)
        single = [SC.classify_longtime_ad(s) for s in states]
        assert many.verdict == [res.verdict for res in single]
        assert np.array(many.u_b_initial).tobytes() == np.array([r.u_b_initial for r in single]).tobytes()
        assert np.array(many.u_b_limit).tobytes() == np.array([r.u_b_limit for r in single]).tobytes()

    def test_one_state_gives_plain_scalars(self):
        for c in [FIG_STATE, (-0.5, 0.4, 0.8), np.array([-0.5, 0.4, 0.8])]:
            res = SC.classify_longtime_ad(c)
            assert type(res.verdict) is str and type(res.u_b_initial) is float
            assert type(res.u_b_limit) is float and res == SC.classify_longtime_ad(FIG_STATE)

    def test_boundary_band(self, monkeypatch):
        # U_b exactly at the limit, or within the band of it, is a boundary
        monkeypatch.setattr(SC, "xstate_lower_bound_Ub", lambda r, t: np.array(
            [[1.0, 1.0], [1.0 + 1e-9, 1.0], [1.0 - 1e-9, 1.0], [1.0 + 3e-9, 1.0], [0.5, 1.0]]
        ))
        res = SC.classify_longtime_ad(np.zeros((5, 3)))
        assert res.verdict == ["Boundary", "Boundary", "Boundary", "Decrease", "Increase"]

    def test_empty_and_outside(self):
        res = SC.classify_longtime_ad(np.zeros((0, 3)))
        assert (res.verdict, res.u_b_initial, res.u_b_limit) == ([], [], [])
        with pytest.raises(DomainError, match=r"state \(0\.9, 0\.9, 0\.9\) lies outside"):
            SC.classify_longtime_ad(np.array([[0.0, 0.0, 0.0], [0.9, 0.9, 0.9]]))
        with pytest.raises(DomainError, match=r"shape \(3,\) or \(N, 3\)"):
            SC.classify_longtime_ad(np.zeros((2, 2, 3)))


def _sweep_columns(cfg):
    """Reference rows: the xstate_* columns over the grid, stacked."""
    t = cfg.grid()
    r, corr = cfg.channel.evolve(cfg.initial, t)
    e = xstate_entropies(r, corr)
    u, u_b, m = e.uncertainty(cfg.pair), xstate_lower_bound_Ub(r, corr), e.m
    return np.stack([t, u, u_b, m - (u_b - 1.0), xstate_concurrence(r, corr), m], axis=1)


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

    def test_mirror_cells_share_float_objects(self):
        # c_i(p, q) is the same float object as c_i(q, p); the measured
        # coordinates are shared along each row and column
        res = 31
        states = SC.sample_spmc_surface(pauli_pair(1, 2), res)
        for p, q in itertools.product(range(res), repeat=2):
            assert states[p * res + q].c3 is states[q * res + p].c3
            assert states[p * res + q].c1 is states[p * res].c1
            assert states[p * res + q].c2 is states[q].c2

    def test_starts_no_cyclic_collection(self):
        # named-tuple records stay GC-tracked; built with the collector
        # running, a 401^2 surface starts hundreds of collections
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        assert gc.isenabled()
        gc.callbacks.append(count)
        try:
            states = SC.sample_spmc_surface(PAIR_13, 401)
        finally:
            gc.callbacks.remove(count)
        assert len(states) == 401**2
        assert starts == []

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_the_callers_gc_setting(self, enabled):
        (gc.enable if enabled else gc.disable)()
        try:
            SC.sample_spmc_surface(PAIR_13, 41)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_the_callers_gc_setting_on_error(self, monkeypatch, enabled):
        # a record type that is not a tuple makes tuple.__new__ raise mid-build
        monkeypatch.setattr(SC, "BellDiagonalState", dict)
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(TypeError, match="not a subtype of tuple"):
                SC.sample_spmc_surface(PAIR_13, 41)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    @pytest.mark.parametrize("resolution", [3.5, 5.0, np.float64(5.0), "5", None, 1], ids=repr)
    def test_rejects_non_integral_or_small_resolution(self, resolution):
        with pytest.raises(DomainError, match="resolution must be an integer >= 2"):
            SC.sample_spmc_surface(PAIR_13, resolution)

    def test_accepts_numpy_integer_resolution(self):
        assert SC.sample_spmc_surface(PAIR_13, np.int64(5)) == SC.sample_spmc_surface(PAIR_13, 5)

    def test_accepts_numpy_integer_pair(self):
        pair = pauli_pair(np.int64(1), np.int64(3))
        assert SC.sample_spmc_surface(pair, 5) == SC.sample_spmc_surface(PAIR_13, 5)

    @pytest.mark.parametrize("pair", PLAIN_PAIRS, ids=repr)
    def test_rejects_a_pair_not_built_by_pauli_pair(self, monkeypatch, pair):
        monkeypatch.setattr(SC.gc, "disable", lambda: pytest.fail("the GC was paused"))
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
        u = xstate_entropies(0.0, c).uncertainty(PAIR_13)
        assert np.max(np.abs(u - xstate_lower_bound_Ub(0.0, c))) <= 1e-10

    def test_other_pairs(self):
        for s in SC.sample_spmc_surface(pauli_pair(2, 3), 9):
            assert spmc_holds(s, pauli_pair(2, 3), tol=1e-12)


class TestUnitalPropertyCheck:
    def test_no_violations(self):
        report = SC.property_check_unital(200, seed=11)
        assert report.n_violations == 0
        assert report.n_checks == 200 * 40

    def test_counterexample_found(self):
        report = SC.property_check_unital(5, seed=3)
        assert report.counterexample_state is not None
        ub0, ub1 = report.counterexample_ub_drop
        assert ub1 < ub0 - 1e-9
        assert report.passed

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
        # a core that reports every evolved U_b one bit lower makes every check
        # a violation, in the order of UNITAL_FAMILIES and their grids
        core = SC.xstate_lower_bound_Ub

        def lowered(r, t):
            return core(r, t) - (1.0 if np.ndim(t) == 3 else 0.0)

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

    def test_figure_state_is_defined_once(self):
        from eurnoise import cli

        assert SC.FIG_STATE == BellDiagonalState(-0.5, 0.4, 0.8)
        assert cli.FIG_STATE is SC.FIG_STATE and cli.PRESETS["fig3"][0] is SC.FIG_STATE

    def test_deterministic(self):
        a = SC.property_check_unital(1, seed=99)
        b = SC.property_check_unital(np.int64(1), seed=99)
        assert a == b


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

    @pytest.mark.parametrize("outputs", [(), ("U", "U"), ("U", "Ub", "U"), ("X",), ("U", "u")])
    def test_rejects_bad_columns(self, outputs):
        records = SC.run_time_sweep(fig_config("pd", n_points=2))
        with pytest.raises(DomainError, match="output columns"):
            SC.emit_csv(records, outputs)

    def test_bytes_match_fstring_reference(self):
        rng = np.random.default_rng(11)
        vals = rng.normal(scale=3.0, size=(30, 6))
        vals[rng.random(vals.shape) < 0.15] = -0.0
        # signed zeros and tiny negatives print as -0.000000000000
        vals[0] = [-0.0, 0.0, -1e-13, 5e-13, -5e-13, 0.1234567890125]
        records = [SC.SweepRecord(*row) for row in vals.tolist()]
        fields = dict(zip(SC.ALL_COLUMNS, ("u", "u_b", "d", "e", "m")))
        for k in range(1, len(SC.ALL_COLUMNS) + 1):
            for outputs in itertools.permutations(SC.ALL_COLUMNS, k):
                rows = [(r.t, *(getattr(r, fields[c]) for c in outputs)) for r in records]
                lines = ["t," + ",".join(outputs)]
                lines += [",".join(f"{x:.12f}" for x in row) for row in rows]
                assert SC.emit_csv(records, outputs) == ("\n".join(lines) + "\n").encode()
