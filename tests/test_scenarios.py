import numpy as np
import pytest

from eurnoise import scenarios as SC
from eurnoise.linalg import DomainError, binary_entropy
from eurnoise.states import BellDiagonalState
from eurnoise.channels import ChannelSpec
from eurnoise.metrics import pauli_pair, spmc_holds, uncertainty_U_bd, lower_bound_Ub_bd

PAIR_13 = pauli_pair(1, 3)
FIG_STATE = BellDiagonalState(-0.5, 0.4, 0.8)


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
        assert r0.u == pytest.approx(uncertainty_U_bd(FIG_STATE, PAIR_13), abs=1e-12)
        assert r0.u_b == pytest.approx(lower_bound_Ub_bd(FIG_STATE), abs=1e-12)

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


class TestSpmcSurface:
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
        for s in SC.sample_spmc_surface(PAIR_13, 21):
            assert abs(uncertainty_U_bd(s, PAIR_13) - lower_bound_Ub_bd(s)) <= 1e-10

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

    def test_deterministic(self):
        a = SC.property_check_unital(1, seed=99)
        b = SC.property_check_unital(1, seed=99)
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
