import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eurnoise import states as S
from eurnoise.linalg import DomainError
from eurnoise.oracles import PAULI, bd_to_density, hermitian_eigenvalues, partial_trace

from conftest import bd_states


class TestBellEigenvalues:
    def test_maximally_mixed(self):
        spec = S.bell_eigenvalues(S.BellDiagonalState(0, 0, 0))
        assert np.allclose(spec, 0.25)

    def test_bell_vertex(self):
        spec = S.bell_eigenvalues(S.BellDiagonalState(-1, 1, 1))
        assert np.allclose(spec, [0, 1, 0, 0], atol=1e-15)

    def test_fig_state(self, fig_state):
        spec = S.bell_eigenvalues(fig_state)
        assert np.allclose(spec, [0.225, 0.675, 0.025, 0.075], atol=1e-14)

    def test_invalid_state_rejected(self):
        with pytest.raises(DomainError):
            S.bell_eigenvalues(S.BellDiagonalState(1, 1, 1))

    def test_weights_rounded_as_written(self):
        # (1 + c1 - c2 + c3)/4 and so on, left to right, for every state:
        # seeded samples, the tetrahedron's four vertices and points on its six edges
        vertices = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]], dtype=float)
        s = np.linspace(0.0, 1.0, 41)[:, None]
        edges = [s * a + (1 - s) * b for n, a in enumerate(vertices) for b in vertices[n + 1 :]]
        seeded = [S.random_bd_states(500, np.random.default_rng(seed)) for seed in (8, 9, 10)]
        c = np.concatenate(seeded + [vertices] + edges)
        c1, c2, c3 = c.T
        written = np.stack(
            [(1 + c1 - c2 + c3) / 4, (1 - c1 + c2 + c3) / 4,
             (1 + c1 + c2 - c3) / 4, (1 - c1 - c2 - c3) / 4], axis=-1
        )
        assert S.bell_eigenvalues(c).tobytes() == written.tobytes()
        assert S.bell_eigenvalues(c.reshape(2, -1, 3)).tobytes() == written.tobytes()
        for n in (7, 1500, 1501, len(c) - 1):
            assert S.bell_eigenvalues(c[n]).tobytes() == written[n].tobytes()
        # check_bd's fast test takes the same formula on Python floats, to the same bits
        floats = np.array([S._weights(*state) for state in c.tolist()]) / 4
        assert floats.tobytes() == written.tobytes()


NAN_STATES = [S.BellDiagonalState(*c) for c in [(np.nan, 0, 0), (0, np.nan, 0), (0, 0, np.nan)]]


class TestTetrahedronCheck:
    @pytest.mark.parametrize("s", NAN_STATES + [S.BellDiagonalState(0.9, 0.9, 0.9)], ids=repr)
    def test_outside_or_nan_is_invalid(self, s):
        assert not S.is_valid(s)
        with pytest.raises(DomainError, match="outside the Bell-diagonal tetrahedron"):
            S.bell_eigenvalues(s)

    def test_boundary_tolerance(self):
        assert S.is_valid(S.BellDiagonalState(-1, 1, 1 + 2e-12))
        assert not S.is_valid(S.BellDiagonalState(-1, 1, 1 + 8e-12))

    def test_tolerance_edge_to_the_ulp(self):
        # every float c3 within 50 ulps of where the weights of (-1, 1, c3)
        # cross -1e-12, against the rule in scalar Python arithmetic
        def written(c1, c2, c3):
            weights = ((1 + c1 - c2 + c3) / 4, (1 - c1 + c2 + c3) / 4,
                       (1 + c1 + c2 - c3) / 4, (1 - c1 - c2 - c3) / 4)
            return all(w >= -S.TETRAHEDRON_TOL for w in weights)

        c3 = (1.0 + 4e-12) + np.arange(-50, 51) * 2.0**-52
        edge = np.stack([np.full_like(c3, -1.0), np.ones_like(c3), c3], axis=-1)
        expected = [written(*c) for c in edge.tolist()]
        assert any(expected) and not all(expected)
        assert S.is_valid(edge).tolist() == expected
        assert [S.is_valid(c) for c in edge] == expected

    def test_plain_tuples_and_arrays(self):
        for c in [(0.1, 0.2, 0.3), [0.1, 0.2, 0.3], np.array([0.1, 0.2, 0.3])]:
            assert S.check_bd(c).tolist() == [0.1, 0.2, 0.3] and S.is_valid(c) is True
        assert S.is_valid(np.zeros(3)) is True and S.is_valid((0.9, 0.9, 0.9)) is False
        assert S.check_bd(np.zeros((0, 3))).shape == (0, 3)

    def test_many_states(self):
        c = np.array([[0.1, 0.2, 0.3], [0.9, 0.9, 0.9], [np.nan, 0, 0], [-1, 1, 1]])
        assert S.is_valid(c).tolist() == [True, False, False, True]
        assert S.is_valid(c.reshape(2, 2, 3)).tolist() == [[True, False], [False, True]]
        assert S.check_bd(c[[0, 3]]).tolist() == [[0.1, 0.2, 0.3], [-1.0, 1.0, 1.0]]
        with pytest.raises(DomainError, match=r"state \(0\.9, 0\.9, 0\.9\) lies outside"):
            S.check_bd(c)
        with pytest.raises(DomainError, match=r"state \(nan, 0\.0, 0\.0\) lies outside"):
            S.check_bd(c[[0, 2, 1]].reshape(3, 1, 3))

    @pytest.mark.parametrize("shape", [(), (2,), (4,), (3, 2), (3, 0)])
    def test_rejects_arrays_that_are_not_correlations(self, shape):
        with pytest.raises(DomainError, match="shape"):
            S.check_bd(np.zeros(shape))
        with pytest.raises(DomainError, match="shape"):
            S.is_valid(np.zeros(shape))


class TestBdToDensity:
    def test_center_is_maximally_mixed(self):
        assert np.allclose(bd_to_density(S.BellDiagonalState(0, 0, 0)), np.eye(4) / 4)

    def test_bell_vertex_is_pure_phi_minus(self):
        rho = bd_to_density(S.BellDiagonalState(-1, 1, 1))
        phi_minus = np.array([1, 0, 0, -1]) / np.sqrt(2)
        assert np.allclose(rho, np.outer(phi_minus, phi_minus), atol=1e-14)
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)

    # the oracle's own kind check refuses what the runtime's real-input rule refuses
    @pytest.mark.parametrize(
        "c",
        [["0.1", "0.2", "0.3"], [b"0.1", b"0.2", b"0.3"], [0.1 + 0j, 0.2, 0.3], [None, 0.2, 0.3],
         [[0.1], 0.2, 0.3]],
        ids=["numeric_str", "numeric_bytes", "complex", "none", "ragged"],
    )
    def test_refuses_what_is_not_real(self, c):
        with pytest.raises(DomainError) as info:
            bd_to_density(c)
        assert str(info.value) == f"correlations must be real numbers, got {c!r}"
        with pytest.raises(DomainError, match="correlations must be real numbers"):
            S.check_bd(c)

    def test_takes_bools_integers_and_floats(self):
        assert bd_to_density([0, False, np.float32(0.5)]).tobytes() == bd_to_density(
            [0.0, 0.0, 0.5]
        ).tobytes()

    def test_fig_state_entries(self, fig_state):
        rho = bd_to_density(fig_state)
        assert np.allclose(np.diag(rho).real, [0.45, 0.05, 0.05, 0.45])
        assert rho[0, 3] == pytest.approx(-0.225)
        assert rho[1, 2] == pytest.approx(-0.025)


class TestValidity:
    def test_outside_corner(self):
        assert not S.is_valid(S.BellDiagonalState(1, 1, 1))

    def test_vertex(self):
        assert S.is_valid(S.BellDiagonalState(-1, 1, 1))

    def test_center(self):
        assert S.is_valid(S.BellDiagonalState(0, 0, 0))

    @settings(max_examples=60)
    @given(bd_states())
    def test_matches_density_positivity(self, s):
        ev = hermitian_eigenvalues(bd_to_density(s))
        assert S.is_valid(s) == bool(np.min(ev) >= -1e-10)

    @settings(max_examples=200)
    @given(st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 3))
    def test_matches_density_positivity_on_the_cube(self, c):
        # most of the cube lies outside the tetrahedron; the oracle's builder is
        # unchecked, so its smallest eigenvalue decides validity on its own
        least = float(np.min(hermitian_eigenvalues(bd_to_density(c))))
        assume(abs(least + 1e-12) > 1e-10)
        assert S.is_valid(c) == (least >= -1e-12)


@settings(max_examples=60)
@given(bd_states())
def test_marginals_maximally_mixed(s):
    rho = bd_to_density(s)
    assert np.allclose(partial_trace(rho, "A"), np.eye(2) / 2, atol=1e-12)
    assert np.allclose(partial_trace(rho, "B"), np.eye(2) / 2, atol=1e-12)
    # the correlations round-trip: tr(rho sigma_j x sigma_j) = c_j
    cs = tuple(np.trace(rho @ np.kron(PAULI[j], PAULI[j])).real for j in (1, 2, 3))
    assert cs == pytest.approx(s.as_tuple(), abs=1e-12)


@settings(max_examples=60)
@given(bd_states())
def test_spectrum_consistency(s):
    closed = np.sort(S.bell_eigenvalues(s))
    lapack = np.sort(hermitian_eigenvalues(bd_to_density(s)))
    assert np.max(np.abs(closed - lapack)) < 1e-10


class TestParseLiteral:
    def test_fig_state(self):
        c = S.parse_state_literal("bd:-0.5,0.4,0.8")
        assert type(c) is np.ndarray and c.dtype == np.float64 and c.shape == (3,)
        assert c.tolist() == [-0.5, 0.4, 0.8]

    @pytest.mark.parametrize(
        "bad",
        ["-0.5,0.4,0.8", "bd:1,2", "bd:a,b,c", "bd:1,1,1", "bd:0.1,0.2,0.3,0.4", "bd:nan,0,0"],
    )
    def test_rejects(self, bad):
        with pytest.raises(DomainError):
            S.parse_state_literal(bad)


class TestStateRecord:
    """BellDiagonalState is an immutable named tuple of (c1, c2, c3)."""

    S0 = S.BellDiagonalState(0.1, 0.2, 0.3)

    def test_iteration_unpacking_and_len(self):
        assert list(self.S0) == [0.1, 0.2, 0.3]
        c1, c2, c3 = self.S0
        assert (c1, c2, c3) == (0.1, 0.2, 0.3) and len(self.S0) == 3
        assert tuple(self.S0) == (0.1, 0.2, 0.3) and type(self.S0.as_tuple()) is tuple
        assert (self.S0.c1, self.S0.c2, self.S0.c3) == (0.1, 0.2, 0.3)

    @pytest.mark.parametrize(
        "index",
        [0, 1, 2, 3, 4, -1, -3, -4, np.int64(2), True, False, 1.0, "1", None,
         slice(None, 2), slice(1, 3), slice(None)],
        ids=repr,
    )
    def test_indexes_like_the_plain_tuple(self, index):
        plain = (0.1, 0.2, 0.3)
        try:
            want = plain[index]
        except (IndexError, TypeError) as exc:
            with pytest.raises(type(exc)):
                self.S0[index]
        else:
            got = self.S0[index]
            assert got == want and type(got) is type(want)

    def test_numpy_conversion(self):
        assert np.array(self.S0).tolist() == [0.1, 0.2, 0.3]
        both = np.array([self.S0, S.BellDiagonalState(-1.0, 1.0, 1.0)])
        assert both.tolist() == [[0.1, 0.2, 0.3], [-1.0, 1.0, 1.0]]

    def test_repr(self):
        assert repr(self.S0) == "BellDiagonalState(c1=0.1, c2=0.2, c3=0.3)"

    def test_equality_and_hash(self):
        same = S.BellDiagonalState(0.1, 0.2, 0.3)
        assert same == self.S0 and hash(same) == hash(self.S0)
        assert S.BellDiagonalState(0.1, 0.2, 0.4) != self.S0
        assert len({same, self.S0, S.BellDiagonalState(0.3, 0.2, 0.1)}) == 2
        # a state compares equal to the plain tuple of its coefficients
        assert self.S0 == (0.1, 0.2, 0.3) and hash(self.S0) == hash((0.1, 0.2, 0.3))

    def test_pickle_round_trip(self):
        back = pickle.loads(pickle.dumps(self.S0))
        assert back == self.S0 and type(back) is S.BellDiagonalState

    def test_immutable(self):
        with pytest.raises(AttributeError):
            self.S0.c1 = 0.5
        assert self.S0.c1 == 0.1


def test_random_bd_states_reproducible():
    rng_a, rng_b = np.random.default_rng(42), np.random.default_rng(42)
    a = S.random_bd_states(20, rng_a)
    b = S.random_bd_states(np.int64(20), rng_b)
    assert a.tobytes() == b.tobytes()
    assert rng_a.uniform() == rng_b.uniform()  # the same stream after the draws
    assert all(S.is_valid(s) for s in a)
    empty = S.random_bd_states(0, rng_a)
    assert empty.shape == (0, 3) and empty.dtype == np.float64


# sha256 of the 5000 states' bytes, and the PCG64 state word after the draws;
# seeded test data depends on this stream
RANDOM_STATES_PINS = {
    0: ("23196a50ca40505f2a2f20c3c7a78855754b8854964b860c3a2a7d5385efaa5d",
        318513303444087525909301295680150207116),
    7: ("d3d70bab19d42f8a3ca2f7d7d622391afaca7b5b01cc978a794254c432a0f56f",
        35675370313698889089847293795400469259),
    123: ("cb84db0e79315a8e6b8f74d055ba43bbbe69bef6b87c182e7de066ffc5865a17",
          309756713283393362641688133210189014806),
}


@pytest.mark.parametrize("seed", RANDOM_STATES_PINS)
def test_random_bd_states_stream_pinned(seed):
    rng = np.random.default_rng(seed)
    states = S.random_bd_states(5000, rng)
    digest, after = RANDOM_STATES_PINS[seed]
    assert states.shape == (5000, 3) and states.dtype == np.float64
    assert states.flags.c_contiguous and states.flags.owndata
    assert hashlib.sha256(states.tobytes()).hexdigest() == digest
    assert rng.bit_generator.state["state"]["state"] == after


@pytest.mark.parametrize("n", [0, 1, 2, 7, 2000])
def test_random_bd_states_is_one_float_array(n):
    # an (n, 3) C-contiguous float64 array whose rows are in the tetrahedron,
    # with the rows a one-state-a-time draw would give
    states = S.random_bd_states(n, np.random.default_rng(n))
    assert type(states) is np.ndarray and states.dtype == np.float64
    assert states.shape == (n, 3) and states.flags.c_contiguous
    assert bool(np.all(S.is_valid(states)))
    rng, rows = np.random.default_rng(n), []
    while len(rows) < n:
        c = rng.uniform(-1.0, 1.0, size=3)
        if S.is_valid(c):
            rows.append(c)
    assert states.tobytes() == np.array(rows, dtype=float).reshape(-1, 3).tobytes()


@pytest.mark.parametrize("n", [-3, 2.5, 3.0, np.float64(3.0), "3", None, True, False], ids=repr)
def test_random_bd_states_rejects_bad_counts(n):
    with pytest.raises(DomainError, match="n must be an integer >= 0"):
        S.random_bd_states(n, np.random.default_rng(42))
