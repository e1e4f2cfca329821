import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eurnoise import linalg as L
from eurnoise import oracles as O
from eurnoise.oracles import bd_to_density
from eurnoise.states import BellDiagonalState

from conftest import hermitian_4x4

# frozen oracle values: direct evaluation of the defining formulas
H_BIN_09 = -0.9 * np.log2(0.9) - 0.1 * np.log2(0.1)  # 0.4689955935892812
SHANNON_FIG = -sum(p * np.log2(p) for p in (0.225, 0.675, 0.025, 0.075))


class TestBinaryEntropy:
    def test_half_is_one(self):
        assert L.binary_entropy(0.5) == 1.0

    def test_zero_convention(self):
        assert L.binary_entropy(0.0) == 0.0
        assert L.binary_entropy(1.0) == 0.0

    def test_oracle_09(self):
        assert L.binary_entropy(0.9) == pytest.approx(H_BIN_09, abs=1e-15)
        assert L.binary_entropy(0.9) == pytest.approx(0.4690, abs=1e-4)

    def test_domain_error(self):
        with pytest.raises(L.DomainError):
            L.binary_entropy(1.1)
        with pytest.raises(L.DomainError):
            L.binary_entropy(-0.01)

    def test_clamping_window(self):
        assert L.binary_entropy(1 + 1e-13) == 0.0

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_symmetry(self, p):
        # exact symmetry whenever p and 1-p are exact float complements
        assume(1.0 - (1.0 - p) == p)
        assert L.binary_entropy(p) == L.binary_entropy(1.0 - p)


class TestShannonEntropy:
    def test_pure(self):
        assert L.shannon_entropy([1, 0, 0, 0]) == 0.0

    def test_uniform(self):
        assert L.shannon_entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-15)

    def test_fig_spectrum(self):
        assert L.shannon_entropy([0.225, 0.675, 0.025, 0.075]) == pytest.approx(
            SHANNON_FIG, abs=1e-14
        )
        assert SHANNON_FIG == pytest.approx(1.2803, abs=1e-4)

    def test_invalid(self):
        with pytest.raises(L.DomainError):
            L.shannon_entropy([0.5, 0.6])
        with pytest.raises(L.DomainError):
            L.shannon_entropy([1.2, -0.2])


class TestEntropyEdgeCases:
    def test_binary_nan_rejected(self):
        with pytest.raises(L.DomainError):
            L.binary_entropy(float("nan"))

    def test_shannon_nan_rejected(self):
        with pytest.raises(L.DomainError):
            L.shannon_entropy([float("nan"), 1.0])

    def test_pure_distribution_is_positive_zero(self):
        for h in (L.shannon_entropy([1, 0]), L.shannon_entropy([0, 1, 0]), L.binary_entropy(1.0)):
            assert h == 0.0 and np.copysign(1.0, h) == 1.0

    def test_binary_broadcasts(self):
        p = np.array([[0.0, 0.1], [0.5, 0.9]])
        out = L.binary_entropy(p)
        assert out.shape == (2, 2)
        assert out.tolist() == [[L.binary_entropy(x) for x in row] for row in p.tolist()]
        assert isinstance(L.binary_entropy(0.3), float)

    def test_shannon_reduces_last_axis(self):
        p = np.array([[0.25] * 4, [1.0, 0.0, 0.0, 0.0], [0.225, 0.675, 0.025, 0.075]])
        out = L.shannon_entropy(p)
        assert out.shape == (3,)
        assert out.tolist() == [L.shannon_entropy(row) for row in p]
        assert isinstance(L.shannon_entropy([0.5, 0.5]), float)

    def test_broadcast_rejects_any_bad_row(self):
        with pytest.raises(L.DomainError):
            L.shannon_entropy(np.array([[0.5, 0.5], [0.5, 0.6]]))
        with pytest.raises(L.DomainError):
            L.binary_entropy(np.array([0.2, 1.5]))


BINARY_BAD = [np.nan, np.inf, -np.inf, -0.5, 1.5, -1e-3, 1.25]
SHANNON_BAD = [np.nan, np.inf, -np.inf, -0.5, -1e-3]


def mixed_inputs(bad_pool, shape, rng, trials=40):
    """Arrays of `shape` mixing good entries with one or more drawn from
    bad_pool, each with the value the error must name: the first bad entry in
    row-major order."""
    n = int(np.prod(shape))
    for _ in range(trials):
        x = rng.uniform(0.0, 1.0, size=n)
        where = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
        x[where] = rng.choice(bad_pool, size=where.size)
        yield x.reshape(shape), float(x[where.min()])


class TestEntropyNamesFirstBadValue:
    """The in-range fast path must not change which value an error names."""

    @pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
    def test_binary(self, shape):
        rng = np.random.default_rng(sum(shape) + 1)
        for x, first in mixed_inputs(BINARY_BAD, shape, rng):
            with pytest.raises(L.DomainError) as info:
                L.binary_entropy(x)
            assert str(info.value) == f"binary entropy argument {first} outside [0, 1]"

    @pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
    def test_shannon(self, shape):
        rng = np.random.default_rng(sum(shape) + 2)
        for x, first in mixed_inputs(SHANNON_BAD, shape, rng):
            with pytest.raises(L.DomainError) as info:
                L.shannon_entropy(x)
            assert str(info.value) == f"probability {first} is negative or not finite"

    def test_shannon_names_first_bad_sum(self):
        p = np.array([[0.5, 0.5], [0.5, 0.6], [0.1, 0.2]])
        with pytest.raises(L.DomainError, match="sum to 1.1, not 1"):
            L.shannon_entropy(p)

    def test_clamp_window_accepted(self):
        assert L.binary_entropy(np.array([-1e-12, 1 + 1e-12])).tolist() == [0.0, 0.0]
        assert L.shannon_entropy([-1e-12, 1.0]) == 0.0

    def test_empty_input(self):
        assert L.binary_entropy(np.array([])).shape == (0,)
        assert L.binary_entropy(np.empty((2, 0))).shape == (2, 0)
        assert L.shannon_entropy(np.empty((0, 4))).shape == (0,)
        with pytest.raises(L.DomainError, match="sum to 0.0"):
            L.shannon_entropy([])


class TestHermitianEigenvalues:
    def test_identity(self):
        assert np.allclose(O.hermitian_eigenvalues(np.eye(4)), np.ones(4))

    def test_diagonal_2x2(self):
        assert np.allclose(O.hermitian_eigenvalues(np.diag([0.3, 0.7])), [0.7, 0.3])

    def test_bell_diagonal_spectrum(self):
        rho = bd_to_density(BellDiagonalState(-0.5, 0.4, 0.8))
        ev = O.hermitian_eigenvalues(rho)
        assert np.allclose(ev, [0.675, 0.225, 0.075, 0.025], atol=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(L.DomainError):
            O.hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))

    @settings(max_examples=50)
    @given(hermitian_4x4())
    def test_against_numpy(self, m):
        # independent oracle: LAPACK via numpy
        ours = O.hermitian_eigenvalues(m)
        ref = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert np.max(np.abs(ours - ref)) < 1e-9

    @settings(max_examples=50)
    @given(hermitian_4x4())
    def test_trace_sum(self, m):
        assert np.sum(O.hermitian_eigenvalues(m)) == pytest.approx(
            np.trace(m).real, abs=1e-10
        )

    @settings(max_examples=30)
    @given(hermitian_4x4(), hermitian_4x4())
    def test_spectrum_unitary_invariance(self, m, h):
        _, u = np.linalg.eigh(h)
        rotated = u @ m @ u.conj().T
        rotated = (rotated + rotated.conj().T) / 2
        assert np.allclose(
            O.hermitian_eigenvalues(m), O.hermitian_eigenvalues(rotated), atol=1e-9
        )


class TestVonNeumannEntropy:
    def test_pure_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        assert O.von_neumann_entropy(rho) == 0.0

    def test_maximally_mixed(self):
        assert O.von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)

    def test_bell_diagonal(self):
        rho = bd_to_density(BellDiagonalState(-0.5, 0.4, 0.8))
        assert O.von_neumann_entropy(rho) == pytest.approx(SHANNON_FIG, abs=1e-10)

    def test_trace_check(self):
        with pytest.raises(L.DomainError):
            O.von_neumann_entropy(np.eye(4))


class TestTensorAndPartialTrace:
    def test_identity_product(self):
        assert np.array_equal(O.tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma3_product(self):
        z = O.PAULI[3]
        assert np.allclose(O.tensor_product(z, z), np.diag([1, -1, -1, 1]))

    def test_sigma1_product(self):
        x = O.PAULI[1]
        expected = np.fliplr(np.eye(4))
        assert np.allclose(O.tensor_product(x, x), expected)

    def test_dimension_mismatch(self):
        with pytest.raises(L.DomainError):
            O.tensor_product(np.eye(2), np.eye(4))

    def test_product_state_marginals(self):
        rho_a = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
        rho_b = np.array([[0.6, 0.2j], [-0.2j, 0.4]], dtype=complex)
        joint = np.kron(rho_a, rho_b)
        assert np.allclose(O.partial_trace(joint, "A"), rho_a, atol=1e-14)
        assert np.allclose(O.partial_trace(joint, "B"), rho_b, atol=1e-14)

    def test_bell_state_marginal(self):
        rho = bd_to_density(BellDiagonalState(-1, 1, 1))
        assert np.allclose(O.partial_trace(rho, "B"), np.eye(2) / 2, atol=1e-14)

    def test_partial_trace_scales_by_trace(self):
        a = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
        b = 2.0 * np.eye(2, dtype=complex)
        assert np.allclose(O.partial_trace(np.kron(a, b), "A"), a * 4.0, atol=1e-12)

    def test_entropy_additivity_on_products(self):
        rho_a = np.diag([0.7, 0.3]).astype(complex)
        rho_b = np.diag([0.9, 0.1]).astype(complex)
        joint = np.kron(rho_a, rho_b)
        s_sum = L.shannon_entropy([0.7, 0.3]) + L.shannon_entropy([0.9, 0.1])
        assert O.von_neumann_entropy(joint) == pytest.approx(s_sum, abs=1e-9)
