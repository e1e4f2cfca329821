import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eurnoise import linalg as L
from eurnoise import oracles as O
from eurnoise.oracles import bd_to_density
from eurnoise.channels import ChannelSpec
from eurnoise.metrics import pauli_pair, spmc_holds
from eurnoise.scenarios import SweepConfig, classify_longtime_ad, csv_body
from eurnoise.states import BellDiagonalState, check_bd, check_one_bd, is_valid

from conftest import LAYOUTS, hermitian_4x4, laid_out

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


def _pd_sweep(**kw):
    args = dict(initial=(0.1, 0.2, 0.3), channel=ChannelSpec("pd"), pair=pauli_pair(1, 3))
    return SweepConfig(**{**args, **kw})


# each float conversion on the sweep path, on input that is not real numbers: a str or bytes,
# numeric or not, a complex entry or array, None, a ragged list
NON_REAL = {
    "check_bd_str": lambda: check_bd("abc"),
    "check_bd_complex": lambda: check_bd([0.1j, 0, 0]),
    "check_bd_ragged": lambda: check_bd([[0.1, 0.2, 0.3], [0.1, 0.2]]),
    "check_one_bd_str": lambda: check_one_bd("c1,c2,c3"),
    "is_valid_ragged": lambda: is_valid([[0.1, 0.2, 0.3], [0.1]]),
    "sweep_state_str": lambda: _pd_sweep(initial="abc"),
    "sweep_state_complex": lambda: _pd_sweep(initial=[0.1, 0.2, 0.3j]),
    "sweep_t_start_str": lambda: _pd_sweep(t_start="abc"),
    "sweep_t_end_complex": lambda: _pd_sweep(t_end=1j),
    "evolve_strength_str": lambda: ChannelSpec("ad").evolve((0.1, 0.2, 0.3), "x"),
    "evolve_strength_complex": lambda: ChannelSpec("pd").evolve((0.1, 0.2, 0.3), [0.5j]),
    "check_ragged": lambda: ChannelSpec("flip", 1).check([[0.1], [0.1, 0.2]]),
    "binary_str": lambda: L.binary_entropy("a"),
    "binary_complex": lambda: L.binary_entropy([0.5, 0.5j]),
    "shannon_complex": lambda: L.shannon_entropy([0.5 + 0j, 0.5]),
    "shannon_ragged": lambda: L.shannon_entropy([[0.5, 0.5], [1.0]]),
    # numeric text and complex arrays, which a float conversion reads as numbers
    "check_bd_numeric_str": lambda: check_bd(["0.1", "0.2", "0.3"]),
    "check_bd_numeric_bytes": lambda: check_bd([b"0.1", b"0.2", b"0.3"]),
    "check_bd_one_numeric_str": lambda: check_bd([[0.1, 0.2, 0.3], [0.1, "0.2", 0.3]]),
    "check_bd_complex_array": lambda: check_bd(np.array([0.1 + 1j, 0.2, 0.3])),
    "check_bd_real_complex_array": lambda: check_bd(np.zeros(3, dtype=complex)),
    "check_bd_none": lambda: check_bd([0.1, None, 0.3]),
    "sweep_state_numeric_str": lambda: _pd_sweep(initial=("0.1", "0.2", "0.3")),
    "sweep_t_end_numeric_str": lambda: _pd_sweep(t_end="1"),
    "evolve_strength_numeric_bytes": lambda: ChannelSpec("ad").evolve((0.1, 0.2, 0.3), b"0.5"),
    "binary_numeric_str": lambda: L.binary_entropy("0.5"),
    "binary_complex_scalar": lambda: L.binary_entropy(np.complex128(0.5)),
    "shannon_numeric_str": lambda: L.shannon_entropy(["0.5", "0.5"]),
    "shannon_complex_array": lambda: L.shannon_entropy(np.array([[0.5, 0.5j], [0.5, 0.5]])),
}

# numbers past FLOAT_MAX that numpy keeps as objects, by the name the rule gives them; a
# float conversion raised Python's OverflowError: int too large to convert to float
TOO_LARGE = {
    "check_bd": (lambda: check_bd([10**400, 0, 0]), "correlations"),
    "evolve_strength": (lambda: ChannelSpec("ad").evolve((0.1, 0.2, 0.3), 10**400), "ad strength"),
    "spmc_tol": (lambda: spmc_holds((0.1, 0.2, 0.3), pauli_pair(1, 2), 10**400), "tol"),
    "classify": (lambda: classify_longtime_ad([10**400, 0, 0]), "correlations"),
    "csv_body": (lambda: csv_body([[10**400, 1.0]]), "CSV cells"),
    "negative_int": (lambda: L.binary_entropy([-(10**400)]), "binary entropy argument"),
    "fraction": (lambda: L.shannon_entropy([Fraction(10**400, 3), 0]), "probabilities"),
}


class TestNonRealInput:
    """One rule, linalg.as_real, turns every float conversion on the sweep path into a
    DomainError for input that is not real numbers, at any nesting, including numeric text
    and complex arrays, which a float conversion would read as numbers."""

    @pytest.mark.parametrize("call", NON_REAL.values(), ids=NON_REAL.keys())
    def test_raises_domain_error(self, call):
        with pytest.raises(L.DomainError, match="must be real numbers"):
            call()

    @pytest.mark.parametrize(
        "x",
        [0.5, [0.25, 0.75], np.float32(0.5), np.array([1, 0]), True, [True, 0.5], np.uint8(3),
         2**70, [Fraction(1, 2), 1], np.array([0.5, 0.25], dtype=">f8")],
    )
    def test_real_input_passes_as_float(self, x):
        a = L.as_real(x, "x")
        assert a.dtype == np.float64 and a.tolist() == np.asarray(x, dtype=float).tolist()

    @pytest.mark.parametrize("call, name", TOO_LARGE.values(), ids=TOO_LARGE.keys())
    def test_a_number_past_the_float_range_raises_domain_error(self, call, name):
        with pytest.raises(L.DomainError) as info:
            call()
        assert str(info.value) == f"{name} must be real numbers within the float range"

    def test_an_array_is_returned_as_it_is_unless_a_copy_is_asked_for(self):
        x = np.array([0.1, 0.2, 0.3])
        assert L.as_real(x, "x") is x
        copy = L.as_real(x, "x", copy=True)
        assert copy is not x and copy.tolist() == x.tolist()


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


class TestShannonOverflow:
    """Entries near FLOAT_MAX sum to inf: a bad sum, named as such, with no
    overflow warning on the way, whether or not warnings are errors."""

    @pytest.mark.parametrize(
        "p", [[1e308, 1e308], [[0.5, 0.5], [1e308, 1e308]], [[1e308, 1e308, -1e-12]]], ids=repr
    )
    @pytest.mark.parametrize("action", ["error", "always"])
    def test_sum_to_inf_is_a_domain_error(self, p, action):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            with pytest.raises(L.DomainError) as info:
                L.shannon_entropy(np.array(p))
        assert str(info.value) == "probabilities sum to inf, not 1"
        assert caught == []


# ---- the reference: binary_entropy and shannon_entropy as written before
# each took its one-test fast path; every input must give the same bits or
# the same error. The reference sums under errstate(over="ignore"), because
# as written it let a sum overflow with a RuntimeWarning.


def _ref_first_outside(x, lo, hi):
    if x.size == 0 or (x.min() >= lo and x.max() <= hi):
        return None
    return x[~((x >= lo) & (x <= hi))].flat[0]


def _ref_entropy_bits(p):
    h = 0.0 - (p * np.log2(np.maximum(p, 5e-324))).sum(axis=-1)
    return float(h) if h.ndim == 0 else h


def _ref_binary_entropy(p):
    p = np.asarray(p, dtype=float)
    bad = _ref_first_outside(p, -1e-12, 1 + 1e-12)
    if bad is not None:
        raise L.DomainError(f"binary entropy argument {bad} outside [0, 1]")
    p = np.minimum(np.maximum(p, 0.0), 1.0)
    return _ref_entropy_bits(np.stack([p, 1.0 - p], axis=-1))


def _ref_shannon_entropy(p):
    p = np.asarray(p, dtype=float)
    bad = _ref_first_outside(p, -1e-12, L.FLOAT_MAX)
    if bad is not None:
        raise L.DomainError(f"probability {bad} is negative or not finite")
    with np.errstate(over="ignore"):
        total = p.sum(axis=-1)
    off = np.abs(total - 1.0) > 1e-9
    if off.any():
        raise L.DomainError(f"probabilities sum to {total[off].flat[0]}, not 1")
    return _ref_entropy_bits(np.maximum(p, 0.0))


def _outcome(kernel, p):
    """(type, dtype, shape, bytes) of the result, or (type, message) of the error."""
    try:
        h = kernel(p)
    except Exception as exc:  # a RuntimeWarning raised as an error included
        return type(exc), str(exc)
    out = np.asarray(h)
    return type(h), out.dtype, out.shape, out.tobytes()


def _checked(kernel, p):
    """The kernel's outcome with every warning raised as an error; p comes back unchanged."""
    before = p.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcome = _outcome(kernel, p)
    assert p.tobytes() == before.tobytes()
    return outcome


def _around(*xs, ulps=2):
    """Each x and its neighbours up to `ulps` floats away on either side."""
    out = []
    for x in xs:
        lo = hi = x
        for _ in range(ulps):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            out += [float(lo), float(hi)]
        out.append(x)
    return out


# the windows' edges to the ulp, the pure-state ends, non-finite values and -0.0
EDGE_ENTRIES = _around(-1e-12, 1 + 1e-12, 0.0, 1.0) + [
    -0.0, np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324, 0.5,
]
entry = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from(EDGE_ENTRIES),
    st.floats(allow_nan=True, allow_infinity=True),
)
# last axes up to 7 long: numpy's own sum adds 2 to 7 entries left to right, in any layout
shapes = st.one_of(
    st.just(()),
    st.tuples(st.integers(0, 7)),
    st.tuples(st.integers(0, 4), st.integers(0, 7)),
    st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 7)),
)
# sums at 1 and at the 1 +- 1e-9 edges, give or take a few ulps
SUM_TARGETS = _around(1.0, 1.0 + 1e-9, 1.0 - 1e-9, ulps=4)


mixed_arrays = arrays(np.float64, shapes, elements=entry)


row_shapes = st.one_of(  # no zero-size axis
    st.tuples(st.integers(1, 7)),
    st.tuples(st.integers(1, 4), st.integers(1, 7)),
    st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(1, 7)),
)
# entries within 4 ulps of 0 (-0.0 and negative subnormals included) and of 1
NEAR_0 = _around(0.0, ulps=4) + [-0.0]
NEAR_1 = _around(1.0, ulps=4)
# the ordered path accepts an entry just above 1 beside one just below 0
ABOVE_1 = st.floats(1.0, 1.0 + 1e-9, exclude_min=True)
BELOW_0 = st.floats(-1e-12, 0.0, exclude_max=True)


@st.composite
def straddling_rows(draw):
    """Rows at the edges of the fast test (entries in [0, 1], rows summing to
    within 1e-9 of 1): near-0 entries, with one near-1 entry or one in
    (1, 1 + 1e-9] beside a companion in [-1e-12, 0), at drawn columns."""
    shape = draw(row_shapes)
    p = draw(arrays(np.float64, shape, elements=st.sampled_from(NEAR_0)))
    j = draw(st.integers(0, shape[-1] - 1))
    if shape[-1] > 1 and draw(st.booleans()):
        p[..., j] = draw(arrays(np.float64, shape[:-1], elements=ABOVE_1))
        p[..., j - 1] = draw(arrays(np.float64, shape[:-1], elements=BELOW_0))
    else:
        p[..., j] = draw(arrays(np.float64, shape[:-1], elements=st.sampled_from(NEAR_1)))
    return p


unit_edge_arrays = arrays(np.float64, shapes, elements=st.sampled_from(NEAR_0 + NEAR_1))


@st.composite
def near_sum_rows(draw):
    """Rows of non-negative entries whose last entry is set so that each row
    sums to a drawn target, to within the rounding of the sum."""
    shape = draw(row_shapes)
    p = draw(arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))
    p = p / np.maximum(p.sum(axis=-1, keepdims=True), 1.0) / 2
    targets = draw(arrays(np.float64, shape[:-1], elements=st.sampled_from(SUM_TARGETS)))
    p[..., -1] = targets - p[..., :-1].sum(axis=-1)
    return p


class TestEntropyKernelsMatchReference:
    """The one-test fast path and the slot-row sums change no bits and no error:
    the kernels agree with the reference on arrays mixing in-range, edge and
    non-finite entries, and on rows summing to within a few ulps of the 1e-9
    edges, in every layout of ``LAYOUTS`` (the core's block views included)."""

    @settings(max_examples=400, deadline=None)
    @given(mixed_arrays, st.sampled_from(LAYOUTS))
    @example(np.array([-0.0, 0.0, 1.0]), "C")
    @example(np.array([[1 + 1e-12, -1e-12], [0.5, np.nan]]), "C")
    @example(np.array(np.nan), "C")
    @example(np.array([[0.1, 0.2, 0.3, 0.4, 0.5], [1.0, 0.0, 0.5, 0.9, 1e-300]]), "rows")
    def test_binary(self, p, layout):
        p = laid_out(p, layout)
        assert _checked(L.binary_entropy, p) == _outcome(_ref_binary_entropy, p)

    @settings(max_examples=400, deadline=None)
    @given(mixed_arrays, st.sampled_from(LAYOUTS))
    @example(np.array([1e308, 1e308]), "C")
    @example(np.array([np.inf, -np.inf]), "C")
    @example(np.array([[-1e-12, 1.0], [-0.0, 1.0]]), "C")
    @example(np.array(0.5), "C")
    @example(np.array([[0.5, np.nan, 0.5, 0.0, 0.0, 0.0], [0.1, 0.2, 0.3, -0.4, 0.5, 0.3]]), "F")
    def test_shannon(self, p, layout):
        p = laid_out(p, layout)
        assert _checked(L.shannon_entropy, p) == _outcome(_ref_shannon_entropy, p)

    @settings(max_examples=400, deadline=None)
    @given(near_sum_rows(), st.sampled_from(LAYOUTS))
    @example(np.full((3, 7), 1 / 7), "rows")
    @example(np.array([[0.1, 0.2, 0.05, 0.15, 0.3, 0.2], [1.0, 0, 0, 0, 0, 0]]), "strided")
    def test_shannon_at_the_sum_edges(self, p, layout):
        p = laid_out(p, layout)
        assert _checked(L.shannon_entropy, p) == _outcome(_ref_shannon_entropy, p)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(straddling_rows(), unit_edge_arrays), st.sampled_from(LAYOUTS))
    @example(np.array([1.0 + 1e-9, -1e-12]), "C")
    @example(np.array([[-1e-12, 0.0, np.nextafter(1.0, 2.0)], [-0.0, 5e-324, 1.0]]), "C")
    @example(np.array([-5e-324, 1.0, -0.0]), "C")
    @example(np.array([[-1e-12, 0.0, 0.0, 0.0, 0.0, -0.0, 1.0 + 1e-12]] * 2), "rows")
    def test_shannon_at_the_unit_edges(self, p, layout):
        p = laid_out(p, layout)
        assert _checked(L.shannon_entropy, p) == _outcome(_ref_shannon_entropy, p)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(straddling_rows(), unit_edge_arrays), st.sampled_from(LAYOUTS))
    @example(np.array([1.0 + 1e-9, -1e-12]), "C")
    @example(np.array([-0.0, -5e-324, np.nextafter(1.0, 2.0)]), "C")
    @example(np.array([[1.0 + 1e-12, -0.0, 5e-324, 0.5, 1.0]] * 3), "strided")
    def test_binary_at_the_unit_edges(self, p, layout):
        p = laid_out(p, layout)
        assert _checked(L.binary_entropy, p) == _outcome(_ref_binary_entropy, p)


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
