import contextlib
import inspect
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eurnoise import linalg as L
from eurnoise import oracles as O
from eurnoise import states as S
from eurnoise.oracles import bd_to_density
from eurnoise.channels import ChannelSpec
from eurnoise.metrics import minimal_missing_info_bruteforce, pauli_pair, spmc_holds
from eurnoise.scenarios import SweepConfig, classify_longtime_ad, csv_body
from eurnoise.scenarios import property_check_unital, sample_spmc_surface
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
    args = dict(initial=(0.1, 0.2, 0.3), channel=ChannelSpec("pd"), pair=pauli_pair(1, 3),
                t_start=0.0, t_end=10.0, n_points=201, spacing="linear")
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

    def test_an_array_is_returned_as_it_is(self):
        x = np.array([0.1, 0.2, 0.3])
        assert L.as_real(x, "x") is x

    def test_takes_the_input_and_its_name_only(self):
        # no copy mode: a caller that keeps the array copies it
        params = inspect.signature(L.as_real).parameters
        assert list(params) == ["x", "name"]
        assert all(p.default is p.empty for p in params.values())


# each entry point that sizes arrays by a count, with a count whose largest array numpy
# cannot address (so numpy refuses it without allocating), and the name of the count
UNADDRESSABLE = {
    "sweep_points_1e20": (lambda: _pd_sweep(n_points=10**20), "n_points"),
    "sweep_points_2_63": (lambda: _pd_sweep(n_points=2**63), "n_points"),
    "surface": (lambda: sample_spmc_surface(pauli_pair(1, 3), 10**20), "resolution"),
    "random_bd_states": (lambda: S.random_bd_states(2**61, np.random.default_rng(0)), "n"),
    "unital_trials": (lambda: property_check_unital(10**20, 1), "n_trials"),
    "bruteforce_theta": (lambda: minimal_missing_info_bruteforce(np.eye(4) / 4, (10**20, 64)),
                         "grid points per angle"),
    "bruteforce_xi": (lambda: minimal_missing_info_bruteforce(np.eye(4) / 4, (64, 10**20)),
                      "grid points per angle"),
}


class TestCountUpperEnd:
    """A count whose largest array numpy cannot address raises DomainError naming the count,
    before anything is allocated; numpy itself raises ValueError or IndexError for it."""

    @pytest.mark.parametrize("call, name", UNADDRESSABLE.values(), ids=UNADDRESSABLE.keys())
    def test_each_entry_point_refuses_it(self, call, name):
        with pytest.raises(L.DomainError) as info:
            call()
        assert str(info.value).startswith(f"{name} must be at most ")
        assert str(info.value).endswith(": numpy cannot address a larger array")

    def test_the_upper_end_is_inclusive(self):
        L.check_count(5, "n", 0, 5)
        L.check_count(np.int8(5), "n", 0, 10**30)
        with pytest.raises(L.DomainError) as info:
            L.check_count(6, "n", 0, 5)
        assert str(info.value) == "n must be at most 5: numpy cannot address a larger array"

    def test_the_message_leaves_the_count_out(self):
        # str() of an int past 4300 digits raises ValueError itself
        with pytest.raises(L.DomainError, match="n must be at most 5"):
            L.check_count(10**5000, "n", 0, 5)

    def test_max_floats_is_numpy_s_reach(self):
        assert L.MAX_FLOATS * 8 <= np.iinfo(np.intp).max < (L.MAX_FLOATS + 1) * 8
        with pytest.raises(ValueError, match="array is too big"):
            np.empty(L.MAX_FLOATS + 1)  # one float past it: refused without allocating


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
# each took its one-test fast path, with Shannon's ordered path clamped to
# [0, 1] as binary's is; every input must give the same bits or the same error.
# The reference sums under errstate(over="ignore"), because as written it let
# a sum overflow with a RuntimeWarning.


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
    return _ref_entropy_bits(np.minimum(np.maximum(p, 0.0), 1.0))


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


# ---- the two paths of the fast tests: at most _FEW entries are decided in Python
# floats, more by numpy reductions. Forcing the numpy path on a tiny array must change
# no decision, no returned bit, no message and no warning.

FEW = L._FEW


@contextlib.contextmanager
def numpy_path():
    """Every array takes the numpy reductions, as arrays above _FEW entries do."""
    saved = L._FEW, S._FEW
    L._FEW = S._FEW = -1
    try:
        yield
    finally:
        L._FEW, S._FEW = saved


def _decided(check, p, action):
    """check(p)'s decision: whether it returned p itself, and the (type, dtype, shape,
    bytes) or repr of what it returned, or the (type, message) of what it raised, with the
    (category, message) of every warning; under action "error" a warning is what it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        try:
            h = check(p)
        except Exception as exc:
            outcome = type(exc), str(exc)
        else:
            a = np.asarray(h)
            outcome = h is p, type(h), repr(h) if a.ndim == 0 else (a.dtype, a.shape, a.tobytes())
    return outcome, [(w.category, str(w.message)) for w in caught]


def _both_paths(check, p, action="error"):
    """check's decision on p by the path p's size takes, and by the numpy path."""
    before = p.tobytes()
    few = _decided(check, p, action)
    with numpy_path():
        reductions = _decided(check, p, action)
    assert p.tobytes() == before
    return few, reductions


# the edges of every window: -0.0, 0 and 1 (each +- 1 ulp, so the least subnormal too),
# -1e-12 +- 1 ulp, NaN, the infinities and 1e308
FEW_EDGES = [-0.0, *_around(0.0, 1.0, -1e-12, ulps=1), np.nan, np.inf, -np.inf, 1e308]
FEW_SIZES = st.one_of(st.integers(1, 2 * FEW), st.sampled_from([FEW, FEW + 1]))
few_entry = st.one_of(st.sampled_from(FEW_EDGES), st.floats(0.0, 1.0))


@st.composite
def few_arrays(draw):
    """1 to 2 _FEW entries (_FEW and _FEW + 1 among them) from the edges and [0, 1], as
    (n,) or as rows (n / k, k) of up to 8 entries; rows that sum to 1 now and then."""
    n = draw(FEW_SIZES)
    k = draw(st.sampled_from([n] + [d for d in range(1, 9) if n % d == 0]))
    p = draw(arrays(np.float64, (n,) if k == n else (n // k, k), elements=few_entry))
    if draw(st.booleans()):
        with np.errstate(all="ignore"):
            p = p / p.sum(axis=-1, keepdims=True)
    return p


few_or_edge_rows = st.one_of(few_arrays(), near_sum_rows(), straddling_rows())
# correlations: the pool of the range tests, the tetrahedron's corners to the ulp and
# just past its 1e-12 window, and the cube where every state is inside
CORR_EDGES = FEW_EDGES + _around(-1.0, ulps=1) + [1 + 2e-12, 1 + 8e-12, -1e308, 0.5]
corr_entry = st.one_of(st.sampled_from(CORR_EDGES), st.floats(-1 / 3, 1 / 3))
FEW_STATES = st.one_of(st.integers(1, 2 * FEW // 3 + 1), st.sampled_from([FEW // 3, FEW // 3 + 1]))
few_states = FEW_STATES.flatmap(lambda n: arrays(np.float64, (n, 3), elements=corr_entry))
# a row of 8 that sums to within 1e-9 of 1 left to right but not in numpy's pairwise
# order, which rows of 8 or more take: the row test reads numpy's sum
ROW_OF_8 = [0.008280708921949353, 0.22640868981438092, 0.1616963541518551, 0.09907475405981929,
            0.23689980665261973, 0.0911011942169698, 0.13626287560076544, 0.04027561558164039]
BELL_CORNERS = np.array([[-1, 1, 1], [1, -1, 1], [1, 1, -1], [-1, -1, -1]], dtype=float)


class TestTinyPathMatchesNumpyPath:
    """Up to _FEW entries the fast tests read Python floats; above, numpy reductions.
    On arrays of 1 to 2 _FEW entries drawn from the windows' edges, in every layout,
    both paths give the same decision, the same bits and the same error."""

    @settings(max_examples=300, deadline=None)
    @given(few_or_edge_rows, st.sampled_from(LAYOUTS))
    @example(np.full(FEW, 0.5), "C")
    @example(np.append(np.full(FEW, 0.5), np.nan), "C")
    @example(np.array([[0.25] * 4] * (FEW // 4)), "rows")
    @example(np.array([[0.125] * 8] * 2), "strided")
    @example(np.array(np.nan), "C")
    def test_range_tests(self, p, layout):
        p = laid_out(p, layout)
        for lo, hi in ((0.0, 1.0), (-1e-12, 1 + 1e-12), (-1e-12, L.FLOAT_MAX), (0.0, L.FLOAT_MAX)):
            few, reductions = _both_paths(lambda x: L._first_outside(x, lo, hi), p)
            assert few == reductions
            inside, by_reductions = _both_paths(lambda x: bool(L._within(x, lo, hi)), p)
            assert inside == by_reductions
            assert inside[0][2] == repr(few[0][1] is type(None))  # None iff within
        few, reductions = _both_paths(lambda x: bool(L._in_unit(x)), p)
        assert few == reductions

    @settings(max_examples=300, deadline=None)
    @given(few_or_edge_rows, st.sampled_from(LAYOUTS), st.booleans())
    @example(np.array([1.0 + 1e-9, -1e-12]), "C", True)
    @example(np.array([[0.5, 0.5 + 2e-9], [1.0, -0.0]]), "rows", False)
    @example(np.full((FEW // 4, 4), 0.25), "rows", True)
    @example(np.full((FEW // 4 + 1, 4), 0.25), "rows", False)
    @example(np.array([ROW_OF_8]), "C", False)
    @example(np.array(1.0), "C", False)
    @example(np.array(0.5), "C", True)
    def test_kernel_checks(self, p, layout, into):
        p = laid_out(p, layout)
        for check in (L._check_binary, L._check_distribution):
            few, reductions = _both_paths(
                lambda x: check(x, out=x.copy() if into else None), p)
            assert few == reductions

    @settings(max_examples=300, deadline=None)
    @given(few_states, st.sampled_from(LAYOUTS), st.sampled_from(["error", "always"]))
    @example(BELL_CORNERS, "C", "error")
    @example(np.full((FEW // 3, 3), 0.1), "F", "error")
    @example(np.array([[-1, 1, 1 + 2e-12], [-1, 1, 1 + 8e-12]]), "C", "error")
    @example(np.array([[0.1, 0.2, 0.3], [1e308, 1e308, 1e308]]), "rows", "always")
    def test_check_bd(self, c, layout, action):
        c = laid_out(c, layout)
        for state in (c, c[0]):
            few, reductions = _both_paths(S.check_bd, state, action)
            assert few == reductions
        # the Python-float test passes exactly the states is_valid passes, unless a
        # weight is not finite: those, and more than _FEW entries, go to the array path,
        # which warns as it did; a state that passes the float test builds no array
        with np.errstate(all="ignore"):
            finite = np.isfinite(S._four_weights(c)).all()
            inside = bool(np.all(S.is_valid(c)))
        with mock.patch.object(S, "_four_weights", wraps=S._four_weights) as built:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with contextlib.suppress(L.DomainError):
                    S.check_bd(c)
        assert (not built.called) == (c.size <= FEW and inside and finite)

    # what check_bd raised before it had a Python-float path: numpy's overflow warnings
    # where a weight of finite correlations overflows, the first as an error when warnings
    # are; the one-state weights warn on numpy scalars, the naming of the state on arrays
    @pytest.mark.parametrize("c, warned", [
        ((1e308, 1e308, 1e308), ["scalar add", "scalar subtract", "add", "subtract"]),
        ((-1e308, -1e308, -1e308), ["scalar add", "scalar subtract", "add", "subtract"]),
        ([(1e308, 1e308, 1e308)], ["add", "subtract", "add", "subtract"]),
        ([(0.1, 0.2, 0.3), (1e308, -1e308, 1e308)], ["subtract", "add", "subtract", "add"]),
    ], ids=repr)
    def test_check_bd_overflow_warns_as_before(self, c, warned):
        warned = [f"overflow encountered in {op}" for op in warned]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning) as info:
                S.check_bd(c)
        assert str(info.value) == warned[0]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(L.DomainError) as info:
                S.check_bd(c)
        bad = tuple(np.reshape(c, (-1, 3))[-1].tolist())
        assert str(info.value) == f"state {bad} lies outside the Bell-diagonal tetrahedron"
        assert [str(w.message) for w in caught] == warned

    @pytest.mark.parametrize("c", [(1e308, 0, 0), (np.nan, 0, 0), (np.inf, 0, 0)], ids=repr)
    def test_check_bd_names_a_huge_or_non_finite_state_without_a_warning(self, c):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(L.DomainError) as info:
                S.check_bd(c)
        state = tuple(float(x) for x in c)
        assert str(info.value) == f"state {state} lies outside the Bell-diagonal tetrahedron"

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(near_sum_rows(), few_arrays()), st.sampled_from(LAYOUTS))
    def test_row_fold_is_numpys_sum_below_8(self, p, layout):
        # the fold decides as numpy's add.reduce does because it gives the same bits
        p = laid_out(np.abs(p), layout)
        assume(p.shape[-1] < 8 and np.isfinite(p).all())
        folds = []
        for row in p.reshape(-1, p.shape[-1]).tolist():
            total = 0.0
            for v in row:
                total += v
            folds.append(total)
        with np.errstate(over="ignore"):
            assert np.array(folds).tobytes() == np.add.reduce(p, -1).ravel().tobytes()


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


def _bad_entries(kind, n):
    """An n x n input numpy would read as text, bytes, None or not at all."""
    if kind == "numeric_str":
        return [["1" if i == j == 0 else "0" for j in range(n)] for i in range(n)]
    if kind == "numeric_bytes":
        return [[b"1" if i == j == 0 else b"0" for j in range(n)] for i in range(n)]
    if kind == "none":
        return None
    return [[1.0] + [0.0] * (n - 1)] + [[0.0] * n] * (n - 2) + [[0.0] * (n - 1)]  # ragged


class TestOracleMatrixKinds:
    """The oracles' matrix routes share bd_to_density's kind check: each refuses what
    the runtime refuses before it converts, instead of reading numeric text as numbers."""

    # route: (size of its matrix, the name in its message, the call)
    ROUTES = {
        "_as_matrix": (4, "matrix", O._as_matrix),
        "is_hermitian": (4, "matrix", O.is_hermitian),
        "hermitian_eigenvalues": (2, "matrix", O.hermitian_eigenvalues),
        "von_neumann_entropy": (4, "matrix", O.von_neumann_entropy),
        "partial_trace": (4, "matrix", lambda m: O.partial_trace(m, "B")),
        "conditional_entropy": (4, "matrix", O.conditional_entropy),
        "tensor_product_a": (2, "matrix", lambda m: O.tensor_product(m, np.eye(2))),
        "tensor_product_b": (2, "matrix", lambda m: O.tensor_product(np.eye(2), m)),
        "apply_local_A": (4, "density", lambda m: O.apply_local_A(O.make_phase_damping(0.5), m)),
        "post_measurement_state": (4, "density", lambda m: O.post_measurement_state(m, 3)),
        "concurrence": (4, "density", O.concurrence),
    }

    @pytest.mark.parametrize("kind", ["numeric_str", "numeric_bytes", "none", "ragged"])
    @pytest.mark.parametrize("route", ROUTES)
    def test_refuses_what_is_not_a_number(self, route, kind):
        n, name, call = self.ROUTES[route]
        m = _bad_entries(kind, n)
        with pytest.raises(L.DomainError) as info:
            call(m)
        assert str(info.value) == f"{name} must be real or complex numbers, got {m!r}"

    @pytest.mark.parametrize("route", ["apply_local_A", "post_measurement_state", "concurrence"])
    def test_a_density_must_be_4x4(self, route):
        # the shape rule of partial_trace, shared; numpy's matmul error before it
        _, _, call = self.ROUTES[route]
        for m in (np.eye(2) / 2, np.full(4, 0.25), np.eye(4)[..., None] / 4, 0.5):
            with pytest.raises(L.DomainError) as info:
                call(m)
            assert str(info.value) == f"expected a 4x4 matrix, got shape {np.shape(m)}"

    def test_partial_trace_names_the_shape_by_the_same_rule(self):
        with pytest.raises(L.DomainError) as info:
            O.partial_trace(np.eye(2) / 2, "B")
        assert str(info.value) == "expected a 4x4 matrix, got shape (2, 2)"

    @pytest.mark.parametrize("route", ROUTES)
    def test_takes_bools_integers_floats_and_complex(self, route):
        n, _, call = self.ROUTES[route]
        pure = np.diag([True] + [False] * (n - 1))  # |0...0><0...0|
        want = np.asarray(call(pure.astype(complex)))
        for m in (pure, pure.astype(int), pure.astype(float), pure.tolist()):
            assert np.asarray(call(m)).tobytes() == want.tobytes()


# ---- the float forms of the Shannon fast test and fold, against numpy ------------


@pytest.mark.parametrize("k", range(1, 33))
def test_subtract_reduce_folds_each_row_from_zero_left_to_right(k):
    # the float U_b folds each row's p log2 p terms as 0.0 - t0 - t1 - ..., which is
    # numpy's np.subtract.reduce(..., initial=0.0) on every layout; a numpy that folds
    # otherwise fails here by name, before any bitwise U_b test
    rng = np.random.default_rng(k)
    x = rng.uniform(-1.0, 1.0, (40, k)) * 10.0 ** rng.integers(-17, 17, (40, k))
    for layout in LAYOUTS:
        a = laid_out(x, layout)
        want = []
        for row in x.tolist():
            h = 0.0
            for v in row:
                h -= v
            want.append(h)
        assert np.subtract.reduce(a, -1, initial=0.0).tobytes() == np.array(want).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda k: arrays(np.float64, st.tuples(st.integers(0, 32 // k), st.just(k)),
                     elements=st.one_of(st.floats(0.0, 1.0), st.sampled_from(FEW_EDGES)))))
@example(np.array([[0.25] * 4, [0.5, 0.5, 0.0, -0.0]]))
@example(np.array([[0.5, 0.5 + 2e-9]]))
@example(np.array([[5e-324, 1.0], [1.0, -0.0]]))  # the least subnormal meets _plogp's floor
def test_entropy_floats_is_the_kernel_on_rows_that_pass_its_fast_test(p):
    if p.size and p.shape[-1] > 1:  # rows that sum to 1, often
        with np.errstate(all="ignore"):
            p[:, -1] = np.maximum(1.0 - p[:, :-1].sum(axis=-1), 0.0) * (p[:, -1] <= 0.5)
    # the float U_b's rows sum to 1 by the X core's intake, so only the range is tested:
    # rows in [0, 1] get the fold of _plogp's terms, whatever they sum to, others None
    got = L._entropy_floats(p.ravel().tolist(), p.shape[-1])
    with numpy_path():
        passes = bool(L._in_unit(p))
    assert (got is not None) == passes
    if passes:
        want = np.subtract.reduce(L._plogp(p), -1, initial=0.0)
        assert np.array(got).tobytes() == want.tobytes()
        if L._sums_near_one(p):
            assert np.array(got).tobytes() == L.shannon_entropy(p).tobytes()
