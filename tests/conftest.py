import numpy as np
import pytest
from hypothesis import strategies as st

from eurnoise.states import BellDiagonalState

FIG_STATE = BellDiagonalState(-0.5, 0.4, 0.8)


@pytest.fixture
def fig_state():
    return FIG_STATE


def bd_states():
    """Valid Bell-diagonal states, built from a sampled Bell spectrum so
    every draw is inside the tetrahedron by construction."""
    weights = st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=4, max_size=4
    ).filter(lambda w: sum(w) > 1e-6)

    def to_state(w):
        lam = np.asarray(w) / sum(w)
        lpp, lpm, lsp, lsm = lam
        return BellDiagonalState(
            c1=lpp - lpm + lsp - lsm,
            c2=-lpp + lpm + lsp - lsm,
            c3=lpp + lpm - lsp - lsm,
        )

    return weights.map(to_state)


def hermitian_4x4():
    entries = st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=32,
        max_size=32,
    )

    def build(vals):
        v = np.asarray(vals)
        m = (v[:16] + 1j * v[16:]).reshape(4, 4)
        return m + m.conj().T

    return entries.map(build)


# the memory layouts an array may reach a kernel in: C and F order; "rows", the
# (..., n) view of one (n, ...) block that the X core hands its entropy kernels;
# and "strided", a view with every stride doubled whose gaps hold NaN
LAYOUTS = ("C", "F", "rows", "strided")


def laid_out(a, layout: str) -> np.ndarray:
    """A copy of a with the same shape and values, in the named layout."""
    a = np.asarray(a, dtype=float)
    if layout == "rows" and a.ndim:
        block = np.ascontiguousarray(np.moveaxis(a, -1, 0))
        return block.transpose(*range(1, a.ndim), 0)
    if layout == "strided":
        base = np.full(tuple(2 * n for n in a.shape), np.nan)
        view = base[(..., *[slice(None, None, 2)] * a.ndim)]
        view[...] = a
        return view
    return np.array(a, order="F" if layout == "F" else "C")
