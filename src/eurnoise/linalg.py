"""Entropy primitives over arrays, the domain error and the count and real-input rules.

All entropies are in bits and broadcast over leading axes. Each checked kernel settles an
in-range array with a cheap test (``_in_unit``, and Shannon's row sums by numpy); only an
array that fails it pays for the ordered checks, which name the first bad value. The one
range test, ``_within``, reads up to ``_FEW`` entries once as Python floats and more by a
numpy min and max, with the same decision either way. The checks (``_check_binary``,
``_check_distribution``) are written once here; the X core's one pass decides its block of
binary and spectrum rows with one ``_in_unit`` call and calls them only if it fails, then
takes every p log2 p of a sweep in one ``_plogp`` call. Shannon terms fold from +0.0 in
order. The tiny-input rule covers arithmetic too: ``_entropy_floats`` is ``shannon_entropy``
on Python floats, with one log2 call. ``as_real`` is the one place the runtime turns caller
input into floats, and ``_as_scalar`` its form for one number.
"""

from __future__ import annotations

from numbers import Real

import numpy as np

FLOAT_MAX = float(np.finfo(float).max)  # x <= FLOAT_MAX iff x is finite or -inf
MAX_FLOATS = np.iinfo(np.intp).max // 8  # the most float64 entries numpy can address in one array
_FLOAT = np.dtype(float)  # native float64: the dtype of every array numpy makes of floats


class DomainError(ValueError):
    """Input violates a documented precondition."""


def is_integer(x) -> bool:
    """The rule for counts, axes and indices: an int or numpy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def is_axis(x) -> bool:
    """The rule for a Pauli axis: an integer (``is_integer``) equal to 1, 2 or 3."""
    return is_integer(x) and x in (1, 2, 3)


def check_count(n, name: str, least: int, most: float) -> None:
    """A count must be an integer from `least` to `most`. A caller that sizes arrays by the
    count takes `most` from MAX_FLOATS, so a count past numpy's reach fails before allocating."""
    if not is_integer(n) or n < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {n!r}")
    if n > most:  # n is not printed: the repr of a huge int can itself fail
        raise DomainError(f"{name} must be at most {most}: numpy cannot address a larger array")


# Arrays of at most _FEW entries are range-tested in Python floats, larger ones by numpy
# reductions, each about 1 us whatever the size. Measured with numpy 2.4 on a shared
# 2-CPU x86-64 host, on arrays that pass: the range test of an (n, 5) view took 1.1
# against 2.5 us at 10 entries, and the same at 40.
_FEW = 32


def _within(x, lo: float, hi: float) -> bool:
    """Whether every entry of x, an array or a list of floats, lies in [lo, hi] (NaN does not;
    an empty x does): a list or up to _FEW entries in Python floats, else by a min and a max."""
    if isinstance(x, np.ndarray):
        if x.size > _FEW:
            return np.minimum.reduce(x, None) >= lo and np.maximum.reduce(x, None) <= hi
        x = x.ravel().tolist()
    for v in x:
        if not lo <= v <= hi:
            return False
    return True


def _first_outside(x: np.ndarray, lo: float, hi: float):
    """The first entry of x outside [lo, hi] (NaN included), or None; only an
    array that fails the range test pays for the masked search."""
    if _within(x, lo, hi):
        return None
    return x[~((x >= lo) & (x <= hi))].flat[0]


def as_real(x, name: str) -> np.ndarray:
    """The rule for real input: x as a float array (a float64 array as it is), or DomainError
    for anything but bools, integers and real floats at any nesting: a str or bytes, even
    a numeric one, a complex entry, None, a ragged list. Numbers numpy keeps as objects
    (a Fraction, an int past 64 bits) pass if every one is a ``numbers.Real``."""
    try:
        a = np.asarray(x)  # no dtype: text and complex input keep their kind
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be real numbers, got {x!r}") from exc
    if a.dtype is _FLOAT:  # the common case, settled by one identity test
        return a
    kind = a.dtype.kind
    if kind in "biuf" or kind == "O" and all(isinstance(e, Real) for e in a.flat):
        try:
            return a.astype(float)
        except OverflowError as exc:  # an int or Fraction past FLOAT_MAX
            raise DomainError(f"{name} must be real numbers within the float range") from exc
    raise DomainError(f"{name} must be real numbers, got {x!r}")


def _as_scalar(x, name: str) -> np.ndarray:
    """``as_real`` for one number: a 0-d float array, or DomainError naming x's shape."""
    a = as_real(x, name)
    if a.ndim:
        raise DomainError(f"{name} must be a scalar, got shape {a.shape}")
    return a


def _in_unit(p: np.ndarray) -> bool:
    """The kernels' fast test: entries in [0, 1] (NaN fails) cannot overflow a sum."""
    return p.size > 0 and _within(p, 0.0, 1.0)


def _plogp(p: np.ndarray):  # of checked p >= 0: 0 log 0 = 0, the log seeing the least subnormal
    m = np.maximum(p, 5e-324, out=np.empty_like(p))  # one array in p's layout, 0-d included
    return np.multiply(np.log2(m, out=m), p, out=m)


def _check_binary(p: np.ndarray, out=None) -> np.ndarray:
    """``binary_entropy``'s checks: p if it passes the fast test, else p clamped to [0, 1]
    (into out) if every entry is within 1e-12 of it, else DomainError naming the first."""
    if _in_unit(p):
        return p
    bad = _first_outside(p, -1e-12, 1 + 1e-12)
    if bad is not None:
        raise DomainError(f"binary entropy argument {bad} outside [0, 1]")
    return np.minimum(np.maximum(p, 0.0, out=out), 1.0, out=out)


def binary_entropy(p):
    """H_bin(p) = -p log2 p - (1-p) log2 (1-p), with 0 log 0 = 0; elementwise,
    and a float for scalar p."""
    p = _check_binary(as_real(p, "binary entropy argument"))
    h = 0.0 - (_plogp(p) + _plogp(1.0 - p))  # +0.0, never -0.0, on a pure state
    return float(h) if h.ndim == 0 else h


def _sums_near_one(p: np.ndarray) -> bool:
    """Whether every sum along p's last axis is within 1e-9 of 1 (a 0-d p is one row)."""
    return np.maximum.reduce(np.abs(np.add.reduce(p, -1) - 1.0), None) <= 1e-9


def _sum_last(p: np.ndarray) -> np.ndarray:
    # the ordered path: entries are >= -1e-12 and never NaN or -inf here, so a
    # sum can only overflow to +inf, which the caller rejects as a bad sum
    with np.errstate(over="ignore"):
        return p.sum(axis=-1)


def _check_distribution(p: np.ndarray, out=None) -> np.ndarray:
    """``shannon_entropy``'s checks on the vectors along p's last axis: p if it passes the
    fast test, else p clamped to [0, 1] (into out) if every entry is finite and >= -1e-12
    and every sum within 1e-9 of 1, else DomainError naming the first entry or sum. The
    fast test skips the clamp: on [0, 1] it turns only -0.0 into +0.0, the same bits."""
    if _in_unit(p) and _sums_near_one(p):
        return p
    bad = _first_outside(p, -1e-12, FLOAT_MAX)
    if bad is not None:
        raise DomainError(f"probability {bad} is negative or not finite")
    total = _sum_last(p)
    off = np.abs(total - 1.0) > 1e-9
    if off.any():
        raise DomainError(f"probabilities sum to {total[off].flat[0]}, not 1")
    return np.minimum(np.maximum(p, 0.0, out=out), 1.0, out=out)


def shannon_entropy(p):
    """Shannon entropy in bits over the last axis, with 0 log 0 = 0; a float
    for a single probability vector."""
    terms = _plogp(_check_distribution(as_real(p, "probabilities")))
    h = np.subtract.reduce(terms, -1, initial=0.0)  # = 0.0 - ((l0 + l1) + ...): odd rounding
    return float(h) if h.ndim == 0 else h


def _entropy_floats(flat: list, k: int):
    """``shannon_entropy`` of rows of k Python floats laid end to end that sum to 1, or None
    unless all are in [0, 1]: one log2 call, each row folded from 0.0 as np.subtract.reduce."""
    if not (flat and _within(flat, 0.0, 1.0)):
        return None
    logs = np.log2([v if v > 5e-324 else 5e-324 for v in flat]).tolist()  # _plogp's max
    out, h = [], 0.0
    for j, (v, log) in enumerate(zip(flat, logs), 1):
        h -= log * v
        if not j % k:  # a row ends
            out.append(h)
            h = 0.0
    return out
