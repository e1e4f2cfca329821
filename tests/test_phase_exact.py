"""The exact long-time phase boundaries under amplitude damping, as oracles.

Every state tends to |1><1| x I/2, so U_b -> 1; a Bell-diagonal state starts at
U_b(0) = S(lambda), the Shannon entropy of its Bell weights, and U_b ends lower exactly
where S(lambda) > 1. At Gamma*t = 0, S(sigma_j|B) = h(c_j) = H_bin((1 + c_j)/2), and in
the limit S(sigma_3|B) -> 0 while S(sigma_1|B), S(sigma_2|B) -> 1: U -> 1 for the pairs
(1,3) and (2,3), and U -> 2 for (1,2). The volume of {S(lambda) > 1} is a quadrature over
the Bell-weight simplex, independent of the runtime; the classification of a seeded
uniform batch must land on it.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings

from eurnoise.channels import ChannelSpec
from eurnoise.metrics import pauli_pair
from eurnoise.scenarios import LONGTIME_GAMMA_T, SweepConfig, classify_longtime_ad
from eurnoise.scenarios import run_time_sweep
from eurnoise.states import random_bd_states

from conftest import bd_states

BAND = 1e-9  # the verdict's band on U_b, as the exact law states it
VERTICES = [(1.0, -1.0, 1.0), (-1.0, 1.0, 1.0), (1.0, 1.0, -1.0), (-1.0, -1.0, -1.0)]


def _state(lam) -> tuple:
    """The correlations (c1, c2, c3) of Bell weights (Phi+, Phi-, Psi+, Psi-)."""
    pp, pm, sp, sm = lam
    return pp - pm + sp - sm, -pp + pm + sp - sm, pp + pm - sp - sm


def _bell_entropy(c) -> float:
    """S(lambda) in bits, from the four Bell weights (1 +- c1 +- c2 +- c3)/4 of c."""
    c1, c2, c3 = c
    lam = [(1 + c1 - c2 + c3) / 4, (1 - c1 + c2 + c3) / 4, (1 + c1 + c2 - c3) / 4,
           (1 - c1 - c2 - c3) / 4]
    return -math.fsum(p * math.log2(p) for p in lam if p > 0)


def _h(x: float) -> float:
    """H_bin((1 + x)/2) in bits: S(sigma_j|B) of a Bell-diagonal state with c_j = x."""
    return -math.fsum(p * math.log2(p) for p in ((1 + x) / 2, (1 - x) / 2) if p > 0)


def _bisect(f, lo: float, hi: float) -> float:
    """The root of f, increasing on [lo, hi], to the last bit."""
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        lo, hi = (lo, mid) if f(mid) > 0 else (mid, hi)
    return lo


def _near_boundary(gap: float) -> tuple:
    """A state whose S(lambda) is 1 + gap: Bell weights ((1 - y)/2, (1 - y)/2, y, 0)
    above 1, (1/2 + d, 1/2 - d, 0, 0) below it."""
    if gap > 0:
        y = _bisect(lambda y: _bell_entropy(_state(((1 - y) / 2, (1 - y) / 2, y, 0))) - 1 - gap,
                    0.0, 0.25)
        return _state(((1 - y) / 2, (1 - y) / 2, y, 0.0))
    d = _bisect(lambda d: 1 + gap - _h(2 * d), 0.0, 0.25)
    return _state((0.5 + d, 0.5 - d, 0.0, 0.0))


def _verdict(s: float) -> str:
    return "Decrease" if s > 1 + BAND else "Increase" if s < 1 - BAND else "Boundary"


# S(lambda) - 1 outside the band but inside a band of 1e-3, and inside the band
@pytest.mark.parametrize("gap, verdict", [
    (1e-4, "Decrease"), (1e-6, "Decrease"), (-1e-4, "Increase"), (-1e-6, "Increase"),
    (1e-11, "Boundary"), (-1e-11, "Boundary"),
])
def test_the_verdict_at_the_band(gap, verdict):
    c = _near_boundary(gap)
    assert abs(_bell_entropy(c) - 1 - gap) < 1e-13, c
    res = classify_longtime_ad(c)
    assert res.u_b_limit == 1.0
    assert str(res.verdict) == _verdict(1 + gap) == verdict


@settings(max_examples=300, deadline=None)
@given(bd_states())
@example(VERTICES[0])
@example(VERTICES[1])
@example(VERTICES[2])
@example(VERTICES[3])
@example((0.0, 0.0, 0.0))
@example((-0.5, 0.4, 0.8))
def test_the_long_time_verdict_is_s_lambda_against_one(c):
    res = classify_longtime_ad(tuple(c))
    assert res.u_b_limit == 1.0  # bit for bit
    assert str(res.verdict) == _verdict(_bell_entropy(tuple(c)))


@settings(max_examples=100, deadline=None)
@given(bd_states())
@example(VERTICES[0])
@example(VERTICES[3])
@example((0.0, 0.0, 0.0))
@example((-0.5, 0.4, 0.8))
def test_u_starts_at_h_c_and_ends_at_its_limit_by_classifys_strength(c):
    # the sweep to classify's strength: U(0) = h(c_q) + h(c_r), and U has reached its
    # limit there, 1 for the pairs with axis 3 and 2 for (1, 2)
    for (q, r), limit in (((1, 3), 1.0), ((2, 3), 1.0), ((1, 2), 2.0)):
        cfg = SweepConfig(initial=tuple(c), channel=ChannelSpec("ad"), pair=pauli_pair(q, r),
                          t_start=0.0, t_end=LONGTIME_GAMMA_T, n_points=2, spacing="linear")
        u = np.asarray(run_time_sweep(cfg))[:, 1]
        assert abs(u[0] - (_h(c[q - 1]) + _h(c[r - 1]))) < 1e-12
        assert abs(u[1] - limit) < 1e-12


def _quadrature_volume(n: int) -> float:
    """The volume fraction of {S(lambda) > 1} in the Bell-weight simplex, by n x n
    Gauss-Legendre nodes over (lambda_1, lambda_2) on the triangle (a collapsed square).
    On each line of (lambda_1, lambda_2) the region is one interval [a, s - a] of
    lambda_3, s = 1 - lambda_1 - lambda_2: S is concave, and symmetric in lambda_3 and
    lambda_4 = s - lambda_3. a is found by bisection on [0, s/2], where S increases."""
    x, w = np.polynomial.legendre.leggauss(n)
    u, wu = (x + 1) / 2, w / 2
    l1, l2 = u[:, None], (1 - u[:, None]) * u
    weight = (1 - u[:, None]) * wu[:, None] * wu  # the collapsed square's Jacobian
    s = 1 - l1 - l2

    def entropy(*ps):
        return -sum(p * np.log2(np.where(p > 0, p, 1.0)) for p in ps)

    lo, hi = np.zeros_like(s), s / 2
    for _ in range(60):
        mid = (lo + hi) / 2
        inside = entropy(l1, l2, mid, s - mid) > 1
        lo, hi = np.where(inside, lo, mid), np.where(inside, mid, hi)
    length = np.where(entropy(l1, l2, s / 2, s / 2) > 1, s - 2 * hi, 0.0)
    return 6 * float(np.sum(weight * length))  # the simplex's volume is 1/6


def test_the_decrease_fraction_is_the_exact_volume():
    # the kink where the interval vanishes limits the quadrature to about 1e-6;
    # at 300 and 500 nodes it reads 0.9586212 and 0.9586210
    volume, finer = _quadrature_volume(300), _quadrature_volume(500)
    assert abs(volume - finer) < 1e-5
    assert abs(volume - 0.958620) < 1e-5
    n = 200_000
    res = classify_longtime_ad(random_bd_states(n, np.random.default_rng(33)))
    assert (res.u_b_limit == 1.0).all()
    fraction = np.count_nonzero(res.verdict == "Decrease") / n
    assert abs(fraction - volume) < 4 * math.sqrt(volume * (1 - volume) / n), fraction
