"""S(sigma_3|B), and U for the pairs that contain axis 3, against 50-digit values.

The exact values start from the exact channel inputs, the float correlations c and
the float strength, and follow the definitions at 50 digits: the channel's factors,
H_bin((1 +- T_j)/2) for sigma_1 and sigma_2 given B, and the four-entry sigma_3|B
distribution H{(1 +- r +- T3)/4} - 1, which the runtime does not use. Phase damping's
factors are checked against 50-digit e^{-Gamma t / 2} by themselves.
"""

import itertools

import mpmath
import numpy as np

from eurnoise import metrics as M
from eurnoise.channels import parse_channel_literal
from eurnoise.states import random_bd_states

EPS = np.finfo(float).eps
# measured over the set below: S(sigma_3|B) is off by at most 1.13e-15 (5.1 eps) and
# U by 1.31e-15 (5.9 eps); S(sigma_3|B) taken from the four-entry row reached 1.33e-15
S3_BUDGET = 5.5 * EPS
U_BUDGET = 6.5 * EPS
# 24 seeded states, the two ad-longtime states of the benchmark and the four Bell vertices
STATES = np.concatenate([
    random_bd_states(24, np.random.default_rng(12033331)),
    [(-0.5, 0.4, 0.8), (0.6, -0.3, 0.2)],
    [(1, -1, 1), (-1, 1, 1), (1, 1, -1), (-1, -1, -1)],
])
GRIDS = [
    ("ad", np.linspace(0.0, 10.0, 41)),
    ("ad", np.geomspace(0.01, 800.0, 41)),  # 1 + r rounds to 0 from Gamma*t = 37.4 on
    ("pd", np.linspace(0.0, 10.0, 21)),
    ("flip:1", np.linspace(0.0, 1.0, 21)),
]
AXIS_3_PAIRS = [M.pauli_pair(1, 3), M.pauli_pair(3, 1), M.pauli_pair(2, 3), M.pauli_pair(3, 2)]


def _h(*ps):
    return -mpmath.fsum(p * mpmath.log(p, 2) for p in ps if p)


def _exact(c, literal, strength):
    """(S(sigma_1|B), S(sigma_2|B), S(sigma_3|B)) at 50 digits."""
    c1, c2, c3 = map(mpmath.mpf, c)
    t = mpmath.mpf(strength)
    if literal == "ad":
        e = mpmath.exp(-t)
        r, f = e - 1, (mpmath.sqrt(e), mpmath.sqrt(e), e)
    elif literal == "pd":
        r, f = 0, (mpmath.exp(-t / 2), mpmath.exp(-t / 2), 1)
    else:  # flip:1
        r, f = 0, (1, 1 - 2 * t, 1 - 2 * t)
    t1, t2, t3 = c1 * f[0], c2 * f[1], c3 * f[2]
    s1, s2 = (_h((1 + x) / 2, (1 - x) / 2) for x in (t1, t2))
    s3 = _h((1 + r + t3) / 4, (1 + r - t3) / 4, (1 - r - t3) / 4, (1 - r + t3) / 4) - 1
    return s1, s2, s3


def test_s3_b_and_axis_3_uncertainties_stay_within_their_budget():
    worst = {"S(sigma_3|B)": 0.0, **{f"U{p.q}{p.r}": 0.0 for p in AXIS_3_PAIRS}}
    with mpmath.workdps(50):
        for literal, grid in GRIDS:
            rt = parse_channel_literal(literal).evolve(STATES[:, None], grid)
            e = M.xstate_entropies(*rt)
            u = {p: M.xstate_columns(*rt, p)[..., 0] for p in AXIS_3_PAIRS}
            for (i, c), (k, strength) in itertools.product(enumerate(STATES), enumerate(grid)):
                exact = _exact(c, literal, strength)
                err = abs(mpmath.mpf(e.s3_b[i, k]) - exact[2])
                worst["S(sigma_3|B)"] = max(worst["S(sigma_3|B)"], float(err))
                for p in AXIS_3_PAIRS:
                    err = abs(mpmath.mpf(u[p][i, k]) - exact[p.q - 1] - exact[p.r - 1])
                    worst[f"U{p.q}{p.r}"] = max(worst[f"U{p.q}{p.r}"], float(err))
    assert worst["S(sigma_3|B)"] <= S3_BUDGET, worst
    assert max(worst.values()) <= U_BUDGET, worst


# pd's f1 = f2 is e^{-Gt/2} itself, 0.50 eps off at worst; the phase flip's 1 - 2 eta
# gives 1 - (1 - e^{-Gt/2}), which cancels: 5.6% off at Gt = 70, and 0 from 74.8 on
PD_GRID = np.concatenate([np.geomspace(0.01, 800.0, 401), np.linspace(0.0, 10.0, 201)])


def test_pd_factors_are_e_to_the_minus_half_gamma_t():
    spec = parse_channel_literal("pd")
    r, f = spec.factors(spec.check(PD_GRID))
    assert (r == 0.0).all() and (f[:, 2] == 1.0).all()
    with mpmath.workdps(50):
        worst = max(
            abs(mpmath.mpf(x) / mpmath.exp(-mpmath.mpf(t) / 2) - 1)
            for t, row in zip(PD_GRID, f) for x in row[:2]
        )
    assert worst <= 2 * EPS, float(worst)
