"""Host-speed calibration.

The benchmark's host is a shared 2-core VM whose speed changes by up to
1.5x within seconds, for every process alike (CPU time tracks wall time, and
steal time stays at 0). A fixed job made of the operations eurnoise spends
its time in (a 4x4 eigvalsh, small complex products, a Python float loop)
is timed every CAL_EVERY_S seconds. Each operation's wall time is
multiplied by CAL_REF_S / (median of the last CAL_WINDOW job times), which
restates it at the host speed at which the job takes CAL_REF_S.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

import numpy as np

# the job's time on a 2-core x86-64 VM at its usual speed (Python 3.11.7, numpy 2.4.6)
CAL_REF_S = 0.0078
CAL_EVERY_S = 0.2
CAL_WINDOW = 5

_M = np.array(
    [[0.9, 0.2, 0.1, 0.3], [0.2, 0.7, 0.4, 0.1], [0.1, 0.4, 0.6, 0.2], [0.3, 0.1, 0.2, 0.8]]
)
_C = (_M[:2, :2] + 1j * _M[2:, 2:]).astype(complex)


def job() -> float:
    """Seconds taken by the fixed calibration job."""
    t0 = time.perf_counter()
    s = 0.0
    for _ in range(300):
        s += float(np.linalg.eigvalsh(_M)[0])
        s += float(np.kron(_C, _C.conj()).real.sum())
        s += sum(j * 0.5 for j in range(50))
    return time.perf_counter() - t0


def factor_now() -> float:
    """Scale for a wall time just measured in this process: CAL_REF_S over
    the median of three jobs, after one untimed."""
    job()
    return CAL_REF_S / statistics.median(job() for _ in range(3))


class Speed:
    def __init__(self):
        job()  # the first calls into numpy are slower; leave them out
        self._jobs: deque[float] = deque(maxlen=CAL_WINDOW)
        self._last = float("-inf")
        self.factors: list[float] = []

    def factor(self) -> float:
        """Scale for a wall time measured from now: CAL_REF_S over the
        recent job time, timing the job again if it is due."""
        if time.perf_counter() - self._last >= CAL_EVERY_S:
            self._jobs.append(job())
            self._last = time.perf_counter()
        f = CAL_REF_S / statistics.median(self._jobs)
        self.factors.append(f)
        return f
