"""The benchmark's in-process workloads still run on the program.

Module-attribute checks (tests/test_source.py) cannot see what the benchmark
reads off the results: ``.as_tuple()`` on the unital counterexample, the
``SweepRecord`` fields, ``.m`` and ``.used_fallback``. So round 0 of each
in-process workload is built and run here, every operation's output goes
through its own check, and the first operation's oracle subset check runs.
``bench/`` is imported as it stands, through ``sys.path``.
"""

import importlib
import pathlib

import numpy as np
import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
SEED = 7


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        yield importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["bd-closed", "ad-dense", "ad-bruteforce"])
def test_round_zero_passes_every_check(workloads, name):
    ops = workloads.make_round(name, SEED, 0)
    assert ops and ops[0].subset_check is not None
    outputs = [op.call() for op in ops]
    for op, out in zip(ops, outputs):
        op.check(out)
    ops[0].subset_check(outputs[0], np.random.default_rng([SEED, 1 << 20]))
