"""Tests of the benchmark's oracle and tracer.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import oracle  # noqa: E402
import tracer  # noqa: E402

FIG2_STATE = (-0.5, 0.4, 0.8)
BELL_VERTEX = (-1.0, 1.0, 1.0)


def test_binary_entropy_of_a_fair_coin_is_one_bit():
    assert oracle.h_bin(0.5) == pytest.approx(1.0, abs=1e-15)


def test_bell_vertex_has_zero_uncertainty_and_bound():
    rho = oracle.evolve(BELL_VERTEX, "ad", 0.0)
    assert oracle.uncertainty(rho, 1, 3) == pytest.approx(0.0, abs=1e-12)
    assert oracle.lower_bound(rho) == pytest.approx(0.0, abs=1e-12)
    assert oracle.bd_concurrence(BELL_VERTEX) == 1.0
    assert oracle.x_concurrence(rho) == pytest.approx(1.0, abs=1e-15)


def test_fig2_state_initial_uncertainty():
    rho = oracle.evolve(FIG2_STATE, "pd", 0.0)
    expected = oracle.h_bin(0.25) + oracle.h_bin(0.9)
    assert oracle.uncertainty(rho, 1, 3) == pytest.approx(expected, abs=1e-12)


def test_bell_spectrum_sums_to_one_and_matches_density():
    spec = oracle.bell_spectrum(FIG2_STATE)
    assert spec.sum() == pytest.approx(1.0, abs=1e-15)
    eig = np.linalg.eigvalsh(oracle.bd_density(FIG2_STATE))
    assert np.sort(spec) == pytest.approx(eig, abs=1e-12)


def test_long_amplitude_damping_sends_a_to_one():
    rho = oracle.evolve(FIG2_STATE, "ad", 60.0)
    expected = np.kron(np.diag([0.0, 1.0]), np.eye(2) / 2)
    assert np.max(np.abs(rho - expected)) < 1e-12
    assert oracle.lower_bound(rho) == pytest.approx(1.0, abs=1e-12)


def test_self_time_excludes_child_spans():
    spans = [
        ["scenarios.run_time_sweep", 0.0, 10.0, -1, None],
        ["metrics.concurrence", 1.0, 4.0, 0, None],
        ["linalg.tensor_product", 2.0, 3.0, 1, None],
        ["linalg.hermitian_eigenvalues", 5.0, 7.0, 0, 4],
    ]
    m = tracer.layer_metrics([spans], wall_s=20.0)
    assert m["scenarios.self_s"] == pytest.approx(5.0)
    assert m["metrics.self_s"] == pytest.approx(2.0)
    assert m["linalg.self_s"] == pytest.approx(3.0)
    assert m["linalg.calls"] == 2 and m["linalg.eig4_calls"] == 1
    assert m["metrics.concurrence_s"] == pytest.approx(3.0)
    assert m["metrics.bruteforce_share"] == 0.0


def test_tracer_sees_calls_across_modules_and_restores_them():
    from eurnoise import scenarios, states
    from eurnoise.channels import ChannelSpec
    from eurnoise.metrics import pauli_pair

    original = scenarios.bd_to_density
    cfg = scenarios.SweepConfig(states.BellDiagonalState(*FIG2_STATE), ChannelSpec("pd"), pauli_pair(1, 3), 0.0, 1.0, 3)
    t = tracer.Tracer()
    t.install()
    try:
        scenarios.run_time_sweep(cfg)
    finally:
        t.uninstall()
    names = [s[0] for s in t.spans]
    assert names[0] == "scenarios.run_time_sweep"
    assert names.count("states.bd_to_density") == 3
    parents = {s[0]: t.spans[s[3]][0] for s in t.spans if s[3] >= 0}
    assert parents["metrics.concurrence"] == "scenarios.run_time_sweep"
    assert scenarios.bd_to_density is original
