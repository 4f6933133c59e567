"""Unit tests for the timed first-order Trotter circuit builder."""

import math

import numpy as np
import pytest

from ioncodesign.hamiltonian import SpinHamiltonian
from ioncodesign.spinsim import circuit_unitary
from ioncodesign.trotter import (
    GateTiming,
    build_trotter_circuit,
    gate_counts,
    trotter_error,
    trotter_step_layers,
)


def random_instance(n, seed):
    rng = np.random.default_rng(seed)
    J = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            J[i, j] = J[j, i] = rng.uniform(-1, 1)
    return SpinHamiltonian(n, J, rng.uniform(-5, 5, n))


def test_step_structure_two_spins():
    ham = random_instance(2, seed=0)
    dt = 0.1
    step = trotter_step_layers(ham, dt)
    kinds = [g.kind for g in step]
    # 3 XX chunks interleaved with fixed-axis rotations and field rotations
    assert kinds == (["XX"] + ["RZ"] * 2 + ["XX"] + ["RZ"] * 2
                     + ["RY"] * 2 + ["XX"] + ["RZ"] * 2 + ["RY"] * 2)
    assert len(step) == 13
    xx = [g for g in step if g.kind == "XX"]
    assert all(g.angle == pytest.approx(ham.J[0, 1] * dt) for g in xx)
    # fixed conjugation rotations are +-pi, field rotations are -2 h dt
    assert step[1].angle == pytest.approx(np.pi)
    assert step[4].angle == pytest.approx(-np.pi)
    field = step[9:11]
    for i, g in enumerate(field):
        assert g.kind == "RZ"
        assert g.angle == pytest.approx(-2.0 * ham.h[i] * dt)


def test_gate_counts_four_spins():
    ham = random_instance(4, seed=1)
    circ = build_trotter_circuit(ham, 1.0, 2)
    counts = gate_counts(circ)
    # per step: 3 XX layers over 6 pairs plus 5 single-qubit layers of 4
    assert counts == {"total": 76, "two_qubit": 36, "single_qubit": 40}


def test_single_step_reproduces_each_term():
    # with only one coupled pair and no field, one step is exact
    J = np.zeros((2, 2))
    J[0, 1] = J[1, 0] = 0.7
    ham = SpinHamiltonian(2, J, np.zeros(2))
    assert trotter_error(ham, 0.9, 1) < 1e-12
    # with only fields, one step is exact too
    ham = SpinHamiltonian(3, np.zeros((3, 3)), np.array([1.0, -2.0, 0.4]))
    assert trotter_error(ham, 0.9, 1) < 1e-12


def test_first_order_convergence_slope():
    for seed in (2, 3):
        ham = random_instance(3, seed=seed)
        t = 2.0
        rs = np.array([4, 8, 16, 32])
        errors = np.array([trotter_error(ham, t, int(r)) for r in rs])
        slope = np.polyfit(np.log(t / rs), np.log(errors), 1)[0]
        assert 0.9 <= slope <= 1.1


def test_circuit_approaches_exact_unitary():
    ham = random_instance(3, seed=4)
    t = 1.5
    exact = ham.exact.unitary(t)
    approx = circuit_unitary(build_trotter_circuit(ham, t, 64))
    assert np.linalg.norm(approx - exact, ord=2) < 0.05


def test_serial_gate_schedule():
    ham = random_instance(2, seed=5)
    timing = GateTiming(t_g=0.02)
    circ = build_trotter_circuit(ham, 0.5, 2, timing)
    times = circ.gate_times()
    assert np.array_equal(times, np.arange(len(circ.gates)) * 0.02)
    assert np.allclose(np.diff(times), 0.02)


def test_only_xx_gates_flagged_noisy():
    ham = random_instance(3, seed=6)
    circ = build_trotter_circuit(ham, 0.5, 1)
    for g in circ.gates:
        assert g.noisy == (g.spec.kind == "XX")


def test_invalid_arguments():
    ham = random_instance(2, seed=8)
    with pytest.raises(ValueError):
        build_trotter_circuit(ham, 1.0, 0)
    with pytest.raises(ValueError):
        build_trotter_circuit(ham, -1.0, 2)
    with pytest.raises(ValueError):
        GateTiming(t_g=0.0)


@pytest.mark.parametrize("t_g", [math.nan, math.inf])
def test_non_finite_gate_time_is_rejected(t_g):
    # Accepted, it would turn every noisy response into NaN.
    with pytest.raises(ValueError, match="t_g must be positive and finite"):
        GateTiming(t_g=t_g)
