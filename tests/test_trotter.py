"""Unit tests for the timed first-order Trotter circuit builder."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ioncodesign.hamiltonian import SpinHamiltonian
from ioncodesign.spectroscopy import TrotterEvolver, fidelity_trace
from ioncodesign.spinsim import GateSpec, circuit_unitary
from ioncodesign.trotter import (
    GateTiming,
    TimedCircuit,
    TimedGate,
    build_trotter_circuit,
    gate_counts,
    trotter_error,
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
    step = [g.spec for g in build_trotter_circuit(ham, dt, 1).gates]
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
    times = circ.start_times
    assert np.array_equal(times, np.arange(len(circ.gates)) * 0.02)
    assert np.array_equal(times, [g.start_time for g in circ.gates])
    assert np.allclose(np.diff(times), 0.02)


def test_only_xx_gates_flagged_noisy():
    ham = random_instance(3, seed=6)
    circ = build_trotter_circuit(ham, 0.5, 1)
    for g in circ.gates:
        assert g.noisy == (g.spec.kind == "XX")


def test_invalid_arguments():
    ham = random_instance(2, seed=8)
    with pytest.raises(ValueError, match="r must be an integer >= 1"):
        build_trotter_circuit(ham, 1.0, 0)
    with pytest.raises(ValueError, match="t must be a finite number >= 0"):
        build_trotter_circuit(ham, -1.0, 2)
    with pytest.raises(ValueError):
        GateTiming(t_g=0.0)
    # no number takes a bool: both ran as 1.0
    with pytest.raises(ValueError, match="^t must be a finite number >= 0, not a bool; got True"):
        build_trotter_circuit(ham, True, 2)
    with pytest.raises(ValueError, match="^t_g must be a finite number > 0, not a bool; got True"):
        GateTiming(t_g=True)


@pytest.mark.parametrize("t_g", [math.nan, math.inf])
def test_non_finite_gate_time_is_rejected(t_g):
    # Accepted, it would turn every noisy response into NaN.
    with pytest.raises(ValueError, match="t_g must be a finite number > 0"):
        GateTiming(t_g=t_g)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_time_is_rejected(t):
    # Accepted, NaN built a circuit of NaN angles.
    with pytest.raises(ValueError, match="t must be a finite number >= 0"):
        build_trotter_circuit(random_instance(2, seed=8), t, 2)


def test_fidelity_at_a_nan_time_is_an_error():
    # It used to come back as NaN, silently: [1.0, nan].
    with pytest.raises(ValueError, match="t must be a finite number >= 0"):
        fidelity_trace(random_instance(2, seed=8), [0.0, math.nan], 2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [math.inf, -1.0])
def test_fidelity_at_a_bad_time_warns_nothing_before_the_error(t):
    # An infinite time printed two RuntimeWarnings from the exact target first.
    with pytest.raises(ValueError, match="t must be a finite number >= 0"):
        fidelity_trace(random_instance(2, seed=8), [0.0, t], 2)


@pytest.mark.parametrize("r", [2.5, True, 2.0, "2", 0])
def test_step_count_must_be_an_integer_and_not_a_bool(r):
    # 2.5 used to raise a TypeError from list repetition, and True built one step.
    # The evolver took both and failed only at its first circuit, and 0 with
    # another message: it now applies the builder's rule when constructed.
    ham = random_instance(2, seed=8)
    with pytest.raises(ValueError, match="r must be an integer >= 1, not a bool") as built:
        build_trotter_circuit(ham, 1.0, r)
    with pytest.raises(ValueError) as constructed:
        TrotterEvolver(ham, r)
    assert str(constructed.value) == str(built.value)


def test_numpy_integer_step_count_is_accepted():
    ham = random_instance(3, seed=8)
    circuit = build_trotter_circuit(ham, 1.0, np.int64(2))
    assert np.array_equal(circuit.angles, build_trotter_circuit(ham, 1.0, 2).angles)


def _old_step_layers(ham, dt):
    """The per-gate step as it was written before circuits became arrays."""
    n = ham.n_spins
    xx_layer = [GateSpec("XX", (i, j), ham.J[i, j] * dt) for i, j in ham.coupled_pairs()]
    gates = list(xx_layer)
    gates += [GateSpec("RZ", (i,), np.pi) for i in range(n)]
    gates += xx_layer
    gates += [GateSpec("RZ", (i,), -np.pi) for i in range(n)]
    gates += [GateSpec("RY", (i,), np.pi) for i in range(n)]
    gates += xx_layer
    gates += [GateSpec("RZ", (i,), -2.0 * ham.h[i] * dt) for i in range(n)]
    gates += [GateSpec("RY", (i,), -np.pi) for i in range(n)]
    return gates


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 10.0),
       r=st.integers(1, 12), t_g=st.floats(1e-4, 1.0), sparse=st.booleans())
def test_array_circuit_equals_the_per_gate_reference(n, seed, t, r, t_g, sparse):
    ham = random_instance(n, seed)
    if sparse:  # uncoupled pairs have no XX gates
        J = ham.J.copy()
        J[0, :] = J[:, 0] = 0.0
        ham = SpinHamiltonian(n, J, ham.h)
    step = [g.spec for g in build_trotter_circuit(ham, t / r, 1).gates]
    assert step == _old_step_layers(ham, t / r)
    specs = step * r
    circuit = build_trotter_circuit(ham, t, r, GateTiming(t_g=t_g))
    assert circuit.kinds == tuple(g.kind for g in specs)
    assert circuit.sites == tuple(g.sites for g in specs)
    assert circuit.angles.tolist() == [g.angle for g in specs]
    assert circuit.start_times.tolist() == [m * t_g for m in range(len(specs))]
    assert circuit.noisy.tolist() == [g.kind == "XX" for g in specs]
    # the lazy per-gate view, and a circuit rebuilt from it, hold the same values
    assert circuit.gates == tuple(TimedGate(g, m * t_g) for m, g in enumerate(specs))
    rebuilt = TimedCircuit(n, circuit.gates)
    assert (rebuilt.kinds, rebuilt.sites) == (circuit.kinds, circuit.sites)
    for name in ("angles", "start_times", "noisy"):
        assert np.array_equal(getattr(rebuilt, name), getattr(circuit, name))


def test_gates_view_is_built_on_first_read_and_arrays_are_read_only():
    circuit = build_trotter_circuit(random_instance(3, seed=9), 0.5, 2)
    assert "gates" not in vars(circuit)
    gates = circuit.gates
    assert circuit.gates is gates
    assert [g.spec.angle for g in gates] == circuit.angles.tolist()
    for name in ("angles", "start_times", "noisy"):
        with pytest.raises(ValueError):
            getattr(circuit, name)[0] = 0
    with pytest.raises(AttributeError, match="gate_times"):
        circuit.gate_times()


def test_from_arrays_leaves_the_callers_arrays_writeable():
    angles, start_times = np.array([0.1, 0.2]), np.array([0.0, 0.01])
    circuit = TimedCircuit.from_arrays(2, ("XX", "RZ"), ((0, 1), (0,)), angles, start_times)
    assert angles.flags.writeable and start_times.flags.writeable
    assert not circuit.angles.flags.writeable and not circuit.start_times.flags.writeable
    assert circuit.noisy.tolist() == [g.noisy for g in circuit.gates] == [True, False]


@pytest.mark.parametrize("kinds, sites, angles, start_times", [
    (("XX",), ((0, 1),), [0.1, 0.2], [0.0]),
    (("XX", "RZ"), ((0, 1),), [0.1, 0.2], [0.0, 0.01]),
    (("XX",), ((0, 1),), [0.1], [0.0, 0.01]),
    (("XX",), ((0, 1),), 0.1, [0.0]),
])
def test_from_arrays_needs_one_entry_per_gate(kinds, sites, angles, start_times):
    with pytest.raises(ValueError, match="one entry per gate"):
        TimedCircuit.from_arrays(2, kinds, sites, angles, start_times)


@pytest.mark.parametrize("kind, sites, message", [
    ("QQ", (0,), "unknown gate kind 'QQ'"),
    ("RY", (0, 1), r"RY takes 1 site\(s\), got \(0, 1\)"),
    ("XX", (1, 1), "XX sites must be distinct"),
    ("XX", (-1, 0), "site indices must be non-negative"),
    ("RX", (2,), "gate site index out of range"),
])
def test_from_arrays_rejects_what_the_gate_rule_rejects(kind, sites, message):
    # a valid XX gate first, and the bad gate repeated: the check sees each distinct gate
    kinds, all_sites = ("XX", kind, kind), ((0, 1), sites, sites)
    with pytest.raises(ValueError, match=message):
        TimedCircuit.from_arrays(2, kinds, all_sites, [0.1, 0.2, 0.3], [0.0, 0.01, 0.02])
    with pytest.raises(ValueError, match=message):
        TimedCircuit(2, (TimedGate(GateSpec("XX", (0, 1), 0.1), 0.0),
                         TimedGate(GateSpec(kind, sites, 0.2), 0.01)))


@pytest.mark.parametrize("n", [0, 2.5, -1, True])
def test_register_size_must_be_a_positive_integer_and_not_a_bool(n):
    # 0 failed only when compiled ("max() arg is an empty sequence"), 2.5 and -1 in a
    # TypeError, and True ran as 1.
    with pytest.raises(ValueError, match="n_qubits must be an integer >= 1, not a bool"):
        TimedCircuit.from_arrays(n, (), (), [], [])
    with pytest.raises(ValueError, match="n_qubits must be an integer >= 1, not a bool"):
        TimedCircuit(n, ())


def test_replacing_the_gates_replaces_the_arrays():
    # dataclasses.replace passes `gates` to the constructor, which derives every array
    # from them, so a circuit whose gates were replaced never runs on stale arrays.
    circuit = build_trotter_circuit(random_instance(3, seed=10), 0.5, 2)
    halved = tuple(dataclasses.replace(
        g, spec=dataclasses.replace(g.spec, angle=0.5 * g.spec.angle)) if g.noisy else g
        for g in circuit.gates)
    replaced = dataclasses.replace(circuit, gates=halved)
    assert replaced.angles.tolist() == [g.spec.angle for g in halved]
    assert np.array_equal(replaced.angles[circuit.noisy], 0.5 * circuit.angles[circuit.noisy])
    assert np.array_equal(replaced.angles[~circuit.noisy], circuit.angles[~circuit.noisy])
    assert replaced.kinds == circuit.kinds and replaced.sites == circuit.sites
    assert np.array_equal(replaced.start_times, circuit.start_times)
