"""Unit tests for response functions, spectra, and fidelity metrics."""

import numpy as np
import pytest

from ioncodesign import default_instance
from ioncodesign.hamiltonian import ExactEvolver, SpinHamiltonian
from ioncodesign.motional_noise import NoiseParams
from ioncodesign.spectroscopy import (
    ResponseSeries,
    TrotterEvolver,
    exact_response,
    fidelity_trace,
    hellinger,
    lorentzian_pair_spectra,
    noisy_response,
    positive_magnetization_states,
    spectrum,
)
from ioncodesign.spinsim import CompiledCircuit, sz_tot_diagonal


def single_spin(h0):
    return SpinHamiltonian(1, np.zeros((1, 1)), np.array([h0]))


def four_spin(seed=42, n=4):
    rng = np.random.default_rng(seed)
    J = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            J[i, j] = J[j, i] = rng.uniform(-1, 1)
    return SpinHamiltonian(n, J, rng.uniform(-5, 5, n))


def test_positive_magnetization_states():
    states = positive_magnetization_states(2)
    assert states == [(3, 1.0)]
    assert len(positive_magnetization_states(4)) == 5


def test_single_spin_response_is_cosine():
    h0 = 4.0
    times = np.linspace(0.0, 3.0, 61)
    series = exact_response(single_spin(h0), times)
    assert np.allclose(series.values, np.cos(h0 * times) / 4.0, atol=1e-12)


def test_zero_field_response_is_conserved():
    ham = SpinHamiltonian(3, np.zeros((3, 3)), np.zeros(3))
    ham.J[0, 1] = ham.J[1, 0] = 0.7
    ham.J[1, 2] = ham.J[2, 1] = -0.4
    ham = SpinHamiltonian(3, ham.J, ham.h)
    times = np.linspace(0.0, 5.0, 11)
    series = exact_response(ham, times)
    # without a transverse field, total S^z commutes with H
    assert np.allclose(series.values, series.values[0], atol=1e-12)


def test_spectrum_peaks_at_larmor_frequency():
    h0 = 4.0
    times = np.linspace(0.0, 6.0, 121)
    omega = np.linspace(-10.0, 10.0, 401)
    spec = spectrum(exact_response(single_spin(h0), times), gamma=0.5, omega_grid=omega)
    d_omega = omega[1] - omega[0]
    peak = omega[np.argmax(spec.a_norm)]
    assert abs(abs(peak) - h0) <= d_omega
    # spectral mass is normalized
    assert spec.a_norm.sum() * d_omega / (2 * np.pi) == pytest.approx(1.0)


def test_noiseless_trotter_response_converges_to_exact():
    ham = four_spin()
    times = np.linspace(0.0, 2.0, 9)
    exact = exact_response(ham, times)
    coarse = noisy_response(ham, times, 4, None)
    fine = noisy_response(ham, times, 48, None)
    err_coarse = np.max(np.abs(coarse.values - exact.values))
    err_fine = np.max(np.abs(fine.values - exact.values))
    assert err_fine < err_coarse / 5
    assert err_fine < 0.01


def test_noisy_response_is_seed_deterministic():
    ham = four_spin()
    times = np.linspace(0.0, 2.0, 5)
    noise = NoiseParams(c2=0.05, seed=3)
    a = noisy_response(ham, times, 4, noise, n_runs=3)
    b = noisy_response(ham, times, 4, noise, n_runs=3)
    c = noisy_response(ham, times, 4, NoiseParams(c2=0.05, seed=4), n_runs=3)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_inactive_noise_is_one_noiseless_run():
    ham = four_spin()
    times = np.linspace(0.0, 2.0, 5)
    clean = noisy_response(ham, times, 4, None)
    for noise in (None, NoiseParams(c2=0.0, seed=3)):
        assert np.array_equal(noisy_response(ham, times, 4, noise, n_runs=3).values,
                              clean.values)
    assert np.array_equal(fidelity_trace(ham, times, 4, noise=NoiseParams(c2=0.0),
                                         n_runs=3).fidelity,
                          fidelity_trace(ham, times, 4).fidelity)


def test_realized_angles_damp_only_noisy_gates():
    ham = four_spin()
    ev = TrotterEvolver(ham, r=2, noise=NoiseParams(c2=0.5, seed=0))
    circuit = ev.circuit_for(1.0)
    angles = ev.realized_angles(circuit, run=0, t=1.0)
    for g, a in zip(circuit.gates, angles):
        if g.noisy:
            assert abs(a) <= abs(g.spec.angle)
        else:
            assert a == g.spec.angle


def test_noiseless_evolver_returns_nominal_angles():
    ham = four_spin()
    ev = TrotterEvolver(ham, r=2)
    circuit = ev.circuit_for(0.5)
    assert ev.realized_angles(circuit, 0, 0.5) == [g.spec.angle for g in circuit.gates]


def test_fidelity_trace_noiseless_improves_with_depth():
    ham = four_spin()
    times = np.linspace(0.0, 2.0, 9)
    low = fidelity_trace(ham, times, r=2)
    high = fidelity_trace(ham, times, r=32)
    assert high.f_int > low.f_int
    assert high.fidelity[0] == pytest.approx(1.0)
    assert np.all(high.fidelity > 0.99)
    # At t = 0 the deepest bundled circuit still applies its fixed +-pi
    # rotations; they must cancel to the identity through every layer.
    deep = fidelity_trace(default_instance(), [0.0], r=55)
    assert deep.fidelity[0] == pytest.approx(1.0, abs=1e-12)


def test_fidelity_trace_noise_hurts():
    ham = four_spin()
    times = np.linspace(0.0, 2.0, 9)
    clean = fidelity_trace(ham, times, r=16)
    noisy = fidelity_trace(ham, times, r=16, noise=NoiseParams(c2=0.2, seed=0),
                           n_runs=4)
    assert noisy.f_int < clean.f_int


def test_hellinger_properties():
    omega = np.linspace(-10, 10, 201)
    near, far = lorentzian_pair_spectra([0.0, 6.0], 0.5, omega)
    assert hellinger(near, near) == pytest.approx(0.0, abs=1e-12)
    d = hellinger(near, far)
    assert 0.5 < d <= 1.0
    with pytest.raises(ValueError):
        hellinger(near, lorentzian_pair_spectra([0.0], 0.5, omega[:-1])[0])


def test_spectrum_input_validation():
    series = ResponseSeries(np.linspace(0, 1, 5), np.zeros(5))
    with pytest.raises(ValueError):
        spectrum(series, gamma=0.0, omega_grid=np.linspace(-1, 1, 5))
    with pytest.raises(ValueError):
        spectrum(series, gamma=0.5, omega_grid=np.linspace(-1, 1, 5))
    with pytest.raises(ValueError):
        ResponseSeries(np.linspace(0, 1, 5), np.zeros(4))
    with pytest.raises(ValueError):
        TrotterEvolver(four_spin(), r=0)


def _per_run_loop(ev, times, runs, columns, reduce):
    """Reference: one TrotterEvolver.evolve per (time, run), runs summed in order."""
    values = np.empty(times.size)
    for it, t in enumerate(times):
        total = 0.0
        for run in range(runs):
            total += reduce(it, ev.evolve(columns, run, t))
        values[it] = total / runs
    return values


BATCH_CASES = [
    # (spins, r, c2, feedforward, runs)
    (4, 3, 0.05, False, 4),
    (4, 2, 0.05, True, 3),
    (4, 1, 0.05, False, 40),  # more runs than one chunk of unitary columns
    (5, 1, 0.05, False, 10),  # two chunks at dimension 32
    (4, 2, 0.0, False, 3),  # inactive noise: one run
]


@pytest.mark.parametrize("n,r,c2,feedforward,runs", BATCH_CASES)
def test_batched_response_equals_per_run_loop(n, r, c2, feedforward, runs):
    ham = four_spin(seed=7, n=n)
    times = np.linspace(0.0, 2.0, 5)
    noise = NoiseParams(c2=c2, seed=5)
    got = noisy_response(ham, times, r, noise, feedforward=feedforward, n_runs=runs)
    ev = TrotterEvolver(ham, r, noise=noise, feedforward=feedforward)
    states = positive_magnetization_states(n)
    columns = np.zeros((2**n, len(states)), dtype=complex)
    for k, (idx, _) in enumerate(states):
        columns[idx, k] = 1.0
    weights = np.array([m for _, m in states]) / 2**n
    diag = sz_tot_diagonal(n)

    def magnetization(it, evolved):
        return 2.0 * float(weights @ np.real(np.einsum("d,dk->k", diag, np.abs(evolved) ** 2)))

    want = _per_run_loop(ev, times, ev.runs(runs), columns, magnetization)
    assert np.array_equal(got.values, want)


@pytest.mark.parametrize("n,r,c2,feedforward,runs", BATCH_CASES)
def test_batched_fidelity_equals_per_run_loop(n, r, c2, feedforward, runs):
    ham = four_spin(seed=7, n=n)
    times = np.linspace(0.0, 2.0, 5)
    noise = NoiseParams(c2=c2, seed=5)
    got = fidelity_trace(ham, times, r, noise=noise, feedforward=feedforward, n_runs=runs)
    ev = TrotterEvolver(ham, r, noise=noise, feedforward=feedforward)
    exact = ExactEvolver(ham)
    dim = 2**n
    targets = [exact.unitary(t) for t in times]
    want = _per_run_loop(ev, times, ev.runs(runs), np.eye(dim, dtype=complex),
                         lambda it, u1: abs(np.vdot(u1, targets[it]) / dim) ** 2)
    assert np.array_equal(got.fidelity, want)
    assert got.f_int == float(np.trapezoid(want, times) / (times[-1] - times[0]))


def test_batched_evolution_uses_the_per_run_realizations():
    ham = four_spin()
    noise = NoiseParams(c2=0.3, seed=2)
    batch = TrotterEvolver(ham, 2, noise=noise)
    single = TrotterEvolver(ham, 2, noise=noise)
    eye = np.eye(16, dtype=complex)
    out = batch.evolve_runs(eye, 1.0, 3)
    compiled = CompiledCircuit(single.circuit_for(1.0))
    for run in range(3):
        angles = single.realized_angles(single.circuit_for(1.0), run, 1.0)
        assert isinstance(angles, list)
        assert np.array_equal(out[:, run], compiled.apply(eye, angles))
        assert np.array_equal(out[:, run], single.evolve(eye, run, 1.0))
