"""Unit tests for response functions, spectra, and fidelity metrics."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ioncodesign import default_instance, spectroscopy
from ioncodesign.feedforward import FeedforwardTable, correct_circuit
from ioncodesign.hamiltonian import ExactEvolver, SpinHamiltonian
from ioncodesign.motional_noise import NoiseParams, sample_trajectory
from ioncodesign.spectroscopy import (
    ResponseSeries,
    Spectrum,
    TrotterEvolver,
    _grid_step,
    exact_response,
    fidelity_trace,
    hellinger,
    _magnetization,
    noisy_response,
    spectrum,
)
from ioncodesign.spinsim import CompiledCircuit, sz_tot_diagonal
from ioncodesign.trotter import GateTiming, TimedCircuit, build_trotter_circuit


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
    # S(t) starts from the basis states with m > 0, one column each, in basis order.
    columns, _ = _magnetization(2)
    assert columns.tolist() == [[0], [0], [0], [1]]
    columns, _ = _magnetization(4)
    assert columns.shape == (16, 5)
    assert np.array_equal(np.abs(columns).sum(axis=0), np.ones(5))
    states = np.flatnonzero(np.abs(columns).sum(axis=1))
    assert states.tolist() == [7, 11, 13, 14, 15]
    assert np.all(sz_tot_diagonal(4)[states] > 0)


def test_single_spin_response_is_cosine():
    h0 = 4.0
    times = np.linspace(0.0, 3.0, 61)
    series = exact_response(single_spin(h0), times)
    assert np.allclose(series.values, np.cos(h0 * times) / 4.0, atol=1e-12)


def test_zero_field_response_is_conserved():
    J = np.zeros((3, 3))
    J[0, 1] = J[1, 0] = 0.7
    J[1, 2] = J[2, 1] = -0.4
    ham = SpinHamiltonian(3, J, np.zeros(3))
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


def lorentzian(center, gamma, omega):
    """The Lorentzian of this center and width on the grid omega, as a unit-mass spectrum."""
    a = gamma / (gamma**2 + (omega - center) ** 2)
    return Spectrum(omega, a, a / (a.sum() * _grid_step(omega, "omega", 1.0) / (2.0 * np.pi)))


def test_hellinger_properties():
    omega = np.linspace(-10, 10, 201)
    near, far = lorentzian(0.0, 0.5, omega), lorentzian(6.0, 0.5, omega)
    assert hellinger(near, near) == pytest.approx(0.0, abs=1e-12)
    d = hellinger(near, far)
    assert 0.5 < d <= 1.0
    with pytest.raises(ValueError):
        hellinger(near, lorentzian(0.0, 0.5, omega[:-1]))
    # two disjoint narrow windows, which np.allclose took for one grid
    left, right = (lorentzian(0.5, 0.5, np.linspace(lo, lo + 1e-6, 5))
                   for lo in (0.5, 0.5 + 2e-6))
    with pytest.raises(ValueError, match="same frequency grid"):
        hellinger(left, right)


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


@pytest.mark.parametrize("gamma", [np.nan, np.inf])
def test_spectrum_rejects_non_finite_gamma(gamma):
    series = ResponseSeries(np.linspace(0, 1, 5), np.ones(5))
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        spectrum(series, gamma=gamma, omega_grid=np.linspace(-1, 1, 5))


UNEVEN_GRIDS = {
    "decreasing": np.linspace(1.0, 0.0, 5),
    "repeated": np.array([0.0, 0.5, 0.5, 1.0]),
    "uneven": np.array([0.0, 0.1, 0.3, 0.6, 1.0]),
    "one-step-off": np.r_[np.linspace(0.0, 1.0, 5), 1.25 + 1e-8],
    "nan": np.array([0.0, 0.5, np.nan]),
    "infinite-point": np.array([0.0, 0.5, np.inf]),
    "infinite-step": np.array([-1e308, 1e308]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grid", UNEVEN_GRIDS.values(), ids=UNEVEN_GRIDS.keys())
def test_spectrum_rejects_a_non_uniform_grid_by_name(grid):
    # both steps used to be read off the first two points and applied to every point
    even = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(ValueError, match="^times must be increasing and evenly spaced"):
        spectrum(ResponseSeries(grid, np.ones(grid.size)), gamma=0.5, omega_grid=even)
    with pytest.raises(ValueError, match="^omega_grid must be increasing and evenly spaced"):
        spectrum(ResponseSeries(np.linspace(0, 1, 5), np.ones(5)), gamma=0.5, omega_grid=grid)


@settings(max_examples=500, deadline=None)
@given(start=st.floats(-1e6, 1e6), width=st.floats(1e-9, 1e6), n=st.integers(1, 10**4))
def test_spectrum_takes_every_linspace_grid(start, width, n):
    # linspace rounds each point by about an ulp of the largest; a config's
    # narrow frequency window far from 0 must still pass
    grid = np.linspace(start, start + width, n)
    assume(n == 1 or width / (n - 1) > 16 * np.spacing(np.abs(grid).max()))
    assert _grid_step(grid, "omega_grid", 1.0) == (grid[1] - grid[0] if n > 1 else 1.0)


def _magnetization_reduce(n):
    """The m > 0 basis columns, and the S(t) reduce of their evolved copies."""
    diag = sz_tot_diagonal(n)
    states = [(idx, float(m)) for idx, m in enumerate(diag) if m > 0]
    columns = np.zeros((2**n, len(states)), dtype=complex)
    for k, (idx, _) in enumerate(states):
        columns[idx, k] = 1.0
    weights = np.array([m for _, m in states]) / 2**n

    def magnetization(it, evolved):
        return 2.0 * float(weights @ np.real(np.einsum("d,dk->k", diag, np.abs(evolved) ** 2)))

    return columns, magnetization


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
    columns, magnetization = _magnetization_reduce(n)
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
    out = batch.evolve_runs(eye, 1.0, range(3))
    compiled = CompiledCircuit(single.circuit_for(1.0))
    for run in range(3):
        angles = single.realized_angles(single.circuit_for(1.0), run, 1.0)
        assert isinstance(angles, list)
        assert np.array_equal(out[run], compiled.apply(eye, angles))
        assert np.array_equal(out[run], single.evolve(eye, run, 1.0))


@pytest.mark.parametrize("c2,n_columns", [(0.3, 16), (0.3, 5), (0.0, 16)])
def test_evolve_runs_blocks_are_contiguous_and_equal_evolve(c2, n_columns):
    ham = four_spin()
    ev = TrotterEvolver(ham, 3, noise=NoiseParams(c2=c2, seed=2))
    columns = np.eye(16, dtype=complex)[:, 16 - n_columns:]
    runs = [4, 0, 2]
    out = ev.evolve_runs(columns, 0.8, runs)
    assert out.shape == (3, 16, n_columns)
    for block, run in zip(out, runs):
        assert block.flags.c_contiguous
        assert np.array_equal(block, ev.evolve(columns, run, 0.8))


@pytest.mark.parametrize("c2", [0.05, 0.0])
@pytest.mark.parametrize("n_runs", [0, -1, 2.5, True])
def test_fewer_than_one_run_is_rejected(c2, n_runs):
    # 2.5 used to end in a TypeError from range, and True ran once.
    ham, times, noise = four_spin(), np.linspace(0.0, 1.0, 3), NoiseParams(c2=c2, seed=1)
    with pytest.raises(ValueError, match="n_runs must be an integer >= 1"):
        noisy_response(ham, times, 2, noise, n_runs=n_runs)
    with pytest.raises(ValueError, match="n_runs must be an integer >= 1"):
        fidelity_trace(ham, times, 2, noise=noise, n_runs=n_runs)
    with pytest.raises(ValueError, match="n_runs must be an integer >= 1"):
        TrotterEvolver(ham, 2, noise=noise).runs(n_runs)


def _fresh_circuit(ham, t, r, noise, feedforward, table):
    circuit = build_trotter_circuit(ham, t, r)
    return correct_circuit(circuit, noise.c2, table) if feedforward else circuit


def _fresh_angles(circuit, noise, runs, it):
    """Reference draw: sample_trajectory over the circuit's own start times, one run a column."""
    nominal = np.array([g.spec.angle for g in circuit.gates])[:, None]
    noisy = np.array([g.noisy for g in circuit.gates])[:, None]
    u = np.stack([sample_trajectory(circuit.start_times, noise, [np.random.default_rng(
        np.random.SeedSequence(entropy=noise.seed, spawn_key=(run, it)))])[:, 0]
        for run in runs], axis=1)
    return np.where(noisy, nominal * np.exp(-u), nominal)


def _fresh_average(ham, times, r, noise, feedforward, runs, columns, reduce):
    """Reference run average: every time's circuit built, compiled and drawn afresh."""
    table = FeedforwardTable()
    values = np.empty(times.size)
    for it, t in enumerate(times):
        circuit = _fresh_circuit(ham, t, r, noise, feedforward, table)
        batch = CompiledCircuit(circuit).apply(columns,
                                               _fresh_angles(circuit, noise, range(runs), it))
        total = 0.0
        for run in range(runs):
            total += reduce(it, batch[run])
        values[it] = total / runs
    return values


NOISE_CASES = [
    # (noise, feedforward)
    (NoiseParams(c2=0.05, seed=11), False),
    (NoiseParams(c2=0.05, seed=11, correlated=False), False),
    (NoiseParams(c2=0.05, seed=11), True),
]


@pytest.mark.parametrize("noise,feedforward", NOISE_CASES)
def test_fidelity_trace_is_bitwise_the_fresh_per_time_reference(noise, feedforward):
    ham, times, runs = four_spin(seed=3), np.linspace(0.0, 2.0, 5), 3
    got = fidelity_trace(ham, times, 2, noise=noise, feedforward=feedforward, n_runs=runs)
    exact = ExactEvolver(ham)
    targets = [exact.unitary(t) for t in times]
    want = _fresh_average(ham, times, 2, noise, feedforward, runs, np.eye(16, dtype=complex),
                          lambda it, u1: abs(np.vdot(u1, targets[it]) / 16) ** 2)
    assert got.fidelity.tobytes() == want.tobytes()


@pytest.mark.parametrize("noise,feedforward", NOISE_CASES)
def test_noisy_response_is_bitwise_the_fresh_per_time_reference(noise, feedforward):
    ham, times, runs = four_spin(seed=3), np.linspace(0.0, 2.0, 5), 3
    got = noisy_response(ham, times, 2, noise, feedforward=feedforward, n_runs=runs)
    columns, magnetization = _magnetization_reduce(4)
    want = _fresh_average(ham, times, 2, noise, feedforward, runs, columns, magnetization)
    assert got.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("noise,feedforward", NOISE_CASES)
def test_realized_angles_are_bitwise_the_fresh_per_time_reference(noise, feedforward):
    ham, times = four_spin(seed=3), np.linspace(0.0, 2.0, 5)
    ev = TrotterEvolver(ham, 2, noise=noise, feedforward=feedforward)
    table = FeedforwardTable()
    for it, t in enumerate(times):
        circuit = ev.circuit_for(t)
        want = _fresh_angles(_fresh_circuit(ham, t, 2, noise, feedforward, table), noise,
                             range(3), it)
        for run in range(3):
            assert np.array(ev.realized_angles(circuit, run, t)).tobytes() \
                == want[:, run].tobytes()


def test_realized_angles_of_a_foreign_circuit_use_its_own_times_and_mask():
    ham, noise = four_spin(seed=3), NoiseParams(c2=0.05, seed=11)
    ev = TrotterEvolver(ham, 2, noise=noise)
    own = ev.circuit_for(1.0)
    # Same gates as the evolver's own circuit, but a later, slower schedule.
    later = build_trotter_circuit(ham, 1.0, 2, GateTiming(t_g=0.03))
    assert [g.spec for g in later.gates] == [g.spec for g in own.gates]
    got = np.array(ev.realized_angles(later, 2, 1.0))
    assert got.tobytes() == _fresh_angles(later, noise, [2], 0)[:, 0].tobytes()
    assert not np.array_equal(got, ev.realized_angles(own, 2, 1.0))


def test_feedforward_replaced_through_gates_reaches_the_engine(monkeypatch):
    # A corrected circuit whose noisy angles are halved through dataclasses.replace(...,
    # gates=...) must be what the evolver evolves: its arrays come from the new gates.
    ham, noise = four_spin(seed=5), NoiseParams(c2=0.05, seed=2)
    columns = np.eye(16, dtype=complex)[:, :3]
    good = TrotterEvolver(ham, 2, noise=noise, feedforward=True).evolve_runs(columns, 1.0, [0])
    original = spectroscopy.correct_circuit
    made = []

    def worse(circuit, c2, table=None):
        corrected = original(circuit, c2, table)
        gates = tuple(dataclasses.replace(
            g, spec=dataclasses.replace(g.spec, angle=0.5 * g.spec.angle)) if g.noisy else g
            for g in corrected.gates)
        made.append(dataclasses.replace(corrected, gates=gates))
        return made[-1]

    monkeypatch.setattr(spectroscopy, "correct_circuit", worse)
    bad = TrotterEvolver(ham, 2, noise=noise, feedforward=True).evolve_runs(columns, 1.0, [0])
    assert not np.allclose(bad, good)
    want = CompiledCircuit(made[0]).apply(columns, _fresh_angles(made[0], noise, [0], 0)[:, 0])
    assert bad[0].tobytes() == want.tobytes()


def test_evolution_never_builds_the_per_gate_view(monkeypatch):
    # Build, feedforward correction and both run-averaged reductions read only the arrays.
    def no_view(self, name):
        raise AssertionError(f"read {name}")

    monkeypatch.setattr(TimedCircuit, "__getattr__", no_view)
    ham, noise = four_spin(seed=6), NoiseParams(c2=0.05, seed=1)
    times = np.linspace(0.0, 1.0, 3)
    fidelity_trace(ham, times, 2, noise=noise, feedforward=True, n_runs=2)
    noisy_response(ham, times, 2, noise, feedforward=True, n_runs=2)


def test_each_evolver_compiles_one_plan(monkeypatch):
    built = []
    original = CompiledCircuit.__init__

    def counting(self, circuit):
        built.append(circuit)
        original(self, circuit)

    monkeypatch.setattr(CompiledCircuit, "__init__", counting)
    ham, times = four_spin(seed=3), np.linspace(0.0, 2.0, 5)
    noise = NoiseParams(c2=0.05, seed=11)
    fidelity_trace(ham, times, 2, noise=noise, n_runs=3)
    assert len(built) == 1
    noisy_response(ham, times, 3, noise, feedforward=True, n_runs=3)
    assert len(built) == 2
    ev = TrotterEvolver(ham, 2, noise=noise)
    for t in times:
        for run in range(3):
            ev.evolve(np.eye(16, dtype=complex), run, t)
        ev.evolve_runs(np.eye(16, dtype=complex), t, range(3))
    assert len(built) == 3


def test_cached_exact_evolver_is_shared_not_a_switch():
    # every result read through ham.exact equals one from a fresh eigendecomposition
    ham, times = four_spin(seed=3), np.linspace(0.0, 2.0, 5)
    fresh = ExactEvolver(ham)
    columns, magnetization = _magnetization_reduce(ham.n_spins)
    want = [magnetization(it, fresh.evolve(columns, t)) for it, t in enumerate(times)]
    assert exact_response(ham, times).values.tobytes() == np.array(want).tobytes()
    assert ham.exact is ham.exact
    assert ham.exact.eigenvectors.tobytes() == fresh.eigenvectors.tobytes()
    targets = [fresh.unitary(t) for t in times]
    noise = NoiseParams(c2=0.05, seed=11)
    want = _fresh_average(ham, times, 2, noise, False, 2, np.eye(16, dtype=complex),
                          lambda it, u1: abs(np.vdot(u1, targets[it]) / 16) ** 2)
    got = fidelity_trace(ham, times, 2, noise=noise, n_runs=2)
    assert got.fidelity.tobytes() == want.tobytes()


def _exact_noise_average(ham, t, r, timing, c2):
    """E[U (x) U*] of the `correlated=False` Trotter circuit, without Monte Carlo.

    Its gates draw independent noise, so the average is the ordered product
    of each gate's own E[U_g (x) U_g*]. Only XX gates are noisy: with
    theta = phi e^-u, u ~ Exponential(mean c2 tau), U_g = c I - i s P with
    c, s = cos, sin(theta / 4) and P the real X_i X_j, so the average needs
    E[c^2] = (1 + E cos(theta/2)) / 2, E[s^2] = (1 - E cos(theta/2)) / 2
    and E[c s] = E sin(theta/2) / 2, each a quadrature over u = c2 tau w.
    """
    from functools import reduce

    from scipy.integrate import quad

    from ioncodesign.spinsim import GateSpec
    from oracle import gate_matrix

    circuit = build_trotter_circuit(ham, t, r, timing)
    n, dim = circuit.n_qubits, 2**circuit.n_qubits
    eye = np.eye(dim)
    total = np.eye(dim * dim, dtype=complex)
    for kind, sites, phi, tau in zip(circuit.kinds, circuit.sites, circuit.angles,
                                     circuit.start_times):
        if kind != "XX":
            gate = gate_matrix(GateSpec(kind, sites, phi), n)
            total = np.kron(gate, gate.conj()) @ total
            continue
        lam = c2 * tau
        mean_cos, mean_sin = (quad(lambda w: f(phi * np.exp(-lam * w) / 2.0) * np.exp(-w),
                                   0.0, np.inf, epsabs=1e-13, epsrel=1e-12)[0]
                              for f in (np.cos, np.sin))
        pauli = reduce(np.kron, [np.array([[0.0, 1.0], [1.0, 0.0]]) if k in sites
                                 else np.eye(2) for k in range(n)])
        total = ((1.0 + mean_cos) / 2.0 * np.kron(eye, eye)
                 + 0.5j * mean_sin * (np.kron(eye, pauli) - np.kron(pauli, eye))
                 + (1.0 - mean_cos) / 2.0 * np.kron(pauli, pauli)) @ total
    return total


def _exact_f_and_s(ham, t, r, timing, c2):
    """E[F(t)] and E[S(t)] from `_exact_noise_average`, M = E[U (x) U*]:
    F = <T (x) T*, M> / d^2 with T the exact unitary, and S weighs
    E|U_kj|^2 = M[(k, k), (j, j)] by S^z_tot at k and j's weight in S."""
    average = _exact_noise_average(ham, t, r, timing, c2)
    dim = 2**ham.n_spins
    target = ham.exact.unitary(t)
    fidelity = np.real(np.vdot(np.kron(target, target.conj()), average)) / dim**2
    diag = sz_tot_diagonal(ham.n_spins)
    populations = np.real(average[np.ix_(np.arange(dim) * (dim + 1),
                                         np.arange(dim) * (dim + 1))])
    positive = diag > 0
    response = 2.0 * float((diag[positive] / dim) @ (diag @ populations[:, positive]))
    return float(fidelity), response


_ORACLE_HAMILTONIANS = {
    2: SpinHamiltonian(2, np.array([[0.0, 0.8], [0.8, 0.0]]), np.array([1.0, -2.0])),
    3: SpinHamiltonian(3, np.array([[0.0, 0.8, 0.3], [0.8, 0.0, -0.5], [0.3, -0.5, 0.0]]),
                       np.array([1.0, -2.0, 0.5])),
}


@pytest.mark.parametrize("n,r,t", [(2, 3, 1.0), (3, 2, 1.5)])
def test_exact_noise_average_reduces_to_the_noiseless_circuit(n, r, t):
    ham, timing = _ORACLE_HAMILTONIANS[n], GateTiming(t_g=0.05)
    fidelity, response = _exact_f_and_s(ham, t, r, timing, 0.0)
    assert fidelity == pytest.approx(fidelity_trace(ham, [t], r, timing).fidelity[0],
                                     abs=1e-12)
    assert response == pytest.approx(noisy_response(ham, [t], r, None, timing).values[0],
                                     abs=1e-12)


@pytest.mark.parametrize("n,r,t", [(2, 3, 1.0), (3, 2, 1.5)])
def test_uncorrelated_noise_averages_match_the_exact_channel(n, r, t):
    # Batch means over 20 seeds of 200 runs each give the standard error. The
    # exact values must lie within 4 of them; noise on RY/RZ, a lambda 10 % off
    # or correlated draws move F or S by more.
    ham, timing, c2 = _ORACLE_HAMILTONIANS[n], GateTiming(t_g=0.05), 0.5
    fidelity, response = _exact_f_and_s(ham, t, r, timing, c2)
    batches = np.array([
        (fidelity_trace(ham, [t], r, timing, noise, n_runs=200).fidelity[0],
         noisy_response(ham, [t], r, noise, timing, n_runs=200).values[0])
        for noise in (NoiseParams(c2=c2, seed=seed, correlated=False) for seed in range(20))])
    mean = batches.mean(axis=0)
    se = batches.std(axis=0, ddof=1) / np.sqrt(len(batches))
    assert np.all(np.abs(mean - [fidelity, response]) <= 4.0 * se), (mean, se,
                                                                      fidelity, response)
