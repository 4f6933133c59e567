"""Magnetization response, damped-Fourier spectra, and fidelity metrics.

The response S(t), the infinite-temperature autocorrelation of the total
magnetization from the basis states with positive magnetization, and the
trace fidelity F(t) against exact evolution are two run-averaged
reductions of `TrotterEvolver` batches. Their noise depends on (seed,
run, time index), where the time index of t is the order in which the
evolver first sees t; both reductions go through the time grid in order,
so for them the time index is the grid position. The damped Fourier
transform of S(t) is the spectrum; Hellinger distance between spectra,
and F(t), score circuits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .feedforward import FeedforwardTable, correct_circuit
from .hamiltonian import SpinHamiltonian
from .motional_noise import NoiseParams, sample_trajectory
from .spinsim import CompiledCircuit, sz_tot_diagonal
from .rules import check
from .trotter import GateTiming, TimedCircuit, build_trotter_circuit


@dataclass
class ResponseSeries:
    times: np.ndarray  # ms, uniform grid from 0
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have equal length")


@dataclass
class Spectrum:
    omega: np.ndarray  # rad/ms
    a_raw: np.ndarray
    a_norm: np.ndarray  # non-negative, sums (x d_omega / 2pi) to 1


@dataclass
class FidelityTrace:
    fidelity: np.ndarray
    f_int: float


def _magnetization(n_spins: int):
    """The basis states with m_j > 0 as columns, and the S(t) reduce of them.

    S(t) = 2 sum_{j: m_j > 0} (m_j / 2^N) <z_j(t)| S^z_tot |z_j(t)>, where
    column j of the evolved (2^N, k) array is |z_j(t)>.
    """
    dim = 2**n_spins
    diag = sz_tot_diagonal(n_spins)
    positive = np.flatnonzero(diag > 0)
    columns, weights = np.eye(dim, dtype=complex)[:, positive], diag[positive] / dim

    def magnetization(it, evolved):
        expect = np.real(np.einsum("d,dk->k", diag, np.abs(evolved) ** 2))
        return 2.0 * float(weights @ expect)

    return columns, magnetization


def exact_response(ham: SpinHamiltonian, times) -> ResponseSeries:
    """S(t) under exact evolution."""
    times = np.asarray(times, dtype=float)
    columns, magnetization = _magnetization(ham.n_spins)
    return ResponseSeries(times, [magnetization(it, ham.exact.evolve(columns, t))
                                  for it, t in enumerate(times)])


class TrotterEvolver:
    """Trotterized evolution with optional motional noise and feedforward.

    Noise with c2 = 0 counts as no noise. For noisy evolution one run is
    one diffusion path; within one run all initial states share the same
    path. Seeds derive deterministically from (seed, run index, time index),
    where the time index of t is the order in which this evolver first
    sees t: a caller that goes through the time grid in order, as
    `noisy_response` and `fidelity_trace` do, gets time index = grid
    position. That is why `bench/checks.py` registers every grid time in
    order before it reproduces a realization.

    Every circuit of one evolver has the same gates, sites, start times
    and noise mask; only the angles change with t. The first circuit
    `circuit_for` makes therefore fixes the evolver's `CompiledCircuit`
    plan, which `evolve_runs` (and `evolve`, its one-run block) applies
    to each time's angle array, drawn from the circuit's own arrays.
    """

    def __init__(self, ham: SpinHamiltonian, r: int, timing: GateTiming = GateTiming(),
                 noise: NoiseParams | None = None, feedforward: bool = False,
                 table: FeedforwardTable | None = None):
        check("r", r)
        self.ham = ham
        self.r = r
        self.timing = timing
        self.noise = noise if noise is not None and noise.c2 > 0 else None
        self.feedforward = feedforward
        self.table = table if table is not None else FeedforwardTable()
        self._time_index = {}
        self._plan = None

    def runs(self, n_runs: int) -> int:
        """Noise runs worth averaging: one when the evolution is deterministic."""
        check("n_runs", n_runs)
        return n_runs if self.noise is not None else 1

    def circuit_for(self, t: float) -> TimedCircuit:
        """The circuit approximating exp(-iHt), feedforward-corrected if enabled."""
        circuit = build_trotter_circuit(self.ham, t, self.r, self.timing)
        if self.feedforward and self.noise is not None:
            circuit = correct_circuit(circuit, self.noise.c2, self.table)
        if self._plan is None:
            self._plan = CompiledCircuit(circuit)
        return circuit

    def evolve(self, columns: np.ndarray, run: int, t: float) -> np.ndarray:
        """Columns evolved under noise realization `run` at time t."""
        return self.evolve_runs(columns, t, [run])[0]

    def evolve_runs(self, columns: np.ndarray, t: float, runs) -> np.ndarray:
        """The (2^N, k) columns evolved under each run in `runs`: (len(runs), 2^N, k)."""
        circuit = self.circuit_for(t)
        return self._plan.apply(columns, self._angles(circuit, t, runs))

    def realized_angles(self, circuit: TimedCircuit, run: int, t: float) -> list[float]:
        """Noisy angle realization for one run; nominal if noiseless.

        The circuit's own start times and noise mask are used, so it need
        not be one this evolver made.
        """
        return self._angles(circuit, t, [run])[:, 0].tolist()

    def _angles(self, circuit: TimedCircuit, t: float, runs) -> np.ndarray:
        """(gates, len(runs)) realized angles, one column per noise run.

        Run `run` at the time index of t draws its diffusion path from
        SeedSequence(seed, spawn_key=(run, time index)); the path damps
        each noisy gate's angle by exp(-u).
        """
        nominal = circuit.angles[:, None]
        if self.noise is None:
            return np.repeat(nominal, len(runs), axis=1)
        it = self._time_index.setdefault(float(t), len(self._time_index))
        rngs = [np.random.default_rng(np.random.SeedSequence(entropy=self.noise.seed,
                                                             spawn_key=(run, it)))
                for run in runs]
        u = sample_trajectory(circuit.start_times, self.noise, rngs)
        return np.where(circuit.noisy[:, None], nominal * np.exp(-u), nominal)


def _run_average(ev: TrotterEvolver, times: np.ndarray, n_runs: int, columns: np.ndarray,
                 reduce) -> np.ndarray:
    """Per time, the mean over the evolver's noise runs of reduce(it, evolved run).

    Times are the outer loop, so the evolver registers them in grid
    order; per time the run values are added in run order, each reduced
    on its run's block of the realization-major batch.
    """
    runs = ev.runs(n_runs)
    values = np.empty(times.size)
    for it, t in enumerate(times):
        total = 0.0
        for evolved in ev.evolve_runs(columns, t, range(runs)):
            total += reduce(it, evolved)
        values[it] = total / runs
    return values


def noisy_response(ham: SpinHamiltonian, times, r: int, noise: NoiseParams | None,
                   timing: GateTiming = GateTiming(), feedforward: bool = False,
                   n_runs: int = 1, table: FeedforwardTable | None = None) -> ResponseSeries:
    """Run-averaged Trotterized response: mean of S(t) over diffusion paths.

    With `noise` None (or c2 = 0) this is the noiseless Trotter response.
    """
    times = np.asarray(times, dtype=float)
    ev = TrotterEvolver(ham, r, timing, noise, feedforward, table)
    columns, magnetization = _magnetization(ham.n_spins)
    return ResponseSeries(times, _run_average(ev, times, n_runs, columns, magnetization))


def spectrum(series: ResponseSeries, gamma: float, omega_grid) -> Spectrum:
    """Damped Fourier transform with trapezoidal weights, then a clipped
    and normalized copy suitable for Hellinger comparisons. The times and
    omega_grid must each be increasing and evenly spaced."""
    check("gamma", gamma)
    omega_grid = np.asarray(omega_grid, dtype=float)
    t = series.times
    dt = _grid_step(t, "times", 0.0)
    d_omega = _grid_step(omega_grid, "omega_grid", 1.0)
    weights = np.full(t.size, 1.0)
    weights[0] = weights[-1] = 0.5
    damped = weights * np.exp(-gamma * t) * series.values * dt
    a_raw = np.real(np.exp(1j * np.outer(omega_grid, t)) @ damped)
    clipped = np.clip(a_raw, 0.0, None)
    mass = clipped.sum() * d_omega / (2.0 * np.pi)
    if mass <= 0:
        raise ValueError("spectrum has no positive weight; cannot normalize")
    return Spectrum(omega_grid, a_raw, clipped / mass)


def _grid_step(grid: np.ndarray, name: str, single: float) -> float:
    """The step of an increasing grid whose steps agree to a relative 1e-9,
    give or take the few ulps of its largest point that linspace rounds
    each point by; `single` for a grid of one point."""
    if grid.size < 2:
        return single
    with np.errstate(over="ignore"):  # a step past the float range is rejected below
        steps = np.diff(grid)
    if not 0 < steps[0] < np.inf:
        raise ValueError(f"{name} must be increasing and evenly spaced")
    slack = 1e-9 * steps[0] + 4.0 * np.spacing(np.abs(grid).max())
    if not np.all(np.abs(steps - steps[0]) <= slack):
        raise ValueError(f"{name} must be increasing and evenly spaced")
    return steps[0]


def hellinger(a: Spectrum, b: Spectrum) -> float:
    """Hellinger distance between two normalized spectra on one (identical) grid."""
    if not np.array_equal(a.omega, b.omega):
        raise ValueError("spectra must share the same frequency grid")
    d_omega = _grid_step(a.omega, "omega", 1.0)
    d2 = 0.5 * np.sum((np.sqrt(a.a_norm) - np.sqrt(b.a_norm)) ** 2) * d_omega / (2.0 * np.pi)
    return float(np.sqrt(min(max(d2, 0.0), 1.0)))


def fidelity_trace(ham: SpinHamiltonian, times, r: int,
                   timing: GateTiming = GateTiming(),
                   noise: NoiseParams | None = None, feedforward: bool = False,
                   n_runs: int = 1, table: FeedforwardTable | None = None) -> FidelityTrace:
    """F(t) = |Tr(U1(t)^dag U(t)) / 2^N|^2 averaged over noise runs."""
    times = np.asarray(times, dtype=float)
    ev = TrotterEvolver(ham, r, timing, noise, feedforward, table)
    dim = 2**ham.n_spins
    # each exact target is made when its time is reached, after the circuit
    # builder has checked that time
    target = functools.cache(lambda it: ham.exact.unitary(times[it]))

    def trace_fidelity(it, u1):
        return abs(np.vdot(u1, target(it)) / dim) ** 2

    fid = _run_average(ev, times, n_runs, np.eye(dim, dtype=complex), trace_fidelity)
    if times.size > 1 and times[-1] > times[0]:
        f_int = float(np.trapezoid(fid, times) / (times[-1] - times[0]))
    else:
        f_int = float(fid[0])
    return FidelityTrace(fid, f_int)

