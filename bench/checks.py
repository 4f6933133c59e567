"""Correctness checks computed apart from the package.

The reference computations here build their own operators from spin
matrices and Kronecker products, evolve with `scipy.linalg.expm`, reduce
responses, spectra and fidelities with their own code, and integrate the
noise averages by quadrature. Each `check_*` function returns a list of
failure messages; an empty list means the check passed. The per-workload
procedures (`check_sweep`, `check_infer`, `check_calibrate`) call the
package again only to reproduce a workload output exactly and to obtain
the noise realizations it drew.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm

from ioncodesign import harness, spectroscopy, trotter
from ioncodesign.feedforward import FeedforwardTable
from ioncodesign.hamiltonian import SpinHamiltonian
from ioncodesign.motional_noise import return_probability

# Spin-1/2 operators in the (down, up) local basis; S+ maps down to up.
_S_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SX = (_S_PLUS + _S_PLUS.T) / 2.0
SY = (_S_PLUS - _S_PLUS.T) / 2.0j
SZ = np.diag([-0.5, 0.5]).astype(complex)
_AXIS = {"X": SX, "Y": SY, "Z": SZ}

TOL_REALIZATION = 1e-10  # program evolution vs gate-by-gate expm product
TOL_REDUCTION = 1e-9  # F(t), S(t), f_int, d_h and spectra vs the references
TOL_EXACT = 1e-12  # identities that hold to rounding: F(0), S(0), reruns
TOL_FEEDFORWARD = 1e-9
TOL_RETURN_PROBABILITY = 1e-8
C2_REL_TOL = 0.05


def site_operator(op: np.ndarray, site: int, n: int) -> np.ndarray:
    """op on `site` of n spins; site 0 is the most significant factor."""
    out = np.ones((1, 1), dtype=complex)
    for s in range(n):
        out = np.kron(out, op if s == site else np.eye(2))
    return out


def heisenberg_matrix(J: np.ndarray, h: np.ndarray) -> np.ndarray:
    """sum_{i<j} J_ij S_i . S_j + sum_i h_i S^x_i."""
    n = len(h)
    ops = {a: [site_operator(m, i, n) for i in range(n)] for a, m in _AXIS.items()}
    H = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            for a in "XYZ":
                H += J[i, j] * ops[a][i] @ ops[a][j]
        H += h[i] * ops["X"][i]
    return H


def sz_total(n: int) -> np.ndarray:
    """Diagonal of S^z_tot: (number of up spins) - n/2."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1
    return bits.sum(axis=1) - n / 2.0


def response_from_unitary(U: np.ndarray, n: int) -> float:
    """S = (2 / 2^N) sum_{m_j > 0} m_j <j|U^dag S^z_tot U|j>."""
    m = sz_total(n)
    cols = np.flatnonzero(m > 0)
    expect = m @ np.abs(U[:, cols]) ** 2
    return float(2.0 * np.sum(m[cols] * expect) / 2**n)


def exact_unitaries(J, h, times) -> list[np.ndarray]:
    H = heisenberg_matrix(J, h)
    return [expm(-1j * H * t) for t in times]


def embed(local: np.ndarray, sites, n: int) -> np.ndarray:
    """Full matrix of `local`, whose factors act on `sites` in that order."""
    k = len(sites)
    tensor = np.kron(local, np.eye(2 ** (n - k))).reshape((2,) * (2 * n))
    order = list(sites) + [s for s in range(n) if s not in sites]
    axes = [order.index(s) for s in range(n)]
    return tensor.transpose(axes + [n + a for a in axes]).reshape(2**n, 2**n)


def gate_unitary(kind: str, sites, angle: float, n: int) -> np.ndarray:
    """R^a(phi) = exp(-i S^a phi / 2); XX(phi) = exp(-i phi S^x_i S^x_j)."""
    if kind == "XX":
        return embed(expm(-1j * angle * np.kron(SX, SX)), sites, n)
    return embed(expm(-0.5j * angle * _AXIS[kind[1]]), sites, n)


def circuit_product(circuit, angles) -> np.ndarray:
    n = circuit.n_qubits
    U = np.eye(2**n, dtype=complex)
    for gate, angle in zip(circuit.gates, angles):
        U = gate_unitary(gate.spec.kind, gate.spec.sites, angle, n) @ U
    return U


def trace_fidelity(U: np.ndarray, target: np.ndarray) -> float:
    return float(abs(np.trace(U.conj().T @ target) / U.shape[0]) ** 2)


def damped_spectrum(times, values, gamma, omega) -> np.ndarray:
    """Normalized clipped damped Fourier transform (trapezoidal weights)."""
    times, omega = np.asarray(times), np.asarray(omega)
    dt = times[1] - times[0]
    w = np.full(times.size, dt)
    w[[0, -1]] = dt / 2.0
    raw = np.array([np.sum(w * np.exp(-gamma * times) * values * np.cos(o * times))
                    for o in omega])
    clipped = np.maximum(raw, 0.0)
    return clipped / (clipped.sum() * (omega[1] - omega[0]) / (2.0 * np.pi))


def hellinger_distance(a: np.ndarray, b: np.ndarray, d_omega: float) -> float:
    return float(np.sqrt(0.5 * np.sum((np.sqrt(a) - np.sqrt(b)) ** 2) * d_omega / (2 * np.pi)))


def noisy_average(integrand, lam: float) -> float:
    """E[f(exp(-u))] for u ~ Exponential(mean lam), as int_0^1 f(v^lam) dv."""
    if lam == 0:
        return float(integrand(1.0))
    value, _ = quad(lambda v: integrand(v**lam), 0.0, 1.0, epsabs=1e-14, epsrel=1e-13,
                    limit=200)
    return value


def avg_fidelity_quad(phi_in: float, phi_p: float, lam: float) -> float:
    return noisy_average(lambda d: np.cos((phi_in * d - phi_p) / 4.0) ** 2, lam)


def return_probability_quad(phi_in: float, lam: float) -> float:
    return noisy_average(lambda d: np.cos(phi_in * d / 4.0) ** 2, lam)


# ---------------------------------------------------------------------------
# checks on outputs

def _close(label, got, want, tol) -> list[str]:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) if np.size(want) else 0.0
    return [] if err <= tol else [f"{label}: deviation {err:.3g} > {tol:g}"]


def check_fidelities(fidelity) -> list[str]:
    f = np.asarray(fidelity)
    out = []
    if np.any(f < -TOL_EXACT) or np.any(f > 1.0 + TOL_EXACT):
        out.append(f"F(t) outside [0, 1]: min {f.min():.6g}, max {f.max():.6g}")
    return out + _close("F(0) = 1", f[0], 1.0, TOL_EXACT)


def check_response_origin(values, n_spins: int) -> list[str]:
    return _close("S(0) = N/4", values[0], n_spins / 4.0, TOL_EXACT)


def check_unit_mass(label, a_norm, omega) -> list[str]:
    a_norm = np.asarray(a_norm)
    out = [] if np.all(a_norm >= 0) else [f"{label}: negative spectral weight"]
    mass = a_norm.sum() * (omega[1] - omega[0]) / (2.0 * np.pi)
    return out + _close(f"{label} unit mass", mass, 1.0, TOL_REDUCTION)


def check_hellinger_range(d_values) -> list[str]:
    d = np.asarray(d_values, dtype=float)
    return [] if np.all((d >= 0) & (d <= 1)) else [f"d_h outside [0, 1]: {d.tolist()}"]


def check_non_increasing(d_values) -> list[str]:
    bad = [k for k in range(1, len(d_values)) if d_values[k] > d_values[k - 1]]
    return [f"d_h increased at iterations {bad}"] if bad else []


def check_feedforward_angles(samples) -> list[str]:
    """samples: (corrected input, nominal angle, lambda) per noisy gate."""
    out = []
    for phi_in, phi_p, lam in samples:
        f_star = avg_fidelity_quad(phi_in, phi_p, lam)
        for label, base in (("nominal", phi_p), ("zero", 0.0)):
            f_base = avg_fidelity_quad(base, phi_p, lam)
            if f_star < f_base - TOL_FEEDFORWARD:
                out.append(f"corrected angle {phi_in!r} for phi_p={phi_p!r}, lam={lam!r} "
                           f"has fidelity {f_star:.12f} < {label} input {f_base:.12f}")
    return out


def check_c2_fit(c2_hat: float, c2_true: float, residual: float,
                 damping_residual: float) -> list[str]:
    out = []
    if not abs(c2_hat - c2_true) <= C2_REL_TOL * c2_true:
        out.append(f"c2_hat {c2_hat!r} not within {C2_REL_TOL:.0%} of {c2_true!r}")
    if not residual < damping_residual:
        out.append(f"fit residual {residual!r} not below phase damping {damping_residual!r}")
    return out


def check_return_probability(phi_grid, lam_grid, program_values) -> list[str]:
    """program_values[i][j] = return_probability(phi_grid[i], lam_grid[j])."""
    want = [[return_probability_quad(p, lam) for lam in lam_grid] for p in phi_grid]
    return _close("return_probability vs quadrature", program_values, want,
                  TOL_RETURN_PROBABILITY)


# ---------------------------------------------------------------------------
# per-workload procedures

def _sample(seed: int, salt: int, population: int, k: int) -> list[int]:
    rng = np.random.default_rng([seed, salt])
    return sorted(rng.choice(population, size=min(k, population), replace=False).tolist())


def _exact_target(config) -> tuple[list[np.ndarray], np.ndarray]:
    ham = config.hamiltonian
    times = config.times()
    unitaries = exact_unitaries(ham.J, ham.h, times)
    values = [response_from_unitary(U, ham.n_spins) for U in unitaries]
    return unitaries, damped_spectrum(times, values, config.gamma, config.omega_grid())


def check_target(program_target, config) -> tuple[list[str], list[np.ndarray], np.ndarray]:
    unitaries, target = _exact_target(config)
    fails = _close("exact target spectrum vs expm", program_target.a_norm, target,
                   TOL_REDUCTION)
    fails += check_unit_mass("target spectrum", program_target.a_norm, config.omega_grid())
    return fails, unitaries, target


def check_depth(config, r: int, n_runs: int, fidelity, response, seed: int,
                exact_unitaries_: list[np.ndarray], table: FeedforwardTable) -> list[str]:
    """Recompute sampled points of F(t) and S(t) at depth r gate by gate.

    The noise realizations come from `TrotterEvolver.realized_angles`,
    with every sample time registered in grid order first, as the
    package's own loops do. Each sampled realization must match the
    package's evolution, and the run averages must match its F(t), S(t).
    """
    ham, times, noise = config.hamiltonian, config.times(), config.noise()
    timing = config.timing()
    ev = spectroscopy.TrotterEvolver(ham, r, timing, noise, config.feedforward, table=table)
    for t in times:
        ev.realized_angles(trotter.build_trotter_circuit(ham, t, r, timing), 0, t)
    fails, ff_samples = [], []
    runs = n_runs if noise is not None else 1
    eye = np.eye(2**ham.n_spins, dtype=complex)
    for it in _sample(seed, 1, len(times) - 1, 2):
        t = times[it + 1]
        circuit = ev.circuit_for(t)
        f_sum = s_sum = 0.0
        for run in range(runs):
            angles = ev.realized_angles(circuit, run, t)
            U = circuit_product(circuit, angles)
            if run == 0:
                fails += _close(f"realization r={r} t={t:g} run 0 vs expm product",
                                ev.evolve(eye, run, t), U, TOL_REALIZATION)
            f_sum += trace_fidelity(U, exact_unitaries_[it + 1])
            s_sum += response_from_unitary(U, ham.n_spins)
        if fidelity is not None:
            fails += _close(f"F({t:g}) at r={r}", fidelity[it + 1], f_sum / runs,
                            TOL_REDUCTION)
        fails += _close(f"S({t:g}) at r={r}", response[it + 1], s_sum / runs, TOL_REDUCTION)
        if config.feedforward and noise is not None:
            nominal = trotter.build_trotter_circuit(ham, t, r, timing)
            noisy = [m for m, g in enumerate(circuit.gates) if g.noisy]
            for m in _sample(seed, 2 + it, len(noisy), 6):
                g = circuit.gates[noisy[m]]
                ff_samples.append((g.spec.angle, nominal.gates[noisy[m]].spec.angle,
                                   noise.c2 * g.start_time))
    return fails + check_feedforward_angles(ff_samples)


def check_sweep(config, result, seed: int) -> list[str]:
    ham, times, omega = config.hamiltonian, config.times(), config.omega_grid()
    program_target = harness.exact_spectrum(config)
    fails, unitaries, target = check_target(program_target, config)
    records = result.records
    if [rec["r"] for rec in records] != list(config.r_values):
        return fails + [f"sweep depths {[rec['r'] for rec in records]} != {config.r_values}"]
    fails += check_hellinger_range([rec["d_h"] for rec in records])
    r = config.r_values[0]
    runs = config.runs(harness.SWEEP_RUNS_DEFAULT)
    # The package reproduces the sweep's first depth exactly ...
    table = FeedforwardTable()
    trace = spectroscopy.fidelity_trace(ham, times, r, config.timing(), config.noise(),
                                        feedforward=config.feedforward, n_runs=runs,
                                        table=table)
    series, spec = harness.simulate_spectrum(config, r=r, n_runs=runs, table=table)
    fails += _close(f"f_int rerun at r={r}", trace.f_int, records[0]["f_int"], TOL_EXACT)
    fails += _close(f"d_h rerun at r={r}", spectroscopy.hellinger(spec, program_target),
                    records[0]["d_h"], TOL_EXACT)
    # ... which must have the method's properties ...
    fails += check_fidelities(trace.fidelity)
    fails += check_response_origin(series.values, ham.n_spins)
    fails += check_unit_mass(f"spectrum at r={r}", spec.a_norm, omega)
    # ... reduce to the recorded f_int and d_h with independent code ...
    f_int = np.trapezoid(trace.fidelity, times) / (times[-1] - times[0])
    fails += _close(f"f_int at r={r}", records[0]["f_int"], f_int, TOL_REDUCTION)
    mine = damped_spectrum(times, series.values, config.gamma, omega)
    fails += _close(f"d_h at r={r}", records[0]["d_h"],
                    hellinger_distance(mine, target, omega[1] - omega[0]), TOL_REDUCTION)
    # ... and agree with a gate-by-gate product at sampled times.
    return fails + check_depth(config, r, runs, trace.fidelity, series.values, seed,
                               unitaries, table)


def check_infer(inputs, result, seed: int) -> list[str]:
    config = inputs.config
    program_target, log = result
    fails, unitaries, _ = check_target(program_target, config)
    if len(log) != inputs.iterations + 1:
        return fails + [f"inference log has {len(log)} entries, want {inputs.iterations + 1}"]
    d_values = [rec["d_h"] for rec in log]
    fails += check_hellinger_range(d_values) + check_non_increasing(d_values)
    # Rebuild the final Hamiltonian from the logged parameters, rerun its
    # spectrum through the package and compare with the logged distance.
    pairs = inputs.guess.coupled_pairs()
    params = log[-1]["params"]
    n = inputs.guess.n_spins
    J = np.zeros((n, n))
    for k, (i, j) in enumerate(pairs):
        J[i, j] = J[j, i] = params[k]
    final = SpinHamiltonian(n, J, np.array(params[len(pairs):]))
    final_config = dataclasses.replace(config, hamiltonian=final)
    runs = config.runs(harness.SWEEP_RUNS_DEFAULT)
    table = FeedforwardTable()
    series, spec = harness.simulate_spectrum(final_config, n_runs=runs, table=table)
    fails += _close("final d_h rerun", spectroscopy.hellinger(spec, program_target),
                    d_values[-1], TOL_EXACT)
    fails += check_response_origin(series.values, n)
    fails += check_unit_mass("final spectrum", spec.a_norm, config.omega_grid())
    final_unitaries = exact_unitaries(J, final.h, config.times())
    return fails + check_depth(final_config, config.r, runs, None, series.values, seed,
                               final_unitaries, table)


def check_calibrate(inputs, result, seed: int) -> list[str]:
    curve, fit, damping = result
    fails = []
    if curve.p_return.shape != (inputs.phi_grid.size, inputs.tau_grid.size):
        return [f"calibration data has shape {curve.p_return.shape}"]
    if np.any((curve.p_return < 0) | (curve.p_return > 1)):
        fails.append("calibration probabilities outside [0, 1]")
    fails += check_c2_fit(fit["c2_hat"], inputs.c2_true, fit["residual"], damping["residual"])
    lams = inputs.c2_true * inputs.tau_grid
    program = [[return_probability(p, lam) for lam in lams] for p in inputs.phi_grid]
    fails += check_return_probability(inputs.phi_grid, lams, program)
    # The fit's residual, recomputed with quadrature model values.
    model = np.array([[return_probability_quad(p, fit["c2_hat"] * tau)
                       for tau in inputs.tau_grid] for p in inputs.phi_grid])
    residual = float(np.sum((curve.p_return - model) ** 2))
    return fails + _close("fit_c2 residual vs quadrature", fit["residual"], residual,
                          TOL_RETURN_PROBABILITY)


CHECKS = {"sweep": check_sweep, "infer": check_infer, "calibrate": check_calibrate}
