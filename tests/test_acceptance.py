"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Each test prints a single `criterion N: PASS` line with the measured
quantities; a pytest failure on any assertion marks that criterion FAIL.
Tolerances are pinned in the assertions, not configurable.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from ioncodesign import default_instance
from ioncodesign.calibration import fit_c2, fit_phase_damping, simulate_calibration
from ioncodesign.cli import main
from ioncodesign.feedforward import ControlQuery, avg_gate_fidelity, optimal_input_angle
from ioncodesign.hamiltonian import SpinHamiltonian
from ioncodesign.harness import ExperimentConfig, exact_spectrum, perturbed_instance, run_depth_sweep, run_inference_demo
from ioncodesign.motional_noise import (
    NoiseParams,
    angle_correlation,
    angle_moments,
    AngleDistribution,
    noisy_angle,
    return_probability,
    sample_trajectory,
    sample_u_pairs,
)
from ioncodesign.spectroscopy import exact_response, spectrum
from ioncodesign.trotter import trotter_error


def _random_instance(n, seed):
    rng = np.random.default_rng(seed)
    J = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            J[i, j] = J[j, i] = rng.uniform(-1, 1)
    return SpinHamiltonian(n, J, rng.uniform(-5, 5, n))


def test_criterion_01_noise_law_exactness():
    start = time.perf_counter()
    phi_in = np.pi / 2
    c2 = 0.1
    worst_mean = worst_var = worst_ks = 0.0
    for lam in (0.1, 1.0, 10.0):
        tau = lam / c2
        params = NoiseParams(c2=c2, seed=20, correlated=False)
        rng = np.random.default_rng(20)
        u = sample_trajectory(np.full(100000, tau), params, [rng])[:, 0]
        phis = noisy_angle(phi_in, u)
        moments = angle_moments(AngleDistribution(phi_in, lam))
        mean_err = abs(phis.mean() - moments["mean"]) / moments["mean"]
        var_err = abs(phis.var() - moments["variance"]) / moments["variance"]
        cdf = lambda x, lam=lam: np.clip(x / phi_in, 0.0, 1.0) ** (1.0 / lam)
        ks = kstest(phis, cdf).statistic
        assert mean_err < 0.02
        assert var_err < 0.02
        assert ks < 0.01
        worst_mean = max(worst_mean, mean_err)
        worst_var = max(worst_var, var_err)
        worst_ks = max(worst_ks, ks)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 1: PASS (mean err {worst_mean:.4f}, var err {worst_var:.4f}, "
          f"KS {worst_ks:.4f}, {elapsed:.1f}s)")


def test_criterion_02_return_probability():
    start = time.perf_counter()
    phi_grid = np.linspace(0.2, 2 * np.pi, 20)
    lam_grid = (0.1, 0.5, 1.0, 3.0)
    worst_quad = 0.0
    for lam in lam_grid:
        for phi_in in phi_grid:
            numeric, _ = quad(
                lambda u: np.cos(phi_in * np.exp(-u) / 4.0) ** 2
                * np.exp(-u / lam) / lam, 0.0, np.inf, epsabs=1e-12)
            worst_quad = max(worst_quad, abs(return_probability(phi_in, lam) - numeric))
    assert worst_quad < 1e-8
    rng = np.random.default_rng(2)
    n_shots = 100000
    worst_sigma = 0.0
    for lam in lam_grid:
        for phi_in in phi_grid:
            u = rng.exponential(lam, n_shots)
            prob = np.cos(phi_in * np.exp(-u) / 4.0) ** 2
            hits = (rng.random(n_shots) < prob).mean()
            p = return_probability(phi_in, lam)
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / n_shots)
            worst_sigma = max(worst_sigma, abs(hits - p) / sigma)
    assert worst_sigma < 3.0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 2: PASS (quad err {worst_quad:.2e}, "
          f"worst MC deviation {worst_sigma:.2f} sigma, {elapsed:.1f}s)")


def test_criterion_03_correlations():
    c2 = 0.02
    rng = np.random.default_rng(3)
    n = 200000
    worst = 0.0
    for tau in (5.0, 10.0, 20.0, 40.0, 80.0):
        for delta in (1.0, 5.0, 10.0, 50.0, 100.0):
            u1, u2 = sample_u_pairs(tau, delta, c2, n, rng)
            phi1, phi2 = np.exp(-u1), np.exp(-u2)
            rho_hat = np.corrcoef(phi1, phi2)[0, 1]
            rho = angle_correlation(tau, delta, c2)
            se = (1 - rho**2) / math.sqrt(n - 3)
            worst = max(worst, abs(rho_hat - rho) / se)
            assert abs(rho_hat - rho) < 3 * se
    worst_limit = 0.0
    for delta in (1.0, 10.0, 100.0):
        late = angle_correlation(1e4 / c2, delta, c2)
        worst_limit = max(worst_limit, abs(late - 1.0 / (1.0 + c2 * delta / 2.0)))
    assert worst_limit < 1e-3
    print(f"criterion 3: PASS (worst MC deviation {worst:.2f} SE, "
          f"late-time limit err {worst_limit:.2e})")


def test_criterion_04_calibration_round_trip():
    start = time.perf_counter()
    c2_true = 0.02
    curve = simulate_calibration(np.linspace(0.5, 2 * np.pi, 8),
                                 np.linspace(0.0, 60.0, 13),
                                 c2_true=c2_true, shots=10000, seed=0)
    fit = fit_c2(curve)
    rel_err = abs(fit["c2_hat"] - c2_true) / c2_true
    damping = fit_phase_damping(curve)
    assert rel_err < 0.05
    assert fit["residual"] < damping["residual"]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 4: PASS (c2_hat {fit['c2_hat']:.5f}, rel err {rel_err:.3f}, "
          f"residual {fit['residual']:.3g} < phase damping {damping['residual']:.3g}, "
          f"{elapsed:.1f}s)")


def test_criterion_05_trotter_order():
    slopes = []
    for seed in (2, 3, 4):
        ham = _random_instance(3, seed)
        t = 2.0
        rs = np.array([4, 8, 16, 32])
        errors = np.array([trotter_error(ham, t, int(r)) for r in rs])
        slope = np.polyfit(np.log(t / rs), np.log(errors), 1)[0]
        assert 0.9 <= slope <= 1.1
        slopes.append(slope)
    print(f"criterion 5: PASS (log-log slopes {[f'{s:.3f}' for s in slopes]})")


def test_criterion_06_feedforward_dominance():
    cap = 2 * math.pi
    phi_grid = np.linspace(4 * math.pi / 50, 4 * math.pi, 50)
    lam_grid = (1e-4, 0.1, 0.5, 1.0, 2.0, 5.0)
    tracking = cap_regime = cap_half = do_nothing = 0
    for lam in lam_grid:
        for phi_p in phi_grid:
            res = optimal_input_angle(ControlQuery(float(phi_p), lam, cap))
            f_star, p_star = res["fidelity_star"], res["phi_in_star"]
            # baselines: the feasible naive input and doing nothing
            naive = min(float(phi_p), cap)
            assert f_star >= avg_gate_fidelity(naive, phi_p, lam) - 1e-9
            assert f_star >= avg_gate_fidelity(0.0, phi_p, lam) - 1e-9
            if lam == 1e-4 and phi_p <= cap and abs(p_star - phi_p) < 0.01:
                tracking += 1
            if lam > 1 and abs(p_star - cap) < 1e-6:
                cap_regime += 1
                if abs(f_star - 0.5) <= 0.02:
                    cap_half += 1
            if lam > 1 and p_star == 0.0:
                do_nothing += 1
    n_tracking_possible = int((phi_grid <= cap).sum())
    assert tracking == n_tracking_possible  # phi_in* ~ phi_p as lam -> 0
    assert cap_regime >= 5  # max-pulse regime at intermediate phi_p, lam > 1
    assert cap_half >= 1  # with fidelity at 1/2 within 0.02
    assert do_nothing >= 5  # phi_in* = 0 at large phi_p
    print(f"criterion 6: PASS (tracking {tracking}/{n_tracking_possible}, "
          f"cap regime {cap_regime} pts ({cap_half} at F=1/2), "
          f"do-nothing {do_nothing} pts)")


def _sweep_config(c2, feedforward, n_runs):
    return ExperimentConfig(hamiltonian=default_instance(), c2=c2,
                            feedforward=feedforward, n_runs=n_runs, seed=0)


@pytest.fixture(scope="module")
def depth_sweeps():
    start = time.perf_counter()
    sweeps = {
        "clean": run_depth_sweep(_sweep_config(0.0, False, 1)),
        (0.005, False): run_depth_sweep(_sweep_config(0.005, False, 10)),
        (0.005, True): run_depth_sweep(_sweep_config(0.005, True, 10)),
        (0.02, False): run_depth_sweep(_sweep_config(0.02, False, 10)),
        (0.02, True): run_depth_sweep(_sweep_config(0.02, True, 10)),
    }
    return sweeps, time.perf_counter() - start


def test_criterion_07_optimal_gate_depth(depth_sweeps):
    sweeps, elapsed = depth_sweeps
    clean = sweeps["clean"]
    two_qubit = [rec["gates_two_qubit"] for rec in clean.records]
    assert min(two_qubit) <= 60 and max(two_qubit) >= 900  # spans ~50-1000
    fints = [rec["f_int"] for rec in clean.records]
    assert all(b >= a for a, b in zip(fints, fints[1:]))  # monotone at c2 = 0
    assert clean.r_opt_by_fint == clean.records[-1]["r"]
    details = []
    for c2 in (0.005, 0.02):
        off, on = sweeps[(c2, False)], sweeps[(c2, True)]
        rs = [rec["r"] for rec in off.records]
        assert rs[0] < off.r_opt_by_fint < rs[-1]  # interior maximum
        assert on.r_opt_by_fint >= off.r_opt_by_fint  # feedforward: r_opt up
        peak_off = max(rec["f_int"] for rec in off.records)
        peak_on = max(rec["f_int"] for rec in on.records)
        assert peak_on >= peak_off  # and the peak does not decrease
        details.append(f"c2={c2}: r_opt {off.r_opt_by_fint}->{on.r_opt_by_fint}, "
                       f"peak {peak_off:.4f}->{peak_on:.4f}")
    assert elapsed < 600.0
    print(f"criterion 7: PASS ({'; '.join(details)}; {elapsed:.0f}s)")


def test_criterion_08_spectrum_quality(depth_sweeps):
    sweeps, _ = depth_sweeps
    off = min(rec["d_h"] for rec in sweeps[(0.02, False)].records)
    on = min(rec["d_h"] for rec in sweeps[(0.02, True)].records)
    assert on < off
    # single-spin Larmor line lands on the field frequency
    h0 = 4.0
    ham = SpinHamiltonian(1, np.zeros((1, 1)), np.array([h0]))
    times = np.linspace(0.0, 6.0, 121)
    omega = np.linspace(-10.0, 10.0, 401)
    spec = spectrum(exact_response(ham, times), gamma=0.5, omega_grid=omega)
    peak = omega[np.argmax(spec.a_norm)]
    d_omega = omega[1] - omega[0]
    assert abs(abs(peak) - h0) <= d_omega
    print(f"criterion 8: PASS (min d_h feedforward {on:.4f} < off {off:.4f}; "
          f"Larmor peak at {peak:.2f} rad/ms for h0={h0})")


def test_criterion_09_inference_demo():
    base = ExperimentConfig(hamiltonian=default_instance(), c2=0.02, t_g=0.04,
                            r=8, n_runs=4, seed=0)
    target = exact_spectrum(base)
    finals = {True: [], False: []}
    for seed in range(5):
        guess = perturbed_instance(base.hamiltonian, 0.3,
                                   np.random.default_rng(100 + seed))
        for feedforward in (False, True):
            config = dataclasses.replace(base, seed=seed, feedforward=feedforward)
            log = run_inference_demo(target, guess, 30, config)
            ds = [rec["d_h"] for rec in log]
            assert all(b <= a + 1e-15 for a, b in zip(ds, ds[1:]))
            finals[feedforward].append(ds[-1])
    med_on = float(np.median(finals[True]))
    med_off = float(np.median(finals[False]))
    assert med_on <= med_off
    print(f"criterion 9: PASS (median final d_h: feedforward {med_on:.4f} "
          f"<= off {med_off:.4f})")


def test_criterion_10_determinism(tmp_path):
    ham_path = tmp_path / "ham.json"
    ham_path.write_text(json.dumps(default_instance().to_dict()))
    cfg = {"hamiltonian": "ham.json", "c2": 0.02, "seed": 11, "n_runs": 2,
           "r": 4, "r_values": [2, 4], "t_max": 2.0, "n_times": 5,
           "omega_min": -12.0, "omega_max": 12.0, "n_omega": 61}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    commands = [
        ["simulate-spectrum", "--config", str(cfg_path), "--out", str(out)],
        ["depth-sweep", "--config", str(cfg_path), "--out", str(out)],
        ["calibrate", "--c2", "0.02", "--shots", "1000", "--seed", "11",
         "--out", str(out)],
        ["feedforward-table", "--n-phi", "3", "--n-lam", "2", "--out", str(out)],
        ["noise-stats", "--c2", "0.02", "--tau", "10", "--out", str(out)],
        ["infer", "--config", str(cfg_path), "--iterations", "2", "--out", str(out)],
    ]
    checked = 0
    for argv in commands:
        assert main(argv) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(argv) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second
        checked += len(first)
        for p in out.iterdir():
            p.unlink()
    print(f"criterion 10: PASS (byte-identical reruns of all 6 subcommands, "
          f"{checked} files compared)")
