"""Unit tests for heating-rate calibration fits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from ioncodesign.calibration import (
    CalibrationCurve,
    _model_residual,
    _phase_damping_residual,
    fit_c2,
    fit_phase_damping,
    simulate_calibration,
)
from ioncodesign.motional_noise import return_probability


def analytic_curve(c2, phi_grid=None, tau_grid=None):
    if phi_grid is None:
        phi_grid = np.linspace(0.5, 2 * np.pi, 6)
    if tau_grid is None:
        tau_grid = np.linspace(0.0, 60.0, 9)
    p = np.array([[return_probability(phi, c2 * tau) for tau in tau_grid]
                  for phi in phi_grid])
    return CalibrationCurve(phi_grid, tau_grid, p, shots=10**9)


def _loop_residual(curve, c2):
    """Per-point residual, summed row by row, as before it was vectorized."""
    total = 0.0
    for i, phi_in in enumerate(curve.phi_in):
        pred = np.array([return_probability(phi_in, c2 * tau) for tau in curve.tau])
        total += float(np.sum((curve.p_return[i] - pred) ** 2))
    return total


def test_vectorized_residual_matches_loop():
    curve = simulate_calibration(np.linspace(0.5, 2 * np.pi, 8), np.linspace(0.0, 60.0, 13),
                                 0.02, 2000, seed=3)
    for c2 in (0.0, 1e-6, 0.005, 0.02, 0.3, 10.0):
        assert _model_residual(curve, c2) == pytest.approx(_loop_residual(curve, c2),
                                                           rel=1e-12)


def test_fit_recovers_exactly_from_analytic_data():
    c2 = 0.02
    fit = fit_c2(analytic_curve(c2))
    assert fit["c2_hat"] == pytest.approx(c2, rel=1e-4)
    assert fit["residual"] < 1e-10


@settings(max_examples=25, deadline=None)
@given(c2=st.floats(1e-3, 1.0), tau_max=st.floats(20.0, 80.0))
def test_fit_recovers_any_rate_from_analytic_data(c2, tau_max):
    fit = fit_c2(analytic_curve(c2, tau_grid=np.linspace(0.0, tau_max, 9)))
    assert fit["c2_hat"] == pytest.approx(c2, rel=1e-6)
    assert fit["residual"] < 1e-12


def test_fit_recovers_within_tolerance_from_shots():
    c2 = 0.02
    curve = simulate_calibration(np.linspace(0.5, 2 * np.pi, 8),
                                 np.linspace(0.0, 60.0, 13),
                                 c2_true=c2, shots=10000, seed=0)
    fit = fit_c2(curve)
    assert fit["c2_hat"] == pytest.approx(c2, rel=0.05)


def test_zero_noise_data_fits_zero_rate():
    curve = analytic_curve(0.0)
    fit = fit_c2(curve)
    assert fit["c2_hat"] == pytest.approx(0.0, abs=1e-6)


def test_model_discrimination_against_phase_damping():
    curve = simulate_calibration(np.linspace(0.5, 2 * np.pi, 8),
                                 np.linspace(0.0, 60.0, 13),
                                 c2_true=0.02, shots=10000, seed=1)
    heating = fit_c2(curve)
    damping = fit_phase_damping(curve)
    assert heating["residual"] < damping["residual"]


def test_csv_round_trip(tmp_path):
    curve = simulate_calibration(np.linspace(0.5, 4.0, 4), np.linspace(0.0, 30.0, 5),
                                 c2_true=0.01, shots=500, seed=2)
    path = tmp_path / "cal.csv"
    curve.to_csv(path)
    loaded = CalibrationCurve.from_csv(path)
    assert np.array_equal(loaded.phi_in, curve.phi_in)
    assert np.array_equal(loaded.tau, curve.tau)
    assert np.array_equal(loaded.p_return, curve.p_return)
    assert loaded.shots == curve.shots


def test_csv_without_rows_is_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("phi_in,tau_ms,p_return,shots\n")
    with pytest.raises(ValueError, match="no rows"):
        CalibrationCurve.from_csv(path)


@pytest.mark.parametrize("rows,message", [
    (["0.5,0.0,1.0,10", "0.5,0.0,0.9,10", "0.5,1.0,0.8,10"], "two rows for one"),
    (["0.5,0.0,1.0,10", "0.5,1.0,0.8,20"], "mixes shot counts"),
    (["nan,0.0,1.0,10", "nan,1.0,0.8,10"], "non-finite phi_in"),
], ids=["duplicate-point", "mixed-shots", "nan-phi"])
def test_csv_with_an_inconsistent_row_is_rejected(tmp_path, rows, message):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(["phi_in,tau_ms,p_return,shots"] + rows) + "\n")
    with pytest.raises(ValueError, match=message) as info:
        CalibrationCurve.from_csv(path)
    assert str(path) in str(info.value)


def test_csv_bytes_match_the_row_by_row_writer(tmp_path):
    curve = simulate_calibration(np.linspace(0.5, 2 * np.pi, 8), np.linspace(0.0, 60.0, 13),
                                 c2_true=0.02, shots=1000, seed=4)
    path = tmp_path / "cal.csv"
    curve.to_csv(path)
    lines = ["phi_in,tau_ms,p_return,shots"]
    for i, phi in enumerate(curve.phi_in):
        for j, tau in enumerate(curve.tau):
            lines.append(",".join([repr(float(phi)), repr(float(tau)),
                                   repr(float(curve.p_return[i, j])), str(curve.shots)]))
    assert path.read_bytes() == ("\r\n".join(lines) + "\r\n").encode()


def test_simulate_calibration_is_seed_deterministic():
    args = (np.linspace(0.5, 4.0, 3), np.linspace(0.0, 20.0, 4), 0.02, 200)
    a = simulate_calibration(*args, seed=7)
    b = simulate_calibration(*args, seed=7)
    c = simulate_calibration(*args, seed=8)
    assert np.array_equal(a.p_return, b.p_return)
    assert not np.array_equal(a.p_return, c.p_return)


def test_validation_errors():
    with pytest.raises(ValueError):
        CalibrationCurve(np.array([1.0]), np.array([1.0]),
                         np.array([[1.5]]), shots=10)
    with pytest.raises(ValueError):
        CalibrationCurve(np.array([1.0]), np.array([1.0, 2.0]),
                         np.array([[0.5]]), shots=10)
    single_tau = CalibrationCurve(np.array([1.0]), np.array([5.0]),
                                  np.array([[0.5]]), shots=10)
    with pytest.raises(ValueError):
        fit_c2(single_tau)
    zero_phi = CalibrationCurve(np.array([0.0]), np.array([0.0, 5.0]),
                                np.array([[1.0, 1.0]]), shots=10)
    with pytest.raises(ValueError):
        fit_c2(zero_phi)
    with pytest.raises(ValueError):
        simulate_calibration(np.array([1.0]), np.array([1.0]), 0.02, shots=0)


def _scanned_phase_damping_residual(curve, gamma):
    """Per-row delta scan plus bounded refinement, as before the closed form."""
    decay = np.exp(-gamma * curve.tau)
    total = 0.0
    for i, phi_in in enumerate(curve.phi_in):
        y = curve.p_return[i] - 0.5
        deltas = np.linspace(-np.pi, np.pi, 181)
        preds = 0.5 * decay[None, :] * np.cos(phi_in / 2.0 + deltas[:, None])
        losses = np.sum((y[None, :] - preds) ** 2, axis=1)
        k = int(np.argmin(losses))
        res = minimize_scalar(
            lambda d: float(np.sum((y - 0.5 * decay * np.cos(phi_in / 2.0 + d)) ** 2)),
            bounds=(deltas[max(k - 1, 0)], deltas[min(k + 1, deltas.size - 1)]),
            method="bounded", options={"xatol": 1e-8})
        total += min(float(res.fun), float(losses[k]))
    return total


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_closed_form_phase_damping_matches_scan(seed):
    curve = simulate_calibration(np.linspace(0.5, 2 * np.pi, 8), np.linspace(0.0, 60.0, 13),
                                 0.02, 2000, seed=seed)
    for gamma in (0.0, 1e-4, 0.01, 0.05, 1.0, 10.0):
        closed = _phase_damping_residual(curve, gamma)
        assert closed == pytest.approx(_scanned_phase_damping_residual(curve, gamma),
                                       rel=1e-12, abs=1e-12)
