"""Unit tests for heating-rate calibration fits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from ioncodesign.calibration import (
    CalibrationCurve,
    _model_residuals,
    _phase_damping_residual,
    fit_c2,
    fit_phase_damping,
    minimize_scalar as brent,
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
    c2s = (0.0, 1e-6, 0.005, 0.02, 0.3, 10.0)
    for c2, stacked in zip(c2s, _model_residuals(curve, c2s)):
        assert _model_residuals(curve, [c2]) == [stacked]
        assert stacked == pytest.approx(_loop_residual(curve, c2), rel=1e-12)


def _old_model_residual(curve, c2):
    pred = return_probability(curve.phi_in[:, None], c2 * curve.tau[None, :])
    return float(np.sum((curve.p_return - pred) ** 2))


def _old_fit_c2(curve):
    """fit_c2 as it was before its scan was one stacked evaluation: one
    return_probability call per scan point and per refine step."""
    def loss(c2):
        return _old_model_residual(curve, c2)

    grid = np.concatenate(([0.0], np.geomspace(1e-6, 10.0, 60)))
    losses = np.array([loss(x) for x in grid])
    k = int(np.argmin(losses))
    res = brent(loss, (grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]), 1e-10)
    if res.fun < losses[k]:
        return {"c2_hat": float(res.x), "residual": float(res.fun)}
    return {"c2_hat": float(grid[k]), "residual": float(losses[k])}


@settings(max_examples=30, deadline=None)
@given(c2=st.one_of(st.just(0.0), st.floats(1e-5, 3.0)), n_phi=st.integers(1, 9),
       n_tau=st.integers(2, 14), phi_max=st.floats(0.5, 60.0), tau_max=st.floats(1.0, 80.0),
       shots=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
def test_stacked_fit_is_the_per_point_scan_bit_for_bit(c2, n_phi, n_tau, phi_max, tau_max,
                                                       shots, seed):
    # phi_max past 49 puts |z| > 150 in every slab: those entries take mpmath
    phi, tau = np.linspace(0.1, phi_max, n_phi), np.linspace(0.0, tau_max, n_tau)
    for curve in (simulate_calibration(phi, tau, c2, shots, seed=seed),
                  analytic_curve(c2, phi, tau)):
        assert fit_c2(curve) == _old_fit_c2(curve)


def _parent_simulated_probabilities(phi_grid, tau_grid, c2_true, shots, seed):
    """simulate_calibration's p_return as drawn by the in-place shot loop."""
    rng = np.random.default_rng(seed)
    lams = c2_true * np.asarray(tau_grid, dtype=float)
    p = np.empty((len(phi_grid), lams.size))
    for i, phi_in in enumerate(np.asarray(phi_grid, dtype=float)):
        for j, lam in enumerate(lams):
            u = rng.exponential(lam, shots) if lam > 0 else np.zeros(shots)
            np.negative(u, out=u)
            np.exp(u, out=u)
            u *= phi_in
            u /= 4.0
            np.cos(u, out=u)
            np.square(u, out=u)
            p[i, j] = np.count_nonzero(rng.random(shots) < u) / shots
    return p


@settings(max_examples=40, deadline=None)
@given(c2=st.one_of(st.just(0.0), st.floats(1e-5, 3.0)), n_phi=st.integers(1, 6),
       n_tau=st.integers(1, 8), phi_max=st.floats(-60.0, 60.0), tau_max=st.floats(0.0, 80.0),
       shots=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
def test_shot_loop_is_the_in_place_loop_bit_for_bit(c2, n_phi, n_tau, phi_max, tau_max, shots,
                                                     seed):
    phi, tau = np.linspace(0.1, phi_max, n_phi), np.linspace(0.0, tau_max, n_tau)
    curve = simulate_calibration(phi, tau, c2, shots, seed=seed)
    assert curve.p_return.tobytes() == _parent_simulated_probabilities(phi, tau, c2, shots,
                                                                       seed).tobytes()


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
    for bounds in [(1.0, 0.0), (math.nan, 1.0), (0.0, math.inf)]:
        with pytest.raises(ValueError, match="bounds"):
            brent(math.cos, bounds, 1e-6)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c2,tau,phi,name", [
    (math.nan, [0.0, 60.0], [1.0], "c2_true"),  # simulated noiseless data
    (-0.02, [0.0, 60.0], [1.0], "c2_true"),  # simulated noiseless data
    (math.inf, [0.0, 60.0], [1.0], "c2_true"),  # RuntimeWarning in a multiply
    (0.02, [-1.0, 60.0], [1.0], "tau_grid"),  # taken as tau = 0
    (0.02, [0.0, math.nan], [1.0], "tau_grid"),
    (0.02, [0.0, math.inf], [1.0], "tau_grid"),
    (0.02, [0.0, 60.0], [math.nan], "phi_grid"),
    (0.02, [0.0, 60.0], [-math.inf], "phi_grid"),
    (1e308, [0.0, 60.0], [1.0], "c2_true"),  # RuntimeWarning in a multiply
])
def test_simulate_calibration_rejects_bad_inputs_by_name(c2, tau, phi, name):
    with pytest.raises(ValueError, match=name):
        simulate_calibration(phi, tau, c2, 100)


@pytest.mark.parametrize("phi,tau,p,name", [
    ([math.nan], [0.0, 5.0], [[1.0, 0.9]], "phi_in"),  # 1F2 series did not converge
    ([math.inf], [0.0, 5.0], [[1.0, 0.9]], "phi_in"),
    ([1.0], [-5.0, 5.0], [[1.0, 0.9]], "tau"),  # b parameters must not be ...
    ([1.0], [0.0, math.inf], [[1.0, 0.9]], "tau"),
    ([1.0], [0.0, math.nan], [[1.0, 0.9]], "tau"),
    ([1.0], [0.0, 5.0], [[1.0, math.nan]], "p_return"),  # fit_c2 gave a nan residual
])
def test_calibration_curve_rejects_non_finite_fields_by_name(phi, tau, p, name):
    with pytest.raises(ValueError, match=name):
        CalibrationCurve(phi, tau, p, shots=10)


@pytest.mark.parametrize("shots", [2.5, -3, 0, True])
def test_shots_must_be_a_positive_integer(shots):
    # simulate_calibration failed on 2.5 in NumPy's TypeError, and the curve took -3 and 2.5
    with pytest.raises(ValueError, match="^shots must be an integer >= 1, not a bool"):
        simulate_calibration([1.0], [0.0, 5.0], 0.02, shots)
    with pytest.raises(ValueError, match="^shots must be an integer >= 1, not a bool"):
        CalibrationCurve([1.0], [0.0, 5.0], [[1.0, 0.9]], shots=shots)


def test_negative_phi_in_is_accepted():
    # the return probability is even in phi_in, so a negative input angle is data
    assert np.array_equal(simulate_calibration([-2.0, 2.0], [0.0, 30.0], 0.02, 100).phi_in,
                          [-2.0, 2.0])


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


OBJECTIVES = {
    "smooth": lambda c: lambda x: (x - c) ** 2 + math.sin(3.0 * x),
    "cusp": lambda c: lambda x: abs(x - c) ** 1.5,
    "step": lambda c: lambda x: float(x > c),
    "stairs": lambda c: lambda x: float(math.floor(7.0 * (x - c)) ** 2),
}


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(sorted(OBJECTIVES)), lo=st.floats(-10.0, 10.0),
       width=st.floats(1e-8, 20.0), c=st.floats(-12.0, 12.0),
       xatol=st.floats(-12.0, -3.0).map(lambda e: 10.0**e),
       maxiter=st.one_of(st.just(500), st.integers(1, 40)))
def test_minimize_scalar_is_scipy_bounded_bit_for_bit(kind, lo, width, c, xatol, maxiter):
    # The package's Brent port against SciPy's bounded method, compared with ==.
    # Written against SciPy 1.17.1, which it matched on every case; the floors CI
    # job runs it against SciPy 1.13, the oldest release the test extra allows.
    fun, bounds = OBJECTIVES[kind](c), (lo, lo + width)
    ours = brent(fun, bounds, xatol, maxiter)
    theirs = minimize_scalar(fun, bounds=bounds, method="bounded",
                             options={"xatol": xatol, "maxiter": maxiter})
    assert (ours.x, ours.fun, ours.nfev) == (theirs.x, theirs.fun, theirs.nfev)
