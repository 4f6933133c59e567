"""Synthetic return-probability experiments and heating-rate fitting.

The protocol: prepare two qubits in the all-down state, wait tau, apply
an XX gate with input angle phi_in, and measure the return probability.
Sweeping (phi_in, tau) traces out curves whose shape pins down the
heating rate c2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .artifacts import write_csv
from .motional_noise import return_probability_slabs
from .rules import check


@dataclass
class CalibrationCurve:
    phi_in: np.ndarray  # rad
    tau: np.ndarray  # ms
    p_return: np.ndarray  # shape (len(phi_in), len(tau)), in [0, 1]
    shots: int

    def __post_init__(self):
        self.phi_in = np.asarray(self.phi_in, dtype=float)
        self.tau = np.asarray(self.tau, dtype=float)
        self.p_return = np.asarray(self.p_return, dtype=float)
        if self.p_return.shape != (self.phi_in.size, self.tau.size):
            raise ValueError("p_return must be (n_phi, n_tau)")
        if not np.all(np.isfinite(self.phi_in)):
            raise ValueError("phi_in must be finite")
        if not np.all((self.tau >= 0) & (self.tau < np.inf)):
            raise ValueError("tau must be non-negative and finite")
        if not np.all((self.p_return >= 0) & (self.p_return <= 1)):
            raise ValueError("p_return must lie in [0, 1]")
        check("shots", self.shots)

    def to_csv(self, path) -> None:
        """One row per (phi_in, tau) grid point, phi_in outer."""
        write_csv(path, ["phi_in", "tau_ms", "p_return", "shots"],
                  ([phi, tau, p, self.shots]
                   for phi, row in zip(self.phi_in.tolist(), self.p_return.tolist())
                   for tau, p in zip(self.tau.tolist(), row)))


def simulate_calibration(phi_grid, tau_grid, c2_true: float, shots: int,
                         seed: int = 0) -> CalibrationCurve:
    """Finite-shot synthetic calibration data at a known heating rate.

    Per (phi_in, tau) point: one independent single-time displacement
    sample per shot (the exponential marginal of the diffusion), a noisy
    XX angle, and a Bernoulli draw from the return probability
    cos^2(phi/4) of that realized angle. c2_true, every tau and their
    products must be non-negative and finite, and every phi_in finite.
    """
    check("shots", shots)
    phi_grid = np.asarray(phi_grid, dtype=float)
    tau_grid = np.asarray(tau_grid, dtype=float)
    for name, value in (("c2_true", c2_true), ("tau_grid", tau_grid)):
        if not np.all((value >= 0) & (value < np.inf)):
            raise ValueError(f"{name} must be non-negative and finite")
    if not np.all(np.isfinite(phi_grid)):
        raise ValueError("phi_grid must be finite")
    with np.errstate(over="ignore"):
        lams = c2_true * tau_grid
    if not np.all(lams < np.inf):
        raise ValueError("c2_true * tau_grid overflows")
    rng = np.random.default_rng(seed)
    p = np.empty((phi_grid.size, tau_grid.size))
    for i, phi_in in enumerate(phi_grid):
        for j, lam in enumerate(lams):
            u = rng.exponential(lam, shots) if lam > 0 else np.zeros(shots)
            p_u = np.cos(np.exp(-u) * phi_in / 4.0) ** 2
            p[i, j] = np.count_nonzero(rng.random(shots) < p_u) / shots
    return CalibrationCurve(phi_grid, tau_grid, p, shots)


def _model_residuals(curve: CalibrationCurve, c2s) -> list[float]:
    """The heating model's residual at each c2 in c2s, from one stacked evaluation.

    Each residual is summed over its own contiguous (n_phi, n_tau) block, as
    a residual evaluated alone is: a reduction over both axes of the stack
    may round differently.
    """
    lam = np.asarray(c2s, dtype=float)[:, None, None] * curve.tau
    squares = (curve.p_return - return_probability_slabs(curve.phi_in[:, None], lam)) ** 2
    return [float(np.sum(block)) for block in squares]


Minimum = NamedTuple("Minimum", [("x", float), ("fun", float), ("nfev", int)])


def minimize_scalar(fun, bounds, xatol: float, maxiter: int = 500) -> Minimum:
    """Minimum of fun on bounds = (a, b) to xatol in x, in at most max(maxiter, 2) calls.

    Brent's bounded minimizer (Algorithms for Minimization without
    Derivatives, 1973, ch. 5; the `fmin` of Forsythe, Malcolm and Moler,
    1977): golden-section steps, and parabolic ones where a parabola through
    the last three points falls inside the bracket. Its float operations are
    SciPy's `minimize_scalar(method="bounded")` in the same order, so x, fun
    and nfev equal SciPy's bit for bit; a property test holds it to that.
    """
    a, b = float(bounds[0]), float(bounds[1])
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise ValueError(f"bounds must be finite with lo <= hi, got {bounds}")
    sqrt_eps, golden_mean = math.sqrt(2.2e-16), 0.5 * (3.0 - math.sqrt(5.0))
    # xf: the best point so far, nfc: the second best, fulc: the previous nfc
    fulc = nfc = xf = a + golden_mean * (b - a)
    rat = e = 0.0
    ffulc = fnfc = fx = fun(xf)
    nfev = 1
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        parabolic = False
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            parabolic = abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf)
        if parabolic:
            rat = (p + 0.0) / q
            if xf + rat - a < tol2 or b - (xf + rat) < tol2:
                rat = tol1 * (1.0 if xm - xf >= 0 else -1.0)
        else:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (1.0 if rat >= 0 else -1.0) * max(abs(rat), tol1)
        fu = fun(x)
        nfev += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if nfev >= maxiter:
            break
    return Minimum(xf, fx, nfev)


def scan_refine(loss, grid, scan, xatol: float) -> tuple[float, float]:
    """(x, loss(x)) at a minimum of loss; scan lists loss at each point of grid.

    With k the scan's first minimum, the answer is the better of grid[k]
    and the bounded Brent minimum of loss between grid[k]'s neighbours,
    the smaller x on a tie. loss takes and returns a float.
    """
    k = int(np.argmin(scan))
    res = minimize_scalar(loss, (grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]), xatol)
    return min((float(res.x), float(res.fun)), (float(grid[k]), float(scan[k])),
               key=lambda c: (c[1], c[0]))


def _scan_refine(losses) -> tuple[float, float]:
    """(x, loss at x) at the minimum of a loss on [0, 10]; losses(xs) lists it at each x.

    `scan_refine` on 0 and a log-spaced grid, scanned in one losses call.
    """
    grid = np.concatenate(([0.0], np.geomspace(1e-6, 10.0, 60)))
    return scan_refine(lambda x: losses([x])[0], grid, losses(grid), 1e-10)


def fit_c2(curve: CalibrationCurve) -> dict:
    """Least-squares heating-rate estimate pooling all grid points.

    Returns {"c2_hat", "residual"}.
    """
    if curve.tau.size < 2:
        raise ValueError("need at least 2 distinct tau values")
    if np.all(curve.phi_in == 0):
        raise ValueError("all phi_in are zero; c2 is unidentifiable")
    c2_hat, residual = _scan_refine(lambda c2s: _model_residuals(curve, c2s))
    return {"c2_hat": c2_hat, "residual": residual}


def _phase_damping_residual(curve: CalibrationCurve, gamma: float) -> float:
    """Best-fit residual of P = 1/2 + 1/2 exp(-Gamma tau) cos(phi_in/2 + delta)
    with one phase offset delta per input angle.

    A free delta lets c = cos(phi_in/2 + delta) take any value in [-1, 1],
    and each row's loss is quadratic in c, so its best c is the clipped
    least-squares coefficient of d = exp(-Gamma tau).
    """
    decay = np.exp(-gamma * curve.tau)
    y = curve.p_return - 0.5
    c = np.clip(2.0 * (y @ decay) / (decay @ decay), -1.0, 1.0)
    return float(np.sum((y - 0.5 * c[:, None] * decay[None, :]) ** 2))


def fit_phase_damping(curve: CalibrationCurve) -> dict:
    """Reference fit of the phase-damping model, for model discrimination."""
    gamma_hat, residual = _scan_refine(
        lambda gammas: [_phase_damping_residual(curve, g) for g in gammas])
    return {"gamma_hat": gamma_hat, "residual": residual}
