"""Synthetic return-probability experiments and heating-rate fitting.

The protocol: prepare two qubits in the all-down state, wait tau, apply
an XX gate with input angle phi_in, and measure the return probability.
Sweeping (phi_in, tau) traces out curves whose shape pins down the
heating rate c2.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv
from .motional_noise import return_probability


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
        if np.any((self.p_return < 0) | (self.p_return > 1)):
            raise ValueError("probabilities must lie in [0, 1]")

    def to_csv(self, path) -> None:
        """One row per (phi_in, tau) grid point, phi_in outer."""
        write_csv(path, ["phi_in", "tau_ms", "p_return", "shots"],
                  ([phi, tau, p, self.shots]
                   for phi, row in zip(self.phi_in.tolist(), self.p_return.tolist())
                   for tau, p in zip(self.tau.tolist(), row)))

    @classmethod
    def from_csv(cls, path) -> "CalibrationCurve":
        """Read a `to_csv` file: one row per finite (phi_in, tau_ms), one shot count."""
        with open(path, newline="") as fh:
            rows = [(float(row["phi_in"]), float(row["tau_ms"]), float(row["p_return"]),
                     int(row["shots"])) for row in csv.DictReader(fh)]
        if not rows:
            raise ValueError(f"calibration CSV {path} has no rows")
        if not np.all(np.isfinite([r[:2] for r in rows])):
            raise ValueError(f"calibration CSV {path} has a non-finite phi_in or tau_ms")
        if len({r[:2] for r in rows}) < len(rows):
            raise ValueError(f"calibration CSV {path} has two rows for one (phi_in, tau_ms)")
        if len({r[3] for r in rows}) > 1:
            raise ValueError(f"calibration CSV {path} mixes shot counts")
        phis = sorted({r[0] for r in rows})
        taus = sorted({r[1] for r in rows})
        p = np.full((len(phis), len(taus)), np.nan)
        for phi, tau, prob, shots in rows:
            p[phis.index(phi), taus.index(tau)] = prob
        if np.any(np.isnan(p)):
            raise ValueError(f"calibration CSV {path} does not cover the full grid")
        return cls(np.array(phis), np.array(taus), p, rows[0][3])


def simulate_calibration(phi_grid, tau_grid, c2_true: float, shots: int,
                         seed: int = 0) -> CalibrationCurve:
    """Finite-shot synthetic calibration data at a known heating rate.

    Per (phi_in, tau) point: one independent single-time displacement
    sample per shot (the exponential marginal of the diffusion), a noisy
    XX angle, and a Bernoulli draw from the return probability
    cos^2(phi/4) of that realized angle.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    phi_grid = np.asarray(phi_grid, dtype=float)
    tau_grid = np.asarray(tau_grid, dtype=float)
    rng = np.random.default_rng(seed)
    p = np.empty((phi_grid.size, tau_grid.size))
    for i, phi_in in enumerate(phi_grid):
        for j, tau in enumerate(tau_grid):
            lam = c2_true * tau
            u = rng.exponential(lam, shots) if lam > 0 else np.zeros(shots)
            prob = np.cos(phi_in * np.exp(-u) / 4.0) ** 2
            outcomes = rng.random(shots) < prob
            p[i, j] = outcomes.mean()
    return CalibrationCurve(phi_grid, tau_grid, p, shots)


def _model_residual(curve: CalibrationCurve, c2: float) -> float:
    pred = return_probability(curve.phi_in[:, None], c2 * curve.tau[None, :])
    return float(np.sum((curve.p_return - pred) ** 2))


def minimize_scalar(fun, **options):
    """`scipy.optimize.minimize_scalar`, imported on first use: it is most of the import time."""
    from scipy.optimize import minimize_scalar as minimize

    return minimize(fun, **options)


def _scan_refine(loss) -> tuple[float, float]:
    """(x, loss(x)) at the minimum of loss on [0, 10].

    A scan over 0 and a log-spaced grid brackets the minimum, then a
    bounded scalar minimization refines it; the scan point wins a tie.
    """
    grid = np.concatenate(([0.0], np.geomspace(1e-6, 10.0, 60)))
    losses = np.array([loss(x) for x in grid])
    k = int(np.argmin(losses))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid.size - 1)]
    res = minimize_scalar(loss, bounds=(lo, hi), method="bounded", options={"xatol": 1e-10})
    if res.fun < losses[k]:
        return float(res.x), float(res.fun)
    return float(grid[k]), float(losses[k])


def fit_c2(curve: CalibrationCurve) -> dict:
    """Least-squares heating-rate estimate pooling all grid points.

    Returns {"c2_hat", "residual"}.
    """
    if curve.tau.size < 2:
        raise ValueError("need at least 2 distinct tau values")
    if np.all(curve.phi_in == 0):
        raise ValueError("all phi_in are zero; c2 is unidentifiable")
    c2_hat, residual = _scan_refine(lambda c2: _model_residual(curve, c2))
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
    gamma_hat, residual = _scan_refine(lambda g: _phase_damping_residual(curve, g))
    return {"gamma_hat": gamma_hat, "residual": residual}
