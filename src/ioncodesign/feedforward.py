"""Optimal feedforward control of noisy gate angles.

The average fidelity of a noisy gate with requested input angle phi_in
against a desired output angle phi_p has a closed form in terms of 1F2
functions. The optimal input maximizes it; the landscape is multimodal
(interior optimum, "do nothing" at 0, "maximally strong pulse" at the
laser-power cap), so the search is a dense scan plus local refinement.
The closed form is written once, in `_noisy_fidelity`, which the
vectorized fidelity, the dense scan and the float refinement all
evaluate. The refinement is the package's bounded Brent minimizer,
`calibration.minimize_scalar`, on plain floats. The scan's lambda rows
live in a dict the caller owns, which FeedforwardTable keeps per table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import minimize_scalar
from .motional_noise import hyp1f2, hyp1f2_float, series_lambda
from .trotter import TimedCircuit

SCAN_STEP = 1e-3  # rad, dense-scan resolution
REFINE_TOL = 1e-6  # rad, local refinement tolerance
MEMO_PITCH_PHI = 1e-2  # rad, memo grid pitch in phi_p
MEMO_PITCH_LAM = 1e-2  # memo grid pitch in lambda
SCAN_ROWS_MAX = 64  # lambda rows one table keeps, ~0.2 MiB each


@dataclass(frozen=True)
class ControlQuery:
    phi_p: float  # desired output angle, rad
    lam: float  # c2 * tau at gate time
    phi_cap: float = 4.0 * math.pi  # laser power limit on the input angle

    def __post_init__(self):
        for name in ("phi_p", "lam", "phi_cap"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.phi_cap <= 0:
            raise ValueError("phi_cap must be positive")
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")


def gate_fidelity(phi, phi_p):
    """Fidelity of imparting phi when phi_p was desired (XX generator)."""
    return np.cos((np.asarray(phi) - phi_p) / 4.0) ** 2


def avg_gate_fidelity(phi_in, phi_p, lam):
    """Average of gate_fidelity over the noisy-angle distribution.

    Valid for either sign of phi_in and phi_p. All three arguments
    broadcast. Entries with lam = 0, or so small that 0.5/lam overflows,
    reduce exactly to the noiseless gate fidelity. Scalar arguments give
    a float.
    """
    phi_in = np.asarray(phi_in, dtype=float)
    lam, noisy, half = series_lambda(lam)
    if not noisy.any():
        out = gate_fidelity(phi_in, phi_p) + np.zeros(noisy.shape)
        return out if out.ndim else float(out)
    square = phi_in**2
    out = _noisy_fidelity(phi_in, square, 0.5 * np.cos(phi_in / 2.0), lam,
                          np.cos(phi_p / 2.0), np.sin(phi_p / 2.0),
                          *_hyp_pair(hyp1f2, half, -square / 16.0))
    if not noisy.all():
        out = np.where(noisy, out, gate_fidelity(phi_in, phi_p))
    return out if out.ndim else float(out)


def _hyp_pair(series, half, z):
    """The two 1F2 values of avg_gate_fidelity at z, summed by series."""
    return (series(1.0 + half, 1.5, 2.0 + half, z),
            series(0.5 + half, 1.5, 1.5 + half, z))


def _noisy_fidelity(phi, square, half_cos, lam, cp, sp, h1, h2):
    """avg_gate_fidelity's noisy branch on floats or arrays: square = phi**2,
    half_cos = cos(phi/2)/2, (cp, sp) = cos, sin(phi_p/2), (h1, h2) = `_hyp_pair`."""
    return (0.5 + half_cos * cp + square * lam / (8.0 + 16.0 * lam) * cp * h1
            + phi / (4.0 + 4.0 * lam) * sp * h2)


class _Scan:
    """The dense scan grid on [0, cap] and the lambda rows evaluated on it.

    The lambda-independent arrays are built once. A lambda row holds the
    `_hyp_pair` over the grid, () on the noiseless branch; at most
    SCAN_ROWS_MAX rows are kept, the oldest evicted first. Every array is
    read-only.
    """

    def __init__(self, cap: float):
        grid = np.arange(0.0, cap + SCAN_STEP, SCAN_STEP)
        grid[-1] = cap
        self.grid, self.square = grid, grid**2
        self.z = -self.square / 16.0
        self.half_cos = 0.5 * np.cos(grid / 2.0)
        for array in (self.grid, self.square, self.z, self.half_cos):
            array.flags.writeable = False
        self.rows: dict[float, tuple[np.ndarray, ...]] = {}

    def values(self, phi_p: float, lam: float) -> np.ndarray:
        """avg_gate_fidelity(grid, phi_p, lam), bit for bit."""
        if lam not in self.rows:
            if len(self.rows) >= SCAN_ROWS_MAX:
                del self.rows[next(iter(self.rows))]
            _, noisy, half = series_lambda(lam)
            row = _hyp_pair(hyp1f2, half, self.z) if noisy else ()
            for array in row:
                array.flags.writeable = False
            self.rows[lam] = row
        row = self.rows[lam]
        if not row:
            return gate_fidelity(self.grid, phi_p)
        return _noisy_fidelity(self.grid, self.square, self.half_cos, lam,
                               np.cos(phi_p / 2.0), np.sin(phi_p / 2.0), *row)


def _refine_objective(phi_p: float, lam: float):
    """x -> -avg_gate_fidelity(x, phi_p, lam) for a float x, bit for bit.

    Each call evaluates `_noisy_fidelity` on plain floats with the float
    1F2 series. x is squared as x * x, which is what NumPy's square
    computes; Python's x**2 can differ in the last bit. On the noiseless
    branch the cosine is squared as c ** 2, which is what NumPy's scalar
    power computes; c * c can differ in the last bit.
    """
    _, noisy, half = series_lambda(lam)
    if not noisy:
        return lambda x: -(float(np.cos((float(x) - phi_p) / 4.0)) ** 2)
    half = float(half)
    cp, sp = float(np.cos(phi_p / 2.0)), float(np.sin(phi_p / 2.0))

    def objective(x):
        x = float(x)
        square = x * x
        return -_noisy_fidelity(x, square, 0.5 * float(np.cos(x / 2.0)), lam, cp, sp,
                                *_hyp_pair(hyp1f2_float, half, -square / 16.0))

    return objective


def optimal_input_angle(query: ControlQuery, rows: dict | None = None) -> dict:
    """Input angle in [0, phi_cap] maximizing the average gate fidelity.

    Negative desired angles are handled by symmetry: the landscape is
    invariant under flipping the sign of both angles, so the optimum for
    -phi_p is -phi_in*. Ties break toward the smaller |phi_in|. The dense
    scan's lambda rows are kept in rows, a dict the caller owns that maps
    phi_cap to its scan, so queries sharing a dict and a lambda share one
    scan; without it the scan is built afresh. The local refinement runs
    on plain floats.
    """
    if query.phi_p < 0:
        flipped = optimal_input_angle(ControlQuery(-query.phi_p, query.lam, query.phi_cap), rows)
        return {"phi_in_star": -flipped["phi_in_star"],
                "fidelity_star": flipped["fidelity_star"]}
    phi_p, lam, cap = query.phi_p, query.lam, query.phi_cap
    if rows is None:
        rows = {}
    if cap not in rows:
        rows[cap] = _Scan(cap)
    scan = rows[cap]
    grid = scan.grid
    values = scan.values(phi_p, lam)
    best = int(np.argmax(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    if hi > lo:
        res = minimize_scalar(_refine_objective(phi_p, lam), (lo, hi), REFINE_TOL)
        candidates = [(res.x, -res.fun)]
    else:
        candidates = []
    candidates.append((float(grid[best]), float(values[best])))
    phi_star, fid_star = max(candidates, key=lambda c: (c[1], -c[0]))
    # ties toward smaller phi_in: prefer the grid endpoint if equal
    return {"phi_in_star": phi_star, "fidelity_star": fid_star}


class FeedforwardTable:
    """Memoized optimal angles on a (phi_p, lambda) grid.

    Corner solutions are cached and bilinearly interpolated; the
    interpolated angle is then compared against the corner optima and
    the trivial inputs (phi_p itself, 0, phi_cap) and the best of those
    candidates is returned, which keeps the memoized answer within a
    whisker of the direct solve even across regime boundaries.
    """

    def __init__(self, phi_cap: float = 4.0 * math.pi):
        if not (math.isfinite(phi_cap) and phi_cap > 0):
            raise ValueError("phi_cap must be finite and positive")
        self.phi_cap = phi_cap
        self._corners: dict[tuple[int, int], tuple[float, float]] = {}
        self._rows: dict = {}  # the dense-scan rows of optimal_input_angle

    def _corner(self, iphi: int, ilam: int) -> tuple[float, float]:
        key = (iphi, ilam)
        if key not in self._corners:
            q = ControlQuery(iphi * MEMO_PITCH_PHI, ilam * MEMO_PITCH_LAM, self.phi_cap)
            res = optimal_input_angle(q, self._rows)
            self._corners[key] = (res["phi_in_star"], res["fidelity_star"])
        return self._corners[key]

    def lookup(self, phi_p, lam) -> dict:
        """Memoized optimal input angles for desired angles phi_p at lambdas lam.

        phi_p and lam broadcast. Scalars give a dict of floats, arrays a
        dict of arrays of the broadcast shape. All noisy entries weigh
        their 8 candidates in one vectorized avg_gate_fidelity call. The
        corners they need are read once per distinct corner, and missing
        corners that share lambda share one dense-scan row of the table.
        Negative phi_p map by symmetry to -phi_in*, and lam = 0 returns
        min(phi_p, phi_cap). NaN or infinite inputs raise ValueError.
        """
        phi_p, lam = np.broadcast_arrays(np.asarray(phi_p, dtype=float),
                                         np.asarray(lam, dtype=float))
        shape = phi_p.shape
        phi_p, lam = phi_p.ravel(), lam.ravel()
        for name, values in (("phi_p", phi_p), ("lam", lam)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")
        if np.any(lam < 0):
            raise ValueError("lambda must be non-negative")
        negative = phi_p < 0
        target = np.where(negative, -phi_p, phi_p)
        star = np.minimum(target, self.phi_cap)
        fid = gate_fidelity(star, target)
        noisy = lam > 0
        if noisy.any():
            star[noisy], fid[noisy] = self._interpolate(target[noisy], lam[noisy])
        star = np.where(negative, -star, star)
        if not shape:
            return {"phi_in_star": float(star[0]), "fidelity_star": float(fid[0])}
        return {"phi_in_star": star.reshape(shape), "fidelity_star": fid.reshape(shape)}

    def _interpolate(self, phi_p: np.ndarray, lam: np.ndarray):
        """Best of the 8 candidates for each (phi_p >= 0, lam > 0) entry."""
        cap = self.phi_cap
        x, y = phi_p / MEMO_PITCH_PHI, lam / MEMO_PITCH_LAM
        # below 2**63 the floor is at most 2**63 - 1024, so its upper corner fits int64
        for name, scaled in (("phi_p", x), ("lam", y)):
            if not scaled.max() < 2.0**63:
                raise ValueError(f"{name} too large: its table corner index overflows int64")
        i0, fx = np.divmod(x, 1.0)
        j0, fy = np.divmod(y, 1.0)
        # corner k of entry n is (i0 + di, j0 + dj), (di, dj) = (0,0), (0,1), (1,0), (1,1)
        ci = i0.astype(np.int64)[:, None] + [0, 0, 1, 1]
        cj = j0.astype(np.int64)[:, None] + [0, 1, 0, 1]
        # distinct corners in (lambda, phi) order: runs of a stable sort, numbered by cumsum
        order = np.lexsort((ci.ravel(), cj.ravel()))
        sj, si = cj.ravel()[order], ci.ravel()[order]
        first = np.concatenate(([True], (sj[1:] != sj[:-1]) | (si[1:] != si[:-1])))
        inverse = np.empty_like(order)
        inverse[order] = np.cumsum(first) - 1
        solved = np.array([self._corner(int(i), int(j))[0] for j, i in zip(sj[first], si[first])])
        c = solved[inverse.reshape(ci.shape)]
        interp = ((1 - fx) * (1 - fy) * c[:, 0]
                  + (1 - fx) * fy * c[:, 1]
                  + fx * (1 - fy) * c[:, 2]
                  + fx * fy * c[:, 3])
        n = phi_p.size
        candidates = np.column_stack([interp, c, np.minimum(phi_p, cap),
                                      np.zeros(n), np.full(n, cap)])
        candidates = np.clip(candidates, 0.0, cap)
        fids = avg_gate_fidelity(candidates, phi_p[:, None], lam[:, None])
        best = np.argmax(fids, axis=1)
        rows = np.arange(n)
        return candidates[rows, best], fids[rows, best]


def correct_circuit(circuit: TimedCircuit, c2: float,
                    table: FeedforwardTable | None = None) -> TimedCircuit:
    """Replace each noisy gate's angle with the feedforward optimum.

    The desired output angle is the gate's nominal angle and lambda is
    c2 times the gate's start time; all noisy gates go through one table
    lookup on the angle and start-time arrays. Non-noisy gates pass through.
    """
    if not 0 <= c2 < math.inf:
        raise ValueError("c2 must be non-negative and finite")
    if c2 == 0:
        return circuit
    if table is None:
        table = FeedforwardTable()
    noisy = circuit.noisy
    angles = circuit.angles.copy()
    angles[noisy] = table.lookup(angles[noisy], c2 * circuit.start_times[noisy])["phi_in_star"]
    return TimedCircuit.from_arrays(circuit.n_qubits, circuit.kinds, circuit.sites, angles,
                                    circuit.start_times)
