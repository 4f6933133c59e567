"""Optimal feedforward control of noisy gate angles.

The average fidelity of a noisy gate with requested input angle phi_in
against a desired output angle phi_p has a closed form in terms of 1F2
functions. The optimal input maximizes it; the landscape is multimodal
(interior optimum, "do nothing" at 0, "maximally strong pulse" at the
laser-power cap), so the search is a dense scan refined on plain floats,
`calibration.scan_refine`; a noiseless gate's optimum is exact. The noisy
closed form is written once, in `_noisy_fidelity`, which the vectorized
fidelity, the dense scan and the float refinement all evaluate. The
scan's lambda rows live in a dict the caller owns, which FeedforwardTable
keeps per table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import scan_refine
from .motional_noise import hyp1f2, hyp1f2_float, series_lambda
from .rules import check
from .trotter import TimedCircuit

SCAN_STEP = 1e-3  # rad, dense-scan resolution
REFINE_TOL = 1e-6  # rad, local refinement tolerance
MEMO_PITCH_PHI = 1e-2  # rad, memo grid pitch in phi_p
MEMO_PITCH_LAM = 1e-2  # memo grid pitch in lambda
SCAN_ROWS_MAX = 64  # lambda rows one table keeps, ~0.2 MiB each
PHI_CAP = 4.0 * math.pi  # rad, default laser-power cap on the input angle


@dataclass(frozen=True)
class ControlQuery:
    phi_p: float  # desired output angle, rad
    lam: float  # c2 * tau at gate time
    phi_cap: float = PHI_CAP  # laser power limit on the input angle

    def __post_init__(self):
        for name in ("phi_p", "lam", "phi_cap"):
            check(name, getattr(self, name))


def gate_fidelity(phi, phi_p):
    """Fidelity of imparting phi when phi_p was desired (XX generator); np.square, not
    a NumPy scalar's ** 2 (pow), so that scalars and arrays agree bit for bit."""
    return np.square(np.cos((np.asarray(phi) - phi_p) / 4.0))


def _noiseless_optimum(phi_p, cap):
    """The phi in [0, cap] maximizing gate_fidelity(phi, phi_p >= 0), arrays broadcast.

    The fidelity peaks at phi_p with period 4 pi: phi_p's smallest 4 pi image
    if it is within the cap, else the better end of [0, cap], 0 on a tie.
    """
    image = np.fmod(phi_p, 4.0 * math.pi)
    end = np.where(gate_fidelity(cap, phi_p) > gate_fidelity(0.0, phi_p), cap, 0.0)
    return np.where(image <= cap, image, end)


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
    out = _noisy_fidelity(0.5 * np.cos(phi_in / 2.0), *_lam_products(phi_in, square, lam),
                          np.cos(phi_p / 2.0), np.sin(phi_p / 2.0),
                          *_hyp_pair(hyp1f2, half, -square / 16.0))
    if not noisy.all():
        out = np.where(noisy, out, gate_fidelity(phi_in, phi_p))
    return out if out.ndim else float(out)


def _hyp_pair(series, half, z):
    """The two 1F2 values of avg_gate_fidelity at z, summed by series."""
    return (series(1.0 + half, 1.5, 2.0 + half, z),
            series(0.5 + half, 1.5, 1.5 + half, z))


def _lam_products(phi, square, lam):
    """The lambda-dependent factors (p, q) of `_noisy_fidelity`, square = phi**2."""
    return square * lam / (8.0 + 16.0 * lam), phi / (4.0 + 4.0 * lam)


def _noisy_fidelity(half_cos, p, q, cp, sp, h1, h2):
    """avg_gate_fidelity's noisy branch on floats or arrays: half_cos =
    cos(phi/2)/2, (p, q) = `_lam_products`, (cp, sp) = cos, sin(phi_p/2),
    (h1, h2) = `_hyp_pair`."""
    return 0.5 + half_cos * cp + p * cp * h1 + q * sp * h2


class _Scan:
    """The dense scan grid on [0, cap] and the lambda rows evaluated on it.

    The lambda-independent arrays are built once. A lambda row holds
    `series_lambda`'s branch and 0.5/lam, as a bool and a float, and the
    `_hyp_pair` over the grid, () on the noiseless branch; at most
    SCAN_ROWS_MAX rows are kept, the oldest evicted first. The hot row is
    the `_lam_products` over the grid for the last noisy lambda scanned,
    rebuilt only when lambda changes: corners are solved lambda by lambda,
    so consecutive solves share it. Every kept array is read-only, and
    `values` returns a fresh array.
    """

    def __init__(self, cap: float):
        grid = np.arange(0.0, cap + SCAN_STEP, SCAN_STEP)
        grid[-1] = cap
        self.grid, self.square = grid, grid**2
        self.z = -self.square / 16.0
        self.half_cos = 0.5 * np.cos(grid / 2.0)
        for array in (self.grid, self.square, self.z, self.half_cos):
            array.flags.writeable = False
        self.rows: dict[float, tuple[bool, float, tuple[np.ndarray, ...]]] = {}
        self.hot: tuple = (None, None, None)

    def row(self, lam: float) -> tuple[bool, float, tuple[np.ndarray, ...]]:
        """lam's row (noisy, half, pair), built on first use."""
        if lam not in self.rows:
            if len(self.rows) >= SCAN_ROWS_MAX:
                del self.rows[next(iter(self.rows))]
            _, noisy, half = series_lambda(lam)
            pair = _hyp_pair(hyp1f2, half, self.z) if noisy else ()
            for array in pair:
                array.flags.writeable = False
            self.rows[lam] = bool(noisy), float(half), pair
        return self.rows[lam]

    def values(self, phi_p: float, lam: float) -> np.ndarray:
        """avg_gate_fidelity(grid, phi_p, lam) for a noisy lam, bit for bit."""
        _, _, (h1, h2) = self.row(lam)
        if self.hot[0] != lam:
            p, q = _lam_products(self.grid, self.square, lam)
            p.flags.writeable = q.flags.writeable = False
            self.hot = lam, p, q
        _, p, q = self.hot
        cp, sp = np.cos(phi_p / 2.0), np.sin(phi_p / 2.0)
        # _noisy_fidelity in place, in its order: ((0.5 + hc*cp) + (p*cp)*h1) + (q*sp)*h2
        out = np.multiply(self.half_cos, cp)
        out += 0.5
        term = np.multiply(p, cp)
        term *= h1
        out += term
        np.multiply(q, sp, out=term)
        term *= h2
        out += term
        return out


def _refine_objective(phi_p: float, lam: float, half: float):
    """x -> -avg_gate_fidelity(x, phi_p, lam) for a float x and a noisy lam, bit for bit.

    half is 0.5/lam from `series_lambda`, as a scan row keeps it. Each call
    evaluates `_noisy_fidelity` on plain floats with the float 1F2 series.
    x is squared as x * x, which is what NumPy's square computes; Python's
    x**2 can differ in the last bit.
    """
    cp, sp = float(np.cos(phi_p / 2.0)), float(np.sin(phi_p / 2.0))

    def objective(x):
        x = float(x)
        square = x * x
        return -_noisy_fidelity(0.5 * float(np.cos(x / 2.0)), *_lam_products(x, square, lam),
                                cp, sp, *_hyp_pair(hyp1f2_float, half, -square / 16.0))

    return objective


def optimal_input_angle(query: ControlQuery, rows: dict | None = None) -> dict:
    """Input angle in [0, phi_cap] maximizing the average gate fidelity.

    Negative desired angles are handled by symmetry: the landscape is
    invariant under flipping the sign of both angles, so the optimum for
    -phi_p is -phi_in*. Ties break toward the smaller |phi_in|. A noiseless
    lambda (see `series_lambda`) takes `_noiseless_optimum`. The scan rows
    are kept in rows, a dict the caller owns that maps phi_cap to its scan,
    so queries sharing a dict and a lambda share one scan; without it the
    scan is built afresh.
    """
    sign = -1.0 if query.phi_p < 0 else 1.0
    phi_p, lam, cap = abs(query.phi_p), query.lam, query.phi_cap
    rows = {} if rows is None else rows
    if cap not in rows:
        rows[cap] = _Scan(cap)
    scan = rows[cap]
    noisy, half, _ = scan.row(lam)
    if noisy:
        phi_star, loss = scan_refine(_refine_objective(phi_p, lam, half), scan.grid,
                                     -scan.values(phi_p, lam), REFINE_TOL)
        fid_star = -loss
    else:
        phi_star = float(_noiseless_optimum(phi_p, cap))
        fid_star = float(gate_fidelity(phi_star, phi_p))
    return {"phi_in_star": sign * phi_star, "fidelity_star": fid_star}


class FeedforwardTable:
    """Memoized optimal angles on a (phi_p, lambda) grid.

    Corner solutions are cached and bilinearly interpolated; the
    interpolated angle is then compared against the corner optima and
    the trivial inputs (phi_p itself, 0, phi_cap) and the best of those
    candidates is returned, which keeps the memoized answer within a
    whisker of the direct solve even across regime boundaries.
    """

    def __init__(self, phi_cap: float = PHI_CAP):
        check("phi_cap", phi_cap)
        self.phi_cap = phi_cap
        self._corners: dict[tuple[int, int], float] = {}  # optimal angle per corner
        self._rows: dict = {}  # the dense-scan rows of optimal_input_angle

    def _corner(self, iphi: int, ilam: int) -> float:
        key = (iphi, ilam)
        if key not in self._corners:
            q = ControlQuery(iphi * MEMO_PITCH_PHI, ilam * MEMO_PITCH_LAM, self.phi_cap)
            self._corners[key] = optimal_input_angle(q, self._rows)["phi_in_star"]
        return self._corners[key]

    def lookup(self, phi_p, lam) -> dict:
        """Memoized optimal input angles for desired angles phi_p at lambdas lam.

        phi_p and lam broadcast. Scalars give a dict of floats, arrays a
        dict of arrays of the broadcast shape. All noisy entries weigh
        their 8 candidates in one vectorized avg_gate_fidelity call. The
        corners they need are read once per distinct corner, and missing
        corners that share lambda share one dense-scan row of the table.
        Negative phi_p map by symmetry to -phi_in*; entries on the noiseless
        branch of `series_lambda` take `_noiseless_optimum`. NaN or infinite
        inputs raise ValueError.
        """
        phi_p, lam = np.broadcast_arrays(np.asarray(phi_p, dtype=float),
                                         np.asarray(lam, dtype=float))
        shape = phi_p.shape
        phi_p, lam = phi_p.ravel(), lam.ravel()
        for name, values in (("phi_p", phi_p), ("lam", lam)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")
        lam, noisy, _ = series_lambda(lam)
        negative = phi_p < 0
        target = np.where(negative, -phi_p, phi_p)
        star = _noiseless_optimum(target, self.phi_cap)
        fid = gate_fidelity(star, target)
        if noisy.any():
            star[noisy], fid[noisy] = self._interpolate(target[noisy], lam[noisy])
        star = np.where(negative, -star, star)
        if not shape:
            return {"phi_in_star": float(star[0]), "fidelity_star": float(fid[0])}
        return {"phi_in_star": star.reshape(shape), "fidelity_star": fid.reshape(shape)}

    def _interpolate(self, phi_p: np.ndarray, lam: np.ndarray):
        """Best of the 8 candidates for each (phi_p >= 0, noisy lam) entry."""
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
        solved = np.array([self._corner(int(i), int(j)) for j, i in zip(sj[first], si[first])])
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
    check("c2", c2)
    if c2 == 0:
        return circuit
    if table is None:
        table = FeedforwardTable()
    noisy = circuit.noisy
    angles = circuit.angles.copy()
    angles[noisy] = table.lookup(angles[noisy], c2 * circuit.start_times[noisy])["phi_in_star"]
    return TimedCircuit.from_arrays(circuit.n_qubits, circuit.kinds, circuit.sites, angles,
                                    circuit.start_times)
