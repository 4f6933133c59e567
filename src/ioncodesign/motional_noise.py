"""Correlated motional-heating noise model for laser-driven gates.

The phonon coherent-state amplitude performs a two-dimensional random
walk; a gate applied at experiment time tau picks up the dimensionless
displacement u = (a_osc/a_laser)^2 |alpha(tau)|^2 and imparts the angle
phi = phi_in * exp(-u). Everything here is parametrized by the single
latent variable lambda = c2 * tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rules import check

_MAX_SERIES_TERMS = 500
_SERIES_Z_LIMIT = 150.0  # beyond this, double-precision series cancellation bites
# Largest 0.5/lambda the 1F2 series of the noise model takes: beyond it the
# series' (b1 + k)(b2 + k) overflows, and the lambda = 0 value is exact to
# far below double precision anyway.
_SERIES_HALF_MAX = 1e300


@dataclass(frozen=True)
class NoiseParams:
    c2: float  # heating rate constant, 1/ms
    seed: int = 0
    correlated: bool = True

    def __post_init__(self):
        check("c2", self.c2)
        check("seed", self.seed)


@dataclass(frozen=True)
class AngleDistribution:
    phi_in: float
    lam: float  # c2 * tau

    def __post_init__(self):
        check("phi_in", self.phi_in)
        check("lam", self.lam)


def sample_trajectory(times, params: NoiseParams, rngs) -> np.ndarray:
    """(len(times), len(rngs)) u at gate start times sorted from 0 up:
    column k is one diffusion path drawn from rngs[k].

    The scaled amplitude z(tau) is an exact two-dimensional Wiener
    process from z(0) = 0 with E|z(tau)|^2 = c2 * tau (Gaussian
    increments of scale sqrt(c2 * dtau / 2), no discretization error).
    With correlated=False every u is drawn independently from
    Exponential(mean c2 * tau), the single-time marginal of the
    correlated process, its mean floored at 1e-300 and u exactly 0 at
    tau = 0. With c2 = 0 every u is 0 and nothing is drawn.
    """
    times = np.asarray(times, dtype=float)
    if times.size and (np.any(np.diff(times) < 0) or times[0] < 0):
        raise ValueError("times must be sorted ascending and non-negative")
    if params.c2 == 0.0 or times.size * len(rngs) == 0:
        return np.zeros((times.size, len(rngs)))
    if not params.correlated:
        scale = np.where(times == 0.0, 0.0, np.maximum(params.c2 * times, 1e-300))
        return np.array([rng.exponential(scale) for rng in rngs]).T
    scale = np.sqrt(params.c2 * np.diff(times, prepend=0.0) / 2.0)
    normals = np.array([(rng.standard_normal(times.size), rng.standard_normal(times.size))
                        for rng in rngs])
    steps = (normals[:, 0] + 1j * normals[:, 1]) * scale
    return (np.abs(np.cumsum(steps, axis=1)) ** 2).T


def sample_u_pairs(tau: float, delta: float, c2: float, n_samples: int,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (u(tau), u(tau+delta)) draws along independent paths."""
    z1 = (rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples)) \
        * np.sqrt(c2 * tau / 2.0)
    step = (rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples)) \
        * np.sqrt(c2 * delta / 2.0)
    z2 = z1 + step
    return np.abs(z1) ** 2, np.abs(z2) ** 2


def noisy_angle(phi_in, u):
    """Angle actually imparted: phi_in * exp(-u)."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise ValueError("u must be non-negative")
    return phi_in * np.exp(-u)


def angle_pdf(dist: AngleDistribution, phi):
    """Density of the imparted angle on (0, phi_in); zero outside."""
    if dist.lam == 0:
        raise ValueError("lambda=0 is a delta distribution; callers must branch")
    phi = np.asarray(phi, dtype=float)
    inside = (phi > 0) & (phi < dist.phi_in)
    out = np.zeros_like(phi)
    p = phi[inside]
    out[inside] = (p / dist.phi_in) ** (1.0 / dist.lam) / (dist.lam * p)
    return out if out.ndim else float(out)


def angle_moments(dist: AngleDistribution) -> dict:
    """Mean, typical (geometric-mean) angle, and variance."""
    lam, phi_in = dist.lam, dist.phi_in
    mean = phi_in / (1.0 + lam)
    typical = phi_in * np.exp(-lam)
    variance = 0.5 * (phi_in * (lam / (1.0 + lam))) ** 2 / (0.5 + lam)  # no 1 + 2 lam overflow
    return {"mean": mean, "typical": typical, "variance": variance}


def angle_correlation(tau: float, delta: float, c2: float) -> float:
    """Correlation of the angles of two gates applied delta apart.

    Finite for every finite tau > 0, delta >= 0 and c2 >= 0; delta = inf gives 0.
    """
    check("tau", tau)
    if not delta >= 0:
        raise ValueError("delta must be non-negative")
    check("c2", c2)
    ratio = 1.0 / (1.0 + delta / tau)  # tau / (tau + delta) without forming tau + delta
    if c2 == 0:
        return ratio  # the c2 -> 0 limit
    a, d = c2 * tau, c2 * delta
    if d == np.inf:
        return 0.0  # the c2 * delta -> inf limit
    # sqrt(A B) / D with A = 1 + 2a, B = A + 2d, D = A + d (1 + a): u = A / D is
    # 1 / (1 + d (1 + a) / A) and B / D = u + u d / (a + 1/2) with u d < 2, so nothing overflows
    u = 1.0 / (1.0 + d * ((0.5 + 0.5 * a) / (0.5 + a)))
    return ratio * np.sqrt(u) * np.sqrt(u + u * d / (0.5 + a))


def short_time_pdf(dist: AngleDistribution, phi):
    """Exponential-tail approximation of the angle density near phi_in."""
    if dist.lam == 0:
        raise ValueError("lambda=0 is a delta distribution; callers must branch")
    phi = np.asarray(phi, dtype=float)
    scale = dist.lam * dist.phi_in
    out = np.where(phi < dist.phi_in, np.exp(-(dist.phi_in - phi) / scale) / scale, 0.0)
    return out if out.ndim else float(out)


def hyp1f2(a, b1, b2, z):
    """Generalized hypergeometric 1F2 by direct series summation.

    Entire in z, so the series always converges; terms are accumulated
    until they fall below 1e-16 of the running sum. All four arguments
    broadcast against each other, and every entry is summed as one slab
    of `_hyp1f2_series`: one array series that stops once all entries
    have converged. Scalar arguments take the same path and give a float.
    For large negative z the alternating terms cancel catastrophically in
    double precision, so entries with |z| > 150 are evaluated one by one
    in arbitrary precision instead.
    """
    a, b1, b2, z = (np.asarray(v, dtype=float) for v in (a, b1, b2, z))
    for b in (b1, b2):
        if np.any((b <= 0) & (b == np.floor(b))):
            raise ValueError("b parameters must not be non-positive integers")
    out = _hyp1f2_series(*(v[None] if v.ndim else v for v in (a, b1, b2)), z[None])[0]
    return out if out.ndim else float(out)


def hyp1f2_float(a: float, b1: float, b2: float, z: float) -> float:
    """`hyp1f2` of four floats on plain floats, bit for bit, b1 and b2 unchecked."""
    if abs(z) > _SERIES_Z_LIMIT:
        return _hyp1f2_mpmath(a, b1, b2, z)
    term = total = 1.0
    for k in range(_MAX_SERIES_TERMS):
        term = term * ((a + k) / ((b1 + k) * (b2 + k))) * z / (k + 1.0)
        total = total + term
        # abs(term) < 1e-16 * max(abs(total), 1e-300) without the builtin calls;
        # a NaN compares false throughout, so it never converges
        size = total if total >= 0.0 else -total
        if size < 1e-300:
            size = 1e-300
        if (term if term >= 0.0 else -term) < 1e-16 * size:
            return total
    raise RuntimeError("1F2 series did not converge")


def _hyp1f2_series(a, b1, b2, z) -> np.ndarray:
    """Independent 1F2 series stacked along axis 0 (slabs), summed in one array loop.

    The arguments broadcast; one without the leading axis, or with length
    1 there, is shared by every slab, and 0-d arguments are one slab. A
    slab stops at the first term where all its entries have converged, as
    it would alone, so slab s is bit for bit `hyp1f2(a[s], b1[s], b2[s],
    z[s])`: its totals are copied out then, and the loop returns once every
    slab has stopped (a stopped slab is still summed meanwhile, and its
    sums discarded). Entries past |z| = 150 are evaluated one by one in
    arbitrary precision, and sum z = 0 in the series meanwhile, which
    converges at once and so moves no stop.

    A slab's stopping test runs on one witness entry first: while it has
    not converged, neither have all entries. The witness starts at the
    slab's largest |z| and moves, after each failed full test, to the
    entry furthest from converging. 0-d parameters are summed as floats,
    the same IEEE operations without the 0-d ufunc calls.
    """
    shape = np.broadcast(a, b1, b2, z).shape
    out = np.ones(shape)
    if not out.size:
        return out
    if (np.abs(z) > _SERIES_Z_LIMIT).any():
        a, b1, b2, z = np.broadcast_arrays(a, b1, b2, z)
        big = np.abs(z) > _SERIES_Z_LIMIT
        out = _hyp1f2_series(a, b1, b2, np.where(big, 0.0, z))
        out[big] = [_hyp1f2_mpmath(*args) for args in zip(a[big], b1[big], b2[big], z[big])]
        return out
    a, b1, b2, z = (float(v) if np.ndim(v) == 0 else v for v in (a, b1, b2, z))
    term, total, slabs = np.ones(shape), np.ones(shape), shape[0] if shape else 1
    flat_out, flat_term, flat_total = (v.reshape(slabs, -1) for v in (out, term, total))
    witness = dict(enumerate(
        np.abs(np.broadcast_to(z, shape)).reshape(slabs, -1).argmax(axis=1).tolist()))
    for k in range(_MAX_SERIES_TERMS):
        term *= (a + k) / ((b1 + k) * (b2 + k))
        term *= z
        term /= k + 1.0
        total += term
        for s, w in list(witness.items()):
            if abs(flat_term.item(s, w)) < 1e-16 * max(abs(flat_total.item(s, w)), 1e-300):
                size = np.maximum(np.abs(flat_total[s]), 1e-300)
                if np.all(np.abs(flat_term[s]) < 1e-16 * size):
                    flat_out[s] = flat_total[s]
                    del witness[s]
                else:
                    witness[s] = int(np.argmax(np.abs(flat_term[s]) / size))
        if not witness:
            return out
    raise RuntimeError("1F2 series did not converge")


def _hyp1f2_mpmath(a, b1, b2, z) -> float:
    import mpmath

    return float(mpmath.hyper([a], [b1, b2], z))


def series_lambda(lam):
    """Validated lambda, its noisy-branch mask, and 0.5/lam for the 1F2 series.

    Entries with lambda = 0, or so small that 0.5/lam overflows (or exceeds
    1e300), take the noiseless branch: they are masked out and their
    0.5/lam reads 1.0, a placeholder the callers discard.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(~(lam >= 0)):
        raise ValueError("lambda must be non-negative")
    with np.errstate(divide="ignore", over="ignore"):
        half = 0.5 / lam
    noisy = half <= _SERIES_HALF_MAX
    return lam, noisy, np.where(noisy, half, 1.0)


def return_probability(phi_in, lam):
    """Average probability of returning to |down,down> after a noisy XX gate.

    phi_in and lam broadcast, and each index along the first axis of their
    broadcast shape is one `_hyp1f2_series` slab that stops on its own, so
    slab s is bit for bit the call on phi_in[s:s+1] and lam[s:s+1] (an
    argument whose leading axis is 1, or which has fewer axes, is shared by
    every slab). 0-d arguments are one slab and give a float. Entries on the
    noiseless branch (see `series_lambda`) return the noiseless cos^2(phi_in/4).
    """
    phi_in = np.asarray(phi_in, dtype=float)
    lam, noisy, half = series_lambda(lam)
    base = np.cos(phi_in / 4.0) ** 2
    correction = np.zeros(lam.shape)
    if noisy.any():
        correction = np.where(
            noisy,
            (phi_in**2 * lam / (8.0 + 16.0 * lam))
            * _hyp1f2_series(1.0 + half, 1.5, 2.0 + half, -(phi_in**2) / 16.0),
            0.0)
    out = base + correction
    return out if out.ndim else float(out)


def markovian_noise_to_signal(r: int, lam: float) -> dict:
    """Relative angle noise of an r-step sequence if gates were independent."""
    check("r", r)
    check("lam", lam)
    beta = lam * (0.5 * lam / (0.5 + lam))  # lam / (1 + 2 lam) halved above and below: no overflow
    return {"beta": beta, "eta": np.sqrt(beta) / r}
