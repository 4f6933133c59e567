"""Unit tests for the correlated motional-heating noise model."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ioncodesign.motional_noise import (
    AngleDistribution,
    _hyp1f2_mpmath,
    _hyp1f2_series,
    NoiseParams,
    angle_correlation,
    angle_moments,
    angle_pdf,
    hyp1f2,
    hyp1f2_float,
    markovian_noise_to_signal,
    noisy_angle,
    return_probability,
    sample_trajectory,
    sample_u_pairs,
    short_time_pdf,
)


def test_trajectory_marginal_is_exponential():
    params = NoiseParams(c2=0.05, seed=0)
    tau = 20.0
    rng = np.random.default_rng(11)
    samples = np.array([sample_trajectory([tau], params, [rng])[0, 0]
                        for _ in range(4000)])
    lam = params.c2 * tau
    assert samples.mean() == pytest.approx(lam, rel=0.1)
    assert samples.var() == pytest.approx(lam**2, rel=0.15)


def test_trajectory_is_nondecreasing_in_variance():
    params = NoiseParams(c2=0.1, seed=3)
    u = sample_trajectory(np.linspace(0.0, 50.0, 200), params,
                          [np.random.default_rng(params.seed)])
    assert u.min() >= 0.0
    assert u.shape == (200, 1)


def test_uncorrelated_mode_matches_marginal():
    params = NoiseParams(c2=0.05, seed=1, correlated=False)
    tau = 10.0
    u = sample_trajectory(np.full(20000, tau), params, [np.random.default_rng(params.seed)])
    assert u.mean() == pytest.approx(params.c2 * tau, rel=0.05)


def test_zero_heating_rate_gives_zero_displacement():
    u = sample_trajectory([1.0, 2.0, 3.0], NoiseParams(c2=0.0), [np.random.default_rng(0)])
    assert u.shape == (3, 1) and np.all(u == 0.0)


@pytest.mark.parametrize("correlated", [True, False])
def test_each_generator_draws_its_own_column(correlated):
    params = NoiseParams(c2=0.3, correlated=correlated)
    times = np.linspace(0.0, 4.0, 9)
    u = sample_trajectory(times, params, [np.random.default_rng(seed) for seed in (5, 6, 7)])
    assert u.shape == (9, 3)
    for k, seed in enumerate((5, 6, 7)):
        alone = sample_trajectory(times, params, [np.random.default_rng(seed)])
        assert np.array_equal(u[:, k], alone[:, 0])


def test_noisy_angle_damps():
    assert noisy_angle(2.0, 0.0) == pytest.approx(2.0)
    assert noisy_angle(2.0, np.log(2.0)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        noisy_angle(1.0, -0.1)


def test_angle_pdf_normalizes_and_matches_moments():
    dist = AngleDistribution(phi_in=np.pi, lam=0.7)
    total, _ = quad(lambda p: angle_pdf(dist, p), 0.0, dist.phi_in)
    assert total == pytest.approx(1.0, abs=1e-8)
    mean, _ = quad(lambda p: p * angle_pdf(dist, p), 0.0, dist.phi_in)
    moments = angle_moments(dist)
    assert mean == pytest.approx(moments["mean"], abs=1e-8)
    second, _ = quad(lambda p: p * p * angle_pdf(dist, p), 0.0, dist.phi_in)
    assert second - mean**2 == pytest.approx(moments["variance"], abs=1e-8)


def test_angle_moments_against_monte_carlo():
    dist = AngleDistribution(phi_in=1.2, lam=0.4)
    rng = np.random.default_rng(5)
    phis = noisy_angle(dist.phi_in, rng.exponential(dist.lam, 200000))
    moments = angle_moments(dist)
    assert phis.mean() == pytest.approx(moments["mean"], rel=0.01)
    assert phis.var() == pytest.approx(moments["variance"], rel=0.03)
    assert np.exp(np.log(phis).mean()) == pytest.approx(moments["typical"], rel=0.01)


def test_short_time_pdf_approximates_exact_near_phi_in():
    dist = AngleDistribution(phi_in=2.0, lam=0.01)
    phi = np.linspace(1.95, 1.999, 20)
    exact = angle_pdf(dist, phi)
    approx = short_time_pdf(dist, phi)
    assert np.allclose(exact, approx, rtol=0.05)


def test_angle_correlation_limits():
    c2 = 0.02
    assert angle_correlation(5.0, 0.0, c2) == pytest.approx(1.0)
    # late-time limit: 1 / (1 + c2 delta / 2)
    for delta in (1.0, 10.0, 100.0):
        late = angle_correlation(1e4 / c2, delta, c2)
        assert late == pytest.approx(1.0 / (1.0 + c2 * delta / 2.0), abs=1e-3)


def test_angle_correlation_c2_zero_limit():
    # c2 -> 0 leaves tau / (tau + delta), and stays finite where c2 * delta is 0 * inf
    for tau, delta in ((5.0, 0.0), (2.0, 6.0), (1e308, 1e308), (1e308, np.inf)):
        limit = angle_correlation(tau, delta, 0.0)
        assert limit == 1.0 / (1.0 + delta / tau)
        assert np.isfinite(limit)
    assert angle_correlation(1e308, 1e308, 0.0) == 0.5
    assert angle_correlation(2.0, 6.0, 1e-12) == pytest.approx(0.25, rel=1e-9)


def _exact_angle_correlation(tau, delta, c2):
    """The closed form at 50 digits, where no float overflows."""
    with mpmath.workdps(50):
        tau, delta, c2 = (mpmath.mpf(v) for v in (tau, delta, c2))
        a, d = c2 * tau, c2 * delta
        return float(tau / (tau + delta) * mpmath.sqrt((1 + 2 * a) * (1 + 2 * (a + d)))
                     / (1 + 2 * a + d + a * d))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [1e307, 1e308])
def test_angle_correlation_is_finite_and_exact_at_a_huge_lambda(lam):
    # 1 + 2 (a + d) and a * d used to overflow here, giving NaN or a spurious 0
    for tau, c2 in ((lam, 1.0), (1.0, lam), (lam / 8.0, 8.0)):
        for delta in (0.0, 1e-300, 0.1 * tau, tau, 1e308, 1.7e308):
            got = angle_correlation(tau, delta, c2)
            assert math.isfinite(got) and 0.0 <= got <= 1.0
            assert got == pytest.approx(_exact_angle_correlation(tau, delta, c2),
                                        rel=1e-14, abs=1e-300)


def test_angle_correlation_against_monte_carlo():
    c2, tau, delta = 0.05, 15.0, 8.0
    rng = np.random.default_rng(9)
    u1, u2 = sample_u_pairs(tau, delta, c2, 300000, rng)
    phi1, phi2 = np.exp(-u1), np.exp(-u2)
    empirical = np.corrcoef(phi1, phi2)[0, 1]
    assert empirical == pytest.approx(angle_correlation(tau, delta, c2), abs=0.01)


def _correlation_z(u, tau, delta, c2, batches=20):
    """(corr(e^-u1, e^-u2) - angle_correlation) in batch-means standard errors."""
    x, y = np.exp(-u)
    per_batch = [np.corrcoef(bx, by)[0, 1]
                 for bx, by in zip(np.split(x, batches), np.split(y, batches))]
    se = np.std(per_batch, ddof=1) / math.sqrt(batches)
    return (np.corrcoef(x, y)[0, 1] - angle_correlation(tau, delta, c2)) / se


@pytest.mark.parametrize("tau,delta", [(10.0, 5.0), (40.0, 10.0), (80.0, 50.0)])
def test_trajectory_two_time_correlation_matches_angle_correlation(tau, delta):
    # The sampler the simulation runs, not sample_u_pairs. Independent draws share the
    # one-time marginal, so only this two-time statistic tells them apart.
    z = {}
    for correlated in (True, False):
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(2024).spawn(20000)]
        u = sample_trajectory([tau, tau + delta], NoiseParams(c2=0.02, correlated=correlated),
                              rngs)
        z[correlated] = _correlation_z(u, tau, delta, 0.02)
    assert abs(z[True]) <= 4.0
    assert abs(z[False]) > 20.0


def test_hyp1f2_sinc_identity():
    # 1F2(a; 3/2, a; -x^2/4) = sin(x)/x for any valid a
    for x in (0.3, 2.0, 7.5):
        val = hyp1f2(2.3, 1.5, 2.3, -(x**2) / 4.0)
        assert val == pytest.approx(np.sin(x) / x, abs=1e-12)


def test_hyp1f2_large_argument_fallback():
    z = -400.0
    ours = hyp1f2(1.5, 1.5, 2.5, z)
    ref = float(mpmath.hyper([1.5], [1.5, 2.5], z))
    assert ours == pytest.approx(ref, rel=1e-10)


def test_hyp1f2_rejects_bad_parameters():
    with pytest.raises(ValueError):
        hyp1f2(1.0, 0.0, 1.5, -1.0)
    with pytest.raises(ValueError):
        hyp1f2(1.0, 1.5, -2.0, -1.0)
    with pytest.raises(ValueError):
        hyp1f2(1.0, np.array([1.5, -1.0]), 1.5, -1.0)


def _reference_series(a, b1, b2, z):
    """The 0-d numpy series hyp1f2 summed before its scalar path ran on floats."""
    z = np.asarray(z, dtype=float)
    term = np.ones_like(z)
    total = np.ones_like(z)
    for k in range(500):
        term = term * ((a + k) / ((b1 + k) * (b2 + k))) * z / (k + 1.0)
        total = total + term
        if np.all(np.abs(term) < 1e-16 * np.maximum(np.abs(total), 1e-300)):
            break
    return float(total)


def test_hyp1f2_scalar_path_is_bit_identical_to_reference_series():
    rng = np.random.default_rng(2)
    for _ in range(300):
        half = 0.5 / rng.uniform(1e-4, 5.0)
        z = -rng.uniform(0.0, 150.0) if rng.random() < 0.8 else rng.uniform(0.0, 20.0)
        for a, b2 in ((1.0 + half, 2.0 + half), (0.5 + half, 1.5 + half)):
            assert hyp1f2(a, 1.5, b2, z) == _reference_series(a, 1.5, b2, z)
            assert hyp1f2(a, 1.5, b2, np.float64(z)) == _reference_series(a, 1.5, b2, z)


def test_hyp1f2_float_is_scalar_hyp1f2_bit_for_bit():
    # the refine of feedforward sums on plain floats; hyp1f2 of scalars runs
    # the 0-d array series, or mpmath past |z| = 150
    rng = np.random.default_rng(5)
    for _ in range(300):
        half = 0.5 / rng.uniform(1e-4, 5.0)
        z = -rng.uniform(0.0, 400.0) if rng.random() < 0.8 else rng.uniform(0.0, 20.0)
        for a, b2 in ((1.0 + half, 2.0 + half), (0.5 + half, 1.5 + half)):
            assert hyp1f2_float(a, 1.5, b2, z) == hyp1f2(a, 1.5, b2, z)
    for z in (-150.0, -150.5, -400.0):
        assert hyp1f2_float(1.5, 1.5, 2.5, z) == hyp1f2(1.5, 1.5, 2.5, z)


def _old_hyp1f2_float(a, b1, b2, z):
    """hyp1f2_float as it was before its stopping test dropped abs and max."""
    if abs(z) > 150.0:
        return hyp1f2(a, b1, b2, z)
    term = total = 1.0
    for k in range(500):
        term = term * ((a + k) / ((b1 + k) * (b2 + k))) * z / (k + 1.0)
        total = total + term
        if abs(term) < 1e-16 * max(abs(total), 1e-300):
            return total
    raise RuntimeError("1F2 series did not converge")


def _float_series_outcome(series, *args):
    try:
        return series(*args)
    except RuntimeError:
        return "RuntimeError"


# z = 0, |z| at and around the series limit, and z where the partial sums
# or the total cross zero (the 1F2 oscillates about 0 for large negative z)
@settings(max_examples=1000, deadline=None)
@given(a=st.floats(0.5, 60.0), b1=st.floats(0.5, 3.0), b2=st.floats(0.5, 60.0),
       z=st.one_of(st.floats(-150.0, 150.0), st.sampled_from([0.0, -0.0, -150.0, 150.0,
                                                               -149.999, -150.001])))
def test_float_series_is_the_old_loop_bit_for_bit(a, b1, b2, z):
    want = _float_series_outcome(_old_hyp1f2_float, a, b1, b2, z)
    assert _float_series_outcome(hyp1f2_float, a, b1, b2, z) == want


def test_float_series_matches_the_old_loop_where_totals_cross_zero_and_on_nan():
    signs = set()
    for z in np.linspace(-150.0, 0.0, 301):
        for a, b2 in ((1.5, 2.5), (2.1, 3.1), (0.9, 1.9)):
            want = _old_hyp1f2_float(a, 1.5, b2, z)
            assert hyp1f2_float(a, 1.5, b2, z) == want
            signs.add(math.copysign(1.0, want))
    assert signs == {-1.0, 1.0}
    for series in (hyp1f2_float, _old_hyp1f2_float):
        with pytest.raises(RuntimeError, match="did not converge"):
            series(1.5, 1.5, 2.5, math.nan)
        with pytest.raises(RuntimeError, match="did not converge"):
            series(math.nan, 1.5, 2.5, -1.0)


def _reference_array_series(a, b1, b2, z):
    """The array series as it was before it tested one witness entry per term."""
    shape = np.broadcast_shapes(a.shape, b1.shape, b2.shape, z.shape)
    term = np.ones(shape)
    total = np.ones(shape)
    for k in range(500):
        term = term * ((a + k) / ((b1 + k) * (b2 + k))) * z / (k + 1.0)
        total = total + term
        if np.all(np.abs(term) < 1e-16 * np.maximum(np.abs(total), 1e-300)):
            return total
    raise RuntimeError("1F2 series did not converge")


def _one_slab(a, b1, b2, z):
    """The array series with every entry in one slab, as hyp1f2 sums it."""
    return _hyp1f2_series(*(v[None] if v.ndim else v for v in (a, b1, b2)), z[None])[0]


def _assert_series_bit_identical(a, b1, b2, z):
    args = [np.asarray(v, dtype=float) for v in (a, b1, b2, z)]
    got, want = _one_slab(*args), _reference_array_series(*args)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("lam", [1e-4, 0.01, 0.07, 0.315, 1.0, 4.0, 50.0])
def test_array_series_is_bit_identical_on_the_scan_grid(lam):
    # the dense scan of feedforward.optimal_input_angle at the default cap 4 pi
    cap = 4.0 * np.pi
    grid = np.arange(0.0, cap + 1e-3, 1e-3)
    grid[-1] = cap
    z = -(grid**2) / 16.0
    half = 0.5 / lam
    for a, b2 in ((1.0 + half, 2.0 + half), (0.5 + half, 1.5 + half)):
        _assert_series_bit_identical(a, 1.5, b2, z)
        _assert_series_bit_identical(a, 1.5, b2, z[::-1])


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(1e-3, 50.0), size=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
def test_scalar_parameter_series_is_the_0d_array_series_bit_for_bit(lam, size, seed):
    # 0-d a, b1 and b2 are summed as floats: the same IEEE operations in the same order
    # as the 0-d array arithmetic of the reference.
    z = -np.random.default_rng(seed).uniform(0.0, 150.0, size)
    half = 0.5 / lam
    for a, b2 in ((1.0 + half, 2.0 + half), (0.5 + half, 1.5 + half)):
        _assert_series_bit_identical(a, 1.5, b2, z)


def test_array_series_is_bit_identical_when_broadcast():
    rng = np.random.default_rng(4)
    a = rng.uniform(0.6, 60.0, (5, 1, 1))
    b2 = a.reshape(1, 5, 1) + 1.0
    z = -rng.uniform(0.0, 149.0, 40)
    _assert_series_bit_identical(a, 1.5, b2, z)
    _assert_series_bit_identical(a, np.array([1.5, 2.5]).reshape(1, 1, 2, 1), b2[..., None],
                                 np.concatenate([z, -z[:5] / 10.0]))


def _slab_case(draw_lam, draw_phi, slabs, seed):
    """(a, b1, b2, z) of `slabs` return-probability-like series, each slab with
    its own lambda row, lambda = 0 placeholders (a = 2, b2 = 3) and a z = 0 entry."""
    rng = np.random.default_rng(seed)
    half = np.where(rng.random((slabs, 1, 4)) < 0.2, 1.0, 0.5 / draw_lam(rng, (slabs, 1, 4)))
    z = -draw_phi(rng, (1, 5, 1)) ** 2 / 16.0
    z[0, 0, 0] = 0.0
    return 1.0 + half, 1.5, 2.0 + half, z


@settings(max_examples=60, deadline=None)
@given(slabs=st.integers(1, 12), lam_max=st.floats(1e-3, 50.0),
       phi_max=st.floats(0.0, 40.0), seed=st.integers(0, 2**32 - 1),
       big=st.booleans(), scalar=st.booleans())
def test_each_slab_is_hyp1f2_of_that_slab_bit_for_bit(slabs, lam_max, phi_max, seed, big,
                                                        scalar):
    # Slabs with different lambda rows converge at different terms and retire
    # one by one; a slab with |z| > 150 takes the mpmath route on its own.
    a, b1, b2, z = _slab_case(lambda rng, shape: rng.uniform(1e-3, lam_max, shape),
                              lambda rng, shape: rng.uniform(0.0, phi_max, shape), slabs, seed)
    z = np.broadcast_to(z, (slabs, 5, 1)).copy()
    if big:
        z[-1, -1, 0] = -151.0 - phi_max
    if scalar:
        a, b2 = a[:, :1, :1].reshape(-1)[0], b2[:, :1, :1].reshape(-1)[0]
    out = _hyp1f2_series(a, b1, b2, z)
    assert out.shape == np.broadcast_shapes(np.shape(a), z.shape)
    for s in range(out.shape[0]):
        pick = [v[s] if np.ndim(v) == 3 else v for v in (a, b1, b2, z)]
        assert out[s].tobytes() == np.asarray(hyp1f2(*pick)).tobytes()


def test_a_single_slab_and_0d_parameters_are_the_one_slab_series():
    a, b1, b2, z = _slab_case(lambda rng, shape: rng.uniform(1e-3, 5.0, shape),
                              lambda rng, shape: rng.uniform(0.0, 12.0, shape), 1, 3)
    assert _hyp1f2_series(a, b1, b2, z)[0].tobytes() == hyp1f2(a[0], b1, b2[0], z[0]).tobytes()
    zs = np.array([[0.0, -1.0, -9.0], [-0.5, -2.0, -4.0]])
    for a in (2.0, np.asarray(2.0), np.array([[2.0]])):
        out = _hyp1f2_series(a, 1.5, 3.0, zs)
        assert [row.tobytes() for row in out] == [hyp1f2(2.0, 1.5, 3.0, z).tobytes() for z in zs]


def _parent_hyp1f2_series(a, b1, b2, z):
    """The slab loop as it was when each stopped slab left a compacted copy of
    the live stack behind, its arguments sliced to match."""
    shape = np.broadcast(a, b1, b2, z).shape
    out = total = np.ones(shape)
    if not out.size:
        return out
    if (np.abs(z) > 150.0).any():
        a, b1, b2, z = np.broadcast_arrays(a, b1, b2, z)
        big = np.abs(z) > 150.0
        out = _parent_hyp1f2_series(a, b1, b2, np.where(big, 0.0, z))
        out[big] = [_hyp1f2_mpmath(*args) for args in zip(a[big], b1[big], b2[big], z[big])]
        return out
    a, b1, b2, z = (float(v) if np.ndim(v) == 0 else v for v in (a, b1, b2, z))
    term = np.ones(shape)
    live = np.arange(shape[0])
    flat_term, flat_total = term.reshape(live.size, -1), total.reshape(live.size, -1)
    witness = np.abs(np.broadcast_to(z, shape)).reshape(live.size, -1).argmax(axis=1).tolist()
    for k in range(500):
        term *= (a + k) / ((b1 + k) * (b2 + k))
        term *= z
        term /= k + 1.0
        total += term
        done = []
        for s, w in enumerate(witness):
            if abs(flat_term.item(s, w)) < 1e-16 * max(abs(flat_total.item(s, w)), 1e-300):
                size = np.maximum(np.abs(flat_total[s]), 1e-300)
                if np.all(np.abs(flat_term[s]) < 1e-16 * size):
                    done.append(s)
                else:
                    witness[s] = int(np.argmax(np.abs(flat_term[s]) / size))
        if not done:
            continue
        if total is not out:
            out[live[done]] = total[done]
        keep = [s for s in range(live.size) if s not in done]
        if not keep:
            return out
        live, term, total = live[keep], term[keep], total[keep]
        a, b1, b2, z = (v if np.ndim(v) < len(shape) or v.shape[0] == 1 else v[keep]
                        for v in (a, b1, b2, z))
        witness = [witness[s] for s in keep]
        flat_term, flat_total = term.reshape(live.size, -1), total.reshape(live.size, -1)
    raise RuntimeError("1F2 series did not converge")


def _stop_term(a, b1, b2, z):
    """The term at which the one-slab series of these entries stops."""
    term, total = np.ones(np.broadcast(a, b1, b2, z).shape), 1.0
    for k in range(500):
        term = term * ((a + k) / ((b1 + k) * (b2 + k))) * z / (k + 1.0)
        total = total + term
        if np.all(np.abs(term) < 1e-16 * np.maximum(np.abs(total), 1e-300)):
            return k
    raise RuntimeError("1F2 series did not converge")


@settings(max_examples=60, deadline=None)
@given(slabs=st.integers(2, 10), lam=st.floats(1e-3, 50.0), seed=st.integers(0, 2**32 - 1),
       shared=st.booleans())
def test_slabs_that_stop_far_apart_are_each_their_one_slab_call(slabs, lam, seed, shared):
    # Each slab draws its own |z| scale over [0, 150], the first near 0 and the
    # last at 150, so stopped slabs are summed on for ten terms or more.
    rng = np.random.default_rng(seed)
    scale = np.concatenate(([rng.uniform(0.0, 1.0)], rng.uniform(0.0, 150.0, slabs - 2), [150.0]))
    z = -scale[:, None] * rng.uniform(0.0, 1.0, (slabs, 7))
    z[:, 0] = -scale
    half = 0.5 / lam
    if shared:
        a, b2 = 1.0 + half, 2.0 + half
    else:
        a = 1.0 + half * rng.uniform(0.5, 2.0, (slabs, 1))
        b2 = a + 1.0
    stops = [_stop_term(np.asarray(a if shared else a[s]), 1.5,
                        np.asarray(b2 if shared else b2[s]), z[s]) for s in range(slabs)]
    assert max(stops) - min(stops) >= 10
    out = _hyp1f2_series(a, 1.5, b2, z)
    assert out.tobytes() == _parent_hyp1f2_series(a, 1.5, b2, z).tobytes()
    for s in range(slabs):
        one = hyp1f2(a if shared else a[s], 1.5, b2 if shared else b2[s], z[s])
        assert out[s].tobytes() == one.tobytes()


@settings(max_examples=60, deadline=None)
@given(slabs=st.integers(1, 12), lam_max=st.floats(1e-3, 50.0),
       phi_max=st.floats(0.0, 60.0), seed=st.integers(0, 2**32 - 1), scalar=st.booleans())
def test_slab_loop_is_the_compacting_loop_bit_for_bit(slabs, lam_max, phi_max, seed, scalar):
    # phi_max past 49 sends the largest |z| of every slab to mpmath
    a, b1, b2, z = _slab_case(lambda rng, shape: rng.uniform(1e-3, lam_max, shape),
                              lambda rng, shape: rng.uniform(0.0, phi_max, shape), slabs, seed)
    z = z * np.random.default_rng(seed).uniform(0.0, 1.0, (slabs, 5, 1))
    if scalar:
        a, b2 = a[:, :1, :1].reshape(-1)[0], b2[:, :1, :1].reshape(-1)[0]
    assert (_hyp1f2_series(a, b1, b2, z).tobytes()
            == _parent_hyp1f2_series(a, b1, b2, z).tobytes())


def test_a_stopped_slab_keeps_the_totals_it_stopped_with():
    # b1 and b2 just above -1: alone, slab 0 stops after its first term, and its
    # next term would add about 0.7 to its total while slab 1 is still summed
    near = np.nextafter(-1.0, 0.0)
    b = np.array([[near], [1.5]])
    z = np.array([[0.9e-16], [-100.0]])
    out = _hyp1f2_series(1.0, b, b, z)
    assert out.tobytes() == _parent_hyp1f2_series(1.0, b, b, z).tobytes()
    assert out[0, 0] == hyp1f2(1.0, near, near, 0.9e-16) == 1.0
    assert out[1, 0] == hyp1f2(1.0, 1.5, 1.5, -100.0)


def test_a_nan_slab_fails_after_the_others_have_stopped():
    z = -np.linspace(0.0, 140.0, 12).reshape(4, 3)
    z[2, 1] = np.nan
    for series in (_hyp1f2_series, _parent_hyp1f2_series):
        with pytest.raises(RuntimeError, match="did not converge"):
            series(2.0, 1.5, 3.0, z)
    # every other slab alone converges
    for s in (0, 1, 3):
        assert np.isfinite(_hyp1f2_series(2.0, 1.5, 3.0, z[s:s + 1])).all()


def test_array_series_of_empty_arrays_is_empty():
    for z in (np.array([]), np.zeros((0, 3))):
        out = _hyp1f2_series(np.asarray(1.0), np.asarray(1.5), np.asarray(2.0), z)
        assert out.shape == z.shape
        assert hyp1f2(np.ones((2, 1)), 1.5, 2.0, z.reshape(-1)).shape == (2, 0)
    assert hyp1f2(1.0, 1.5, 2.0, np.array([])).shape == (0,)


def test_hyp1f2_broadcast_matches_scalar_calls():
    a = np.array([1.2, 3.0, 41.0]).reshape(3, 1, 1)
    b2 = np.array([2.5, 4.0, 60.0, 1.7]).reshape(1, 4, 1)
    z = np.array([0.0, -0.5, -9.8, 3.0, -149.0, -151.0, -400.0])  # last two on mpmath
    out = hyp1f2(a, 1.5, b2, z)
    assert out.shape == (3, 4, 7)
    for idx in np.ndindex(out.shape):
        want = hyp1f2(float(a[idx[0], 0, 0]), 1.5, float(b2[0, idx[1], 0]), float(z[idx[2]]))
        assert out[idx] == pytest.approx(want, rel=1e-14, abs=1e-300)
    # all four arguments broadcast, and a mix of scalars and 0-d arrays stays scalar
    b1 = np.array([1.5, 2.5])
    assert hyp1f2(2.0, b1, 3.0, np.array([[-1.0], [-2.0]])).shape == (2, 2)
    assert isinstance(hyp1f2(np.float64(2.0), np.array(1.5), 3.0, -1.0), float)


@pytest.mark.parametrize("tiny", [1e-310, 5e-324, 2e-308])
def test_tiny_lambda_takes_the_noiseless_branch(tiny):
    from ioncodesign.feedforward import avg_gate_fidelity, gate_fidelity

    assert avg_gate_fidelity(1.0, 1.0, tiny) == avg_gate_fidelity(1.0, 1.0, 0.0) == 1.0
    assert avg_gate_fidelity(2.0, 0.7, tiny) == float(gate_fidelity(2.0, 0.7))
    assert return_probability(1.0, tiny) == return_probability(1.0, 0.0)
    phi = np.linspace(-6.0, 6.0, 13)
    lam = np.array([0.0, tiny, 1e-300, 0.3])[:, None]
    broadcast = return_probability(phi, lam)
    assert broadcast.shape == (4, 13)
    assert np.array_equal(broadcast[1], broadcast[0])
    fid = avg_gate_fidelity(phi, 1.1, lam)
    assert np.array_equal(fid[1], gate_fidelity(phi, 1.1))
    for row in range(4):
        want = [avg_gate_fidelity(p, 1.1, float(lam[row, 0])) for p in phi]
        assert fid[row] == pytest.approx(want, rel=1e-14)


def test_small_lambda_is_continuous_with_zero():
    from ioncodesign.feedforward import avg_gate_fidelity

    for phi_in, phi_p in ((1.0, 1.0), (3.0, 0.4), (-2.0, 5.0)):
        at_zero = avg_gate_fidelity(phi_in, phi_p, 0.0)
        rp_zero = return_probability(phi_in, 0.0)
        for lam in (1e-300, 1e-200, 1e-100, 1e-30, 1e-15):
            assert avg_gate_fidelity(phi_in, phi_p, lam) == pytest.approx(at_zero, abs=1e-14)
            assert return_probability(phi_in, lam) == pytest.approx(rp_zero, abs=1e-14)


def test_return_probability_broadcasts_lambda():
    phi = np.linspace(0.5, 2 * np.pi, 5)
    lam = np.array([0.0, 0.01, 0.7, 2.5])
    grid = return_probability(phi[:, None], lam[None, :])
    for i, p in enumerate(phi):
        for j, l in enumerate(lam):
            assert grid[i, j] == pytest.approx(return_probability(p, l), rel=1e-14)
    assert np.array_equal(grid[:, 0], np.cos(phi / 4.0) ** 2)
    with pytest.raises(ValueError):
        return_probability(1.0, np.array([0.1, -0.1]))
    with pytest.raises(ValueError):
        return_probability(1.0, float("nan"))


@settings(max_examples=60, deadline=None)
@given(phi_in=st.floats(-4 * np.pi, 4 * np.pi), lam=st.floats(0.0, 10.0))
def test_return_probability_is_a_probability(phi_in, lam):
    assert -1e-12 <= return_probability(phi_in, lam) <= 1.0 + 1e-12


def test_return_probability_reduces_to_noiseless():
    phi = np.linspace(0.0, 2 * np.pi, 9)
    assert np.allclose(return_probability(phi, 0.0), np.cos(phi / 4.0) ** 2)


def test_return_probability_against_quadrature():
    for lam in (0.05, 0.5, 3.0):
        for phi_in in (0.4, np.pi, 5.0):
            numeric, _ = quad(
                lambda u: np.cos(phi_in * np.exp(-u) / 4.0) ** 2
                * np.exp(-u / lam) / lam, 0.0, np.inf)
            assert return_probability(phi_in, lam) == pytest.approx(numeric, abs=1e-10)


def test_markovian_noise_to_signal():
    lam = 0.2
    beta = lam**2 / (1 + 2 * lam)
    out = markovian_noise_to_signal(100, lam)
    assert out["beta"] == pytest.approx(beta)
    assert out["eta"] == pytest.approx(np.sqrt(beta) / 100)
    with pytest.raises(ValueError):
        markovian_noise_to_signal(0, lam)


@pytest.mark.parametrize("c2", [math.nan, math.inf])
def test_non_finite_heating_rate_is_rejected(c2):
    # A NaN rate used to read as no noise, so the evolver ran noiseless.
    with pytest.raises(ValueError, match="c2 must be a finite number >= 0"):
        NoiseParams(c2=c2)


@pytest.mark.parametrize("seed", [-1, 2.5, True])
def test_noise_seed_must_be_a_non_negative_integer_and_not_a_bool(seed):
    # -1 failed only at the first draw, without naming the seed, 2.5 in a TypeError
    # there, and True was drawn from as 1.
    with pytest.raises(ValueError, match="seed must be an integer >= 0, not a bool"):
        NoiseParams(c2=0.05, seed=seed)


def test_validation_errors():
    with pytest.raises(ValueError):
        NoiseParams(c2=-0.1)
    with pytest.raises(ValueError):
        AngleDistribution(phi_in=1.0, lam=-1.0)
    with pytest.raises(ValueError):
        angle_pdf(AngleDistribution(1.0, 0.0), 0.5)
    with pytest.raises(ValueError):
        sample_trajectory([2.0, 1.0], NoiseParams(c2=0.1), [np.random.default_rng(0)])
    with pytest.raises(ValueError):
        angle_correlation(0.0, 1.0, 0.1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, name", [
    (lambda: AngleDistribution(math.nan, 0.1), "phi_in"),
    (lambda: AngleDistribution(math.inf, 0.1), "phi_in"),
    (lambda: AngleDistribution(-1.0, 0.1), "phi_in"),
    (lambda: AngleDistribution(1.0, math.inf), "lam"),
    (lambda: AngleDistribution(1.0, math.nan), "lam"),
    (lambda: AngleDistribution(1.0, -0.1), "lam"),
    (lambda: angle_correlation(1.0, 1.0, -0.1), "c2"),
    (lambda: angle_correlation(1.0, 1.0, math.nan), "c2"),
    (lambda: angle_correlation(1.0, 1.0, math.inf), "c2"),
    (lambda: angle_correlation(math.nan, 1.0, 0.1), "tau"),
    (lambda: angle_correlation(math.inf, 1.0, 0.1), "tau"),
    (lambda: angle_correlation(0.0, 1.0, 0.1), "tau"),
    (lambda: angle_correlation(1.0, math.nan, 0.1), "delta"),
    (lambda: angle_correlation(1.0, -1.0, 0.1), "delta"),
    (lambda: markovian_noise_to_signal(3, -0.2), "lam"),
    (lambda: markovian_noise_to_signal(3, math.nan), "lam"),
    (lambda: markovian_noise_to_signal(3, math.inf), "lam"),
    (lambda: markovian_noise_to_signal(math.nan, 0.2), "r"),
])
def test_noise_statistics_reject_bad_inputs_by_name(call, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        call()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, name", [
    (lambda: markovian_noise_to_signal(2.5, 0.1), "r"),
    (lambda: markovian_noise_to_signal(True, 0.1), "r"),
    (lambda: AngleDistribution(True, 0.1), "phi_in"),
    (lambda: angle_correlation(1.0, 1.0, True), "c2"),
])
def test_noise_statistics_reject_fractional_integers_and_bools_by_name(call, name):
    # an integer takes no fraction and no number a bool: these four returned values
    with pytest.raises(ValueError, match=f"^{name} must"):
        call()


@pytest.mark.filterwarnings("error")
def test_noise_statistics_keep_their_limits():
    assert angle_correlation(1.0, math.inf, 0.02) == 0.0
    assert angle_correlation(1.0, math.inf, 0.0) == 0.0
    assert angle_moments(AngleDistribution(0.0, 0.0)) == {"mean": 0.0, "typical": 0.0,
                                                         "variance": 0.0}
    assert markovian_noise_to_signal(3, 0.0) == {"beta": 0.0, "eta": 0.0}


def _direct_angle_correlation(tau, delta, c2):
    """The correlation as written before its overflow-safe form."""
    if c2 == 0:
        return tau / (tau + delta)
    a, b = c2 * tau, c2 * (tau + delta)
    d = c2 * delta
    return (tau / (tau + delta)) * np.sqrt((1 + 2 * a) * (1 + 2 * b)) \
        / (1 + 2 * a + d + a * d)


positive_finite = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
non_negative_finite = st.floats(min_value=0.0, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(tau=positive_finite, c2=non_negative_finite, factor=st.sampled_from([0.1, 1.0, 10.0]))
def test_angle_correlation_is_a_correlation_wherever_noise_stats_runs(tau, c2, factor):
    # noise-stats admits tau > 0 and c2 >= 0 whose (c2 * tau)**2 is finite,
    # and asks for delta = 0.1 tau, tau and 10 tau (inf when it overflows)
    assume(math.isfinite((c2 * tau) * (c2 * tau)))
    rho = angle_correlation(tau, factor * tau, c2)
    assert 0.0 <= rho <= 1.0


@settings(max_examples=500, deadline=None)
@given(tau=positive_finite, delta=non_negative_finite, c2=non_negative_finite)
def test_angle_correlation_matches_the_direct_formula_where_it_is_finite(tau, delta, c2):
    assume(math.isfinite(tau + delta))  # beyond it the direct ratio is 0, not the limit
    with np.errstate(all="ignore"):
        direct = _direct_angle_correlation(tau, delta, c2)
    assume(np.isfinite(direct))
    assert math.isclose(angle_correlation(tau, delta, c2), direct, rel_tol=1e-14,
                        abs_tol=1e-300)


def test_angle_correlation_overflow_limits():
    assert angle_correlation(1e308, np.inf, 1e-300) == 0.0
    assert angle_correlation(1.0, np.inf, 0.02) == 0.0
    assert 0.0 < angle_correlation(1e308, 1e308, 1e-300) < 1.0


@pytest.mark.parametrize("lam", [1e154, 1e200])
def test_noise_statistics_reach_their_large_lambda_limits(lam):
    # lam**2 used to overflow: a variance of 0.0 at 1e154 and an OverflowError at 1e200
    phi_in = 2.5
    moments = angle_moments(AngleDistribution(phi_in, lam))
    assert math.isclose(moments["variance"], phi_in**2 / (2.0 * lam), rel_tol=1e-15)
    beta = markovian_noise_to_signal(4, lam)["beta"]
    assert math.isclose(beta, lam / 2.0, rel_tol=1e-15)


def _normal(x):
    return 2.3e-308 <= abs(x) < math.inf


@settings(max_examples=500, deadline=None)
@given(phi_in=positive_finite, lam=positive_finite)
def test_variance_and_beta_match_the_direct_formulas_where_they_are_finite(phi_in, lam):
    phi_in, lam = np.float64(phi_in), np.float64(lam)
    with np.errstate(all="ignore"):
        phi_square, lam_square = phi_in**2, lam**2
        numerator, beta_denominator = phi_square * lam_square, 1.0 + 2.0 * lam
        denominator = beta_denominator * (1.0 + lam) ** 2
        variance, beta = numerator / denominator, lam_square / beta_denominator
    # the direct formulas are trusted where no step overflows or goes subnormal
    if all(map(_normal, (phi_square, lam_square, numerator, denominator, variance))):
        assert math.isclose(angle_moments(AngleDistribution(phi_in, lam))["variance"], variance,
                            rel_tol=1e-14)
    if all(map(_normal, (lam_square, beta_denominator, beta))):
        assert math.isclose(markovian_noise_to_signal(3, lam)["beta"], beta, rel_tol=1e-14)
