"""Unit tests for the correlated motional-heating noise model."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ioncodesign.motional_noise import (
    AngleDistribution,
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


def test_angle_correlation_against_monte_carlo():
    c2, tau, delta = 0.05, 15.0, 8.0
    rng = np.random.default_rng(9)
    u1, u2 = sample_u_pairs(tau, delta, c2, 300000, rng)
    phi1, phi2 = np.exp(-u1), np.exp(-u2)
    empirical = np.corrcoef(phi1, phi2)[0, 1]
    assert empirical == pytest.approx(angle_correlation(tau, delta, c2), abs=0.01)


def test_hyp1f2_sinc_identity():
    # 1F2(a; 3/2, a; -x^2/4) = sin(x)/x for any valid a
    for x in (0.3, 2.0, 7.5):
        val = hyp1f2(2.3, 1.5, 2.3, -(x**2) / 4.0)
        assert val == pytest.approx(np.sin(x) / x, abs=1e-12)


def test_hyp1f2_large_argument_fallback():
    import mpmath

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


def _assert_series_bit_identical(a, b1, b2, z):
    args = [np.asarray(v, dtype=float) for v in (a, b1, b2, z)]
    got, want = _hyp1f2_series(*args), _reference_array_series(*args)
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
    with pytest.raises(ValueError, match="c2 must be non-negative and finite"):
        NoiseParams(c2=c2)


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
