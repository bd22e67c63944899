"""Distribution kernel tests against independent oracles.

Oracles used here: exact rational enumeration of hypergeometric-family
weights, a 40-digit mpmath sum over the whole support, scipy's central and
non-central hypergeometric distributions, numerical quadrature for
truncated-normal normalization, and closed-form moments for half-normal
sampling.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from surveysynth.dists import (
    NchgParams,
    biased_success_prob,
    inv_logit,
    logit,
    nchg_logpmf,
    nchg_logpmf_unchecked,
    nchg_sample,
    truncnorm_logpdf,
    truncnorm_sample,
)
from surveysynth.dists import _approx_mode


# ---------------------------------------------------------------------------
# logit / inv_logit


def test_logit_value():
    assert logit(0.14) == pytest.approx(math.log(0.14 / 0.86), abs=1e-12)
    assert logit(0.14) == pytest.approx(-1.8152899666382492, abs=1e-12)
    assert logit(0.5) == pytest.approx(0.0, abs=1e-15)


def test_inv_logit_value():
    assert inv_logit(-2.0) == pytest.approx(1.0 / (1.0 + math.exp(2.0)), rel=1e-14)
    assert inv_logit(0.0) == 0.5


def test_inv_logit_extreme_arguments_stay_in_unit_interval():
    for x in (-800.0, -40.0, 40.0, 800.0):
        v = inv_logit(x)
        assert 0.0 <= v <= 1.0
        assert np.isfinite(v)


def test_logit_domain_errors():
    for p in (0.0, 1.0, -0.2, 1.7, math.nan):
        with pytest.raises(ValueError):
            logit(p)


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_logit_inv_logit_roundtrip(p):
    assert inv_logit(logit(p)) == pytest.approx(p, abs=1e-12)


@given(st.floats(min_value=-20, max_value=20))
def test_inv_logit_logit_roundtrip(x):
    # near-saturated probabilities cap the recoverable precision of x
    assert logit(inv_logit(x)) == pytest.approx(x, abs=1e-6)


def test_logit_vectorized():
    p = np.array([0.1, 0.5, 0.9])
    np.testing.assert_allclose(logit(p), np.log(p / (1 - p)), rtol=1e-13)
    np.testing.assert_allclose(inv_logit(logit(p)), p, rtol=1e-13)


# ---------------------------------------------------------------------------
# truncated normal log-density


def test_truncnorm_untruncated_matches_normal():
    # standard normal at 0: -0.5*log(2*pi)
    assert truncnorm_logpdf(0.0, 0.0, 1.0) == pytest.approx(
        -0.9189385332046727, abs=1e-13
    )
    # generic point vs direct formula
    x, m, v = 0.7, -0.3, 2.5
    direct = -0.5 * math.log(2 * math.pi * v) - 0.5 * (x - m) ** 2 / v
    assert truncnorm_logpdf(x, m, v) == pytest.approx(direct, abs=1e-13)


def test_truncnorm_half_normal_doubles_density():
    # truncation at the mean removes exactly half the mass
    for x in (0.0, 0.5, 2.0):
        full = truncnorm_logpdf(x, 0.0, 1.0)
        half = truncnorm_logpdf(x, 0.0, 1.0, lower=0.0)
        assert half == pytest.approx(full + math.log(2.0), abs=1e-12)


@pytest.mark.parametrize(
    "mean,var,lower,upper",
    [
        (0.0, 1.0, 0.0, math.inf),
        (0.0, 1.0, -1.0, 2.0),
        (3.0, 4.0, 2.5, 3.5),
        (-1.0, 0.25, -math.inf, -1.2),
        (0.0, 1.0, 2.0, 5.0),
    ],
)
def test_truncnorm_integrates_to_one(mean, var, lower, upper):
    lo = lower if math.isfinite(lower) else mean - 12 * math.sqrt(var)
    hi = upper if math.isfinite(upper) else mean + 12 * math.sqrt(var)
    total, err = integrate.quad(
        lambda x: math.exp(truncnorm_logpdf(x, mean, var, lower, upper)), lo, hi
    )
    assert total == pytest.approx(1.0, abs=1e-8)


def test_truncnorm_outside_support():
    assert truncnorm_logpdf(-0.5, 0.0, 1.0, lower=0.0) == -math.inf
    assert truncnorm_logpdf(3.0, 0.0, 1.0, lower=0.0, upper=2.0) == -math.inf


def test_truncnorm_domain_errors():
    with pytest.raises(ValueError):
        truncnorm_logpdf(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        truncnorm_logpdf(0.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        truncnorm_logpdf(0.0, 0.0, 1.0, lower=1.0, upper=1.0)
    with pytest.raises(ValueError):
        truncnorm_logpdf(0.0, 0.0, 1.0, lower=2.0, upper=-2.0)


def test_truncnorm_far_tail_is_finite():
    # normalization handled in log space for intervals far in the tail
    v = truncnorm_logpdf(12.3, 0.0, 1.0, lower=12.0, upper=13.0)
    assert math.isfinite(v)
    total, _ = integrate.quad(
        lambda x: math.exp(truncnorm_logpdf(x, 0.0, 1.0, 12.0, 13.0)), 12.0, 13.0
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_truncnorm_sample_half_normal_mean():
    rng = np.random.default_rng(20240801)
    draws = truncnorm_sample(0.0, 1.0, lower=0.0, rng=rng, size=1_000_000)
    assert draws.min() >= 0.0
    assert draws.mean() == pytest.approx(math.sqrt(2 / math.pi), abs=0.005)


def test_truncnorm_sample_respects_bounds():
    rng = np.random.default_rng(7)
    draws = truncnorm_sample(1.0, 4.0, lower=0.5, upper=1.5, rng=rng, size=5000)
    assert draws.min() >= 0.5
    assert draws.max() <= 1.5


def test_truncnorm_sample_scalar_and_errors():
    rng = np.random.default_rng(3)
    x = truncnorm_sample(0.0, 1.0, lower=0.0, rng=rng)
    assert isinstance(x, float) and x >= 0.0
    with pytest.raises(ValueError):
        truncnorm_sample(0.0, 1.0, lower=2.0, upper=2.0, rng=rng)
    with pytest.raises(ValueError):
        truncnorm_sample(0.0, -1.0, rng=rng)


def test_truncnorm_sample_quantiles_match_density():
    # two-sided case: empirical quantiles vs numerical inverse of the CDF
    rng = np.random.default_rng(99)
    mean, var, lo, hi = 0.5, 1.0, -0.5, 1.0
    draws = truncnorm_sample(mean, var, lo, hi, rng=rng, size=200_000)
    sd = math.sqrt(var)
    a, b = (lo - mean) / sd, (hi - mean) / sd
    ref = stats.truncnorm(a, b, loc=mean, scale=sd)
    for q in (0.05, 0.25, 0.5, 0.75, 0.95):
        assert np.quantile(draws, q) == pytest.approx(ref.ppf(q), abs=0.01)


# ---------------------------------------------------------------------------
# non-central hypergeometric


def test_nchg_params_validation():
    NchgParams(5, 5, 4, 1.0)
    with pytest.raises(ValueError):
        NchgParams(-1, 5, 2, 1.0)
    with pytest.raises(ValueError):
        NchgParams(5, 5, 11, 1.0)
    with pytest.raises(ValueError):
        NchgParams(5, 5, -1, 1.0)
    with pytest.raises(ValueError):
        NchgParams(5, 5, 4, 0.0)
    with pytest.raises(ValueError):
        NchgParams(5, 5, 4, -2.0)
    with pytest.raises(ValueError):
        NchgParams(5, 5, 4, math.inf)


def test_nchg_central_point_value():
    # C(5,2)*C(5,2)/C(10,4) = 100/210, enumerated exactly
    expect = Fraction(math.comb(5, 2) * math.comb(5, 2), math.comb(10, 4))
    got = nchg_logpmf(2, NchgParams(5, 5, 4, 1.0))
    assert got == pytest.approx(math.log(float(expect)), abs=1e-12)


def test_nchg_tilted_point_value():
    # weights at phi=2 for m1=m2=n=2: 1, 8, 4 -> P(y=1) = 8/13
    got = nchg_logpmf(1, NchgParams(2, 2, 2, 2.0))
    assert got == pytest.approx(math.log(8.0 / 13.0), abs=1e-12)


def test_nchg_outside_support():
    params = NchgParams(5, 5, 4, 1.0)
    assert nchg_logpmf(5, params) == -math.inf
    assert nchg_logpmf(-1, params) == -math.inf
    # lower support edge: n - m2 > 0 forces y >= n - m2
    params2 = NchgParams(8, 3, 6, 1.5)
    assert nchg_logpmf(2, params2) == -math.inf  # below max(0, 6-3)=3
    assert math.isfinite(nchg_logpmf(3, params2))


def test_nchg_support_single_point():
    # n == m1 + m2 pins y at m1
    params = NchgParams(3, 2, 5, 0.7)
    assert nchg_logpmf(3, params) == pytest.approx(0.0, abs=1e-14)
    params0 = NchgParams(4, 4, 0, 2.0)
    assert nchg_logpmf(0, params0) == pytest.approx(0.0, abs=1e-14)


@given(
    m1=st.integers(min_value=0, max_value=40),
    m2=st.integers(min_value=0, max_value=40),
    phi=st.floats(min_value=0.05, max_value=20.0),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_nchg_pmf_normalizes(m1, m2, phi, data):
    n = data.draw(st.integers(min_value=0, max_value=m1 + m2))
    params = NchgParams(m1, m2, n, phi)
    lo, hi = params.support
    total = sum(math.exp(nchg_logpmf(y, params)) for y in range(lo, hi + 1))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_nchg_matches_scipy_central():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m1 = int(rng.integers(0, 30))
        m2 = int(rng.integers(0, 30))
        n = int(rng.integers(0, m1 + m2 + 1))
        params = NchgParams(m1, m2, n, 1.0)
        lo, hi = params.support
        ref = stats.hypergeom(M=m1 + m2, n=m1, N=n)
        for y in range(lo, hi + 1):
            assert nchg_logpmf(y, params) == pytest.approx(
                ref.logpmf(y), abs=1e-10
            )


def test_nchg_matches_scipy_noncentral():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m1 = int(rng.integers(1, 25))
        m2 = int(rng.integers(1, 25))
        n = int(rng.integers(1, m1 + m2 + 1))
        phi = float(np.exp(rng.uniform(-2.5, 2.5)))
        params = NchgParams(m1, m2, n, phi)
        lo, hi = params.support
        ref = stats.nchypergeom_fisher(M=m1 + m2, n=m1, N=n, odds=phi)
        for y in range(lo, hi + 1):
            assert nchg_logpmf(y, params) == pytest.approx(
                ref.logpmf(y), abs=1e-9
            )


def test_nchg_large_population_normalizes():
    # population of ten million, sample of one thousand: log-space recurrence
    # must not overflow or lose normalization
    m1 = 3_000_000
    params = NchgParams(m1, 10_000_000 - m1, 1000, 1.7)
    lo, hi = params.support
    ys = np.arange(lo, hi + 1)
    total = np.exp(nchg_logpmf(ys, params)).sum()
    assert total == pytest.approx(1.0, abs=1e-10)


def test_nchg_logpmf_vectorized_matches_scalar():
    params = NchgParams(12, 9, 8, 0.6)
    ys = np.arange(-1, 10)
    vec = nchg_logpmf(ys, params)
    scal = np.array([nchg_logpmf(int(y), params) for y in ys])
    np.testing.assert_allclose(vec, scal, rtol=0, atol=0)


def _mp_log_pmf(params: NchgParams) -> list[float]:
    """Log-pmf over the whole support, summed at 40 significant digits."""
    with mpmath.workdps(40):
        m1, m2, n = params.m1, params.m2, params.n
        lo, hi = params.support
        phi = mpmath.mpf(params.phi)
        w = mpmath.binomial(m1, lo) * mpmath.binomial(m2, n - lo) * phi**lo
        weights = [w]
        for y in range(lo, hi):
            w = w * phi * (m1 - y) * (n - y) / ((y + 1) * (m2 - n + y + 1))
            weights.append(w)
        log_z = mpmath.log(mpmath.fsum(weights))
        return [float(mpmath.log(v) - log_z) for v in weights]


def _assert_log_pmf_close(got: float, ref: float, rel: float) -> None:
    # relative error of the probability, and of its log where |log p| > 1
    assert abs(got - ref) <= rel * max(1.0, abs(ref)), (got, ref)


@given(
    m1=st.integers(min_value=0, max_value=10_000_000),
    m2=st.integers(min_value=0, max_value=10_000_000),
    log_phi=st.one_of(st.just(0.0), st.floats(min_value=-30.0, max_value=30.0)),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_nchg_logpmf_matches_mpmath_full_support_sum(m1, m2, log_phi, data):
    n = data.draw(st.integers(min_value=0, max_value=min(2000, m1 + m2)))
    params = NchgParams(m1, m2, n, math.exp(log_phi))
    lo, hi = params.support
    ref = _mp_log_pmf(params)
    mode = lo + int(np.argmax(ref))
    ys = {lo, hi, mode, max(lo, mode - 1), min(hi, mode + 1)}
    ys |= set(data.draw(st.lists(st.integers(lo, hi), max_size=5)))
    for y in sorted(ys):
        _assert_log_pmf_close(nchg_logpmf(y, params), ref[y - lo], 1e-10)


@pytest.mark.parametrize(
    "m1,m2,n,phi",
    [
        (50, 50, 10, 1e6),  # mode at the upper support edge
        (50, 50, 10, 1e-6),  # mode at the lower support edge
        (8, 3, 6, 40.0),  # lower edge max(0, n - m2) > 0, mode at the upper edge
        (12, 900, 400, 0.05),  # upper edge m1 < n, mode at the lower edge
        (0, 30, 7, 2.0),  # single point y = 0 (no positives)
        (30, 0, 7, 0.5),  # single point y = n (no negatives)
        (9, 6, 15, 3.0),  # single point y = m1 (everyone sampled)
        (9, 6, 0, 3.0),  # single point y = 0 (nobody sampled)
        (1, 1, 1, 1.0),
        (4000, 3000, 2000, math.exp(690.0)),  # the sampler's largest odds
        (4000, 3000, 2000, math.exp(-690.0)),  # and its smallest
        (5_000_000, 5_000_000, 1000, math.exp(690.0)),
        (5_000_000, 5_000_000, 1000, math.exp(-690.0)),
    ],
)
def test_nchg_logpmf_edges_and_extreme_odds_match_mpmath(m1, m2, n, phi):
    params = NchgParams(m1, m2, n, phi)
    lo, hi = params.support
    ref = _mp_log_pmf(params)
    ys = np.arange(lo, hi + 1)
    got = nchg_logpmf(ys, params)
    assert np.all(np.isfinite(got))
    for y, g in zip(ys, got):
        _assert_log_pmf_close(g, ref[y - lo], 1e-10)
    assert nchg_logpmf(lo - 1, params) == nchg_logpmf(hi + 1, params) == -math.inf
    assert math.fsum(np.exp(got)) == pytest.approx(1.0, abs=1e-12)
    # the draws saturate where the mode sits at an edge
    mode = lo + int(np.argmax(ref))
    if ref[mode - lo] > math.log(1.0 - 1e-12):
        draws = nchg_sample(params, np.random.default_rng(2), size=50)
        assert np.all(draws == mode)


@pytest.mark.parametrize("n", [10, 1000, 100_000])
@pytest.mark.parametrize("phi", [1.0, 0.3, 1.7, 20.0])
@pytest.mark.parametrize("scale", [10, 100])
def test_nchg_logpmf_matches_scipy_up_to_large_samples(n, phi, scale):
    population = scale * n
    m1 = 3 * population // 10
    params = NchgParams(m1, population - m1, n, phi)
    ref_law = stats.nchypergeom_fisher(M=population, n=m1, N=n, odds=phi)
    lo, hi = params.support
    sd = ref_law.std()
    ys = np.unique(np.clip(np.round(ref_law.mean() + sd * np.arange(-8, 9)), lo, hi))
    got = nchg_logpmf(ys.astype(int), params)
    # scipy's own error reaches ~1e-7 at n = 1e5 (checked against mpmath)
    for g, r in zip(got, ref_law.logpmf(ys)):
        _assert_log_pmf_close(g, float(r), 1e-7)


@given(
    m1=st.integers(min_value=0, max_value=10_000_000),
    m2=st.integers(min_value=0, max_value=10_000_000),
    log_phi=st.one_of(
        st.sampled_from([0.0, 690.0, -690.0]), st.floats(min_value=-690.0, max_value=690.0)
    ),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_nchg_closed_form_mode_is_a_mode(m1, m2, log_phi, data):
    # at phi = e^690 the unscaled quadratic's b^2 overflows to inf; floor(x)
    # must still be a mode, up to one step of rounding in x
    n = data.draw(st.integers(min_value=0, max_value=m1 + m2))
    phi = math.exp(log_phi)
    lo, hi = NchgParams(m1, m2, n, phi).support
    x = _approx_mode(m1, m2, n, phi)
    assert math.isfinite(x)
    m = min(max(math.floor(x), lo), hi)

    def ratio(y):  # w(y + 1) / w(y), exact
        return Fraction(phi) * (m1 - y) * (n - y) / ((y + 1) * (m2 - n + y + 1))

    def is_mode(y):
        return (y == lo or ratio(y - 1) >= 1) and (y == hi or ratio(y) <= 1)

    assert any(is_mode(y) for y in (m - 1, m, m + 1) if lo <= y <= hi)


def test_nchg_logpmf_unchecked_matches_checked():
    for m1, m2, n, phi in ((12, 9, 8, 0.6), (3000, 7000, 1000, 1.0), (3000, 7000, 1000, 2.5)):
        params = NchgParams(m1, m2, n, phi)
        lo, hi = params.support
        for y in range(lo - 1, hi + 2):
            assert nchg_logpmf_unchecked(y, m1, m2, n, phi) == nchg_logpmf(y, params)


def test_nchg_sample_within_support():
    rng = np.random.default_rng(17)
    params = NchgParams(8, 3, 6, 2.5)
    lo, hi = params.support
    draws = nchg_sample(params, rng, size=2000)
    assert draws.min() >= lo and draws.max() <= hi


def test_nchg_sample_goodness_of_fit_central():
    # phi=1 must reproduce the central hypergeometric: chi-square GOF at 1%
    rng = np.random.default_rng(20240802)
    params = NchgParams(5, 5, 4, 1.0)
    draws = nchg_sample(params, rng, size=100_000)
    lo, hi = params.support
    counts = np.bincount(draws - lo, minlength=hi - lo + 1)
    probs = np.exp([nchg_logpmf(y, params) for y in range(lo, hi + 1)])
    stat, pval = stats.chisquare(counts, probs * len(draws))
    assert pval > 0.01


def test_nchg_sample_goodness_of_fit_tilted():
    rng = np.random.default_rng(20240803)
    params = NchgParams(6, 8, 7, 3.0)
    draws = nchg_sample(params, rng, size=100_000)
    lo, hi = params.support
    counts = np.bincount(draws - lo, minlength=hi - lo + 1)
    probs = np.exp([nchg_logpmf(y, params) for y in range(lo, hi + 1)])
    stat, pval = stats.chisquare(counts, probs * len(draws))
    assert pval > 0.01


def test_nchg_sample_deterministic():
    params = NchgParams(10, 10, 9, 0.4)
    a = nchg_sample(params, np.random.default_rng(42), size=100)
    b = nchg_sample(params, np.random.default_rng(42), size=100)
    np.testing.assert_array_equal(a, b)
    # scalar calls consume the stream exactly like a vectorized call
    rng = np.random.default_rng(42)
    seq = np.array([nchg_sample(params, rng) for _ in range(100)])
    np.testing.assert_array_equal(a, seq)


def test_nchg_sample_extreme_tilt_saturates():
    rng = np.random.default_rng(1)
    params = NchgParams(50, 50, 10, 1e6)
    draws = nchg_sample(params, rng, size=200)
    assert np.all(draws == 10)
    params_low = NchgParams(50, 50, 10, 1e-6)
    draws_low = nchg_sample(params_low, rng, size=200)
    assert np.all(draws_low == 0)


# ---------------------------------------------------------------------------
# biased success probability


def test_biased_success_prob_values():
    assert biased_success_prob(0.3, 2.0) == pytest.approx(0.6 / 1.3, rel=1e-14)
    assert biased_success_prob(0.25, 1.0) == pytest.approx(0.25, rel=1e-14)


def test_biased_success_prob_domain():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            biased_success_prob(p, 1.0)
    for phi in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            biased_success_prob(0.5, phi)


@given(
    p=st.floats(min_value=1e-6, max_value=1 - 1e-6),
    phi=st.floats(min_value=1e-3, max_value=1e3),
)
def test_biased_success_prob_reflection(p, phi):
    # swapping success/failure inverts the odds ratio
    assert 1.0 - biased_success_prob(p, phi) == pytest.approx(
        biased_success_prob(1.0 - p, 1.0 / phi), abs=1e-12
    )


@given(
    p=st.floats(min_value=1e-4, max_value=1 - 1e-4),
    phi=st.floats(min_value=1e-2, max_value=1e2),
)
def test_biased_success_prob_is_logit_shift(p, phi):
    assert biased_success_prob(p, phi) == pytest.approx(
        inv_logit(logit(p) + math.log(phi)), rel=1e-10
    )


def test_biased_success_prob_matches_nchg_mean():
    # large-population mean of the exact distribution approaches n * q
    params = NchgParams(30_000, 70_000, 100, 2.0)
    lo, hi = params.support
    ys = np.arange(lo, hi + 1)
    pmf = np.exp(nchg_logpmf(ys, params))
    mean_rate = float((ys * pmf).sum()) / params.n
    assert mean_rate == pytest.approx(biased_success_prob(0.3, 2.0), abs=0.01)


def test_binomial_approximation_total_variation():
    # the biased binomial is close to the exact law when n << population
    n = 100
    pop = 100_000
    for p in (0.1, 0.5, 0.9):
        for phi in (0.5, 1.0, 2.0):
            m1 = round(p * pop)
            params = NchgParams(m1, pop - m1, n, phi)
            lo, hi = params.support
            ys = np.arange(lo, hi + 1)
            exact = np.exp(nchg_logpmf(ys, params))
            q = biased_success_prob(p, phi)
            approx = stats.binom(n, q).pmf(ys)
            tv = 0.5 * (
                np.abs(exact - approx).sum()
                + (1.0 - exact.sum())
                + (1.0 - approx.sum())
            )
            assert tv < 0.01
