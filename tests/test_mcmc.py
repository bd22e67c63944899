import dataclasses
import hashlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from surveysynth import datagen, mcmc
from surveysynth.core import (
    BiasModelSpec,
    ChainDraws,
    ModelSpec,
    PriorSpec,
    SurveyPanel,
    validate_state,
)
from surveysynth.dists import inv_logit
from surveysynth.mcmc import (
    InitializationError,
    SamplerSettings,
    diagnose,
    ess,
    r_hat,
    run_chain,
    run_chains,
    summarize,
)


def panel_of(y, n, population=10_000):
    y = np.asarray(y, dtype=float)
    labels = tuple(f"s{i}" for i in range(y.shape[0]))
    return SurveyPanel(y=y, n=np.asarray(n, dtype=float), population=population, labels=labels)


def anchor_spec(**kw):
    return ModelSpec(bias=(BiasModelSpec.anchor(),), **kw)


QUICK = SamplerSettings(n_chains=2, burn_in=400, n_draws=600, thin=3, seed=11)


# ---------------------------------------------------------------------------
# settings


def test_settings_defaults_are_paper_scale():
    s = SamplerSettings()
    assert (s.n_chains, s.burn_in, s.n_draws, s.thin) == (10, 20_000, 50_000, 5)
    assert s.target_accept == 0.44
    assert s.adapt_window == 50


def test_settings_desk_preset():
    s = SamplerSettings.desk(seed=3)
    assert (s.n_chains, s.burn_in, s.n_draws, s.thin) == (4, 5_000, 10_000, 5)
    assert s.seed == 3


def test_settings_validation():
    with pytest.raises(ValueError):
        SamplerSettings(n_chains=0)
    with pytest.raises(ValueError):
        SamplerSettings(n_draws=4, thin=5)
    with pytest.raises(ValueError):
        SamplerSettings(thin=0)
    with pytest.raises(ValueError):
        SamplerSettings(target_accept=1.2)
    assert SamplerSettings(burn_in=0).burn_in == 0


def test_settings_n_kept():
    assert SamplerSettings(n_draws=10, thin=3).n_kept == 3
    assert SamplerSettings(n_draws=12, thin=3).n_kept == 4


# ---------------------------------------------------------------------------
# convergence statistics


def test_r_hat_identical_chains_is_one():
    chains = np.tile(np.array([2.0, 2.0, 2.0, 2.0]), (3, 1))
    assert r_hat(chains) == 1.0


def test_r_hat_separated_chains_blows_up():
    chains = np.vstack([np.zeros(100), np.full(100, 10.0)])
    assert r_hat(chains) > 1.1  # infinite: zero within-variance, huge between


def test_r_hat_iid_chains_near_one():
    rng = np.random.default_rng(0)
    chains = rng.normal(size=(4, 10_000))
    assert abs(r_hat(chains) - 1.0) < 0.02


def test_r_hat_trending_chain_detected():
    rng = np.random.default_rng(1)
    drift = np.linspace(0.0, 5.0, 2000)
    chains = rng.normal(size=(2, 2000)) + drift
    assert r_hat(chains) > 1.1


def test_ess_iid_is_near_total():
    rng = np.random.default_rng(2)
    chains = rng.normal(size=(4, 5000))
    total = 4 * 5000
    assert ess(chains) > 0.7 * total
    assert ess(chains) <= total


def test_ess_autocorrelated_is_small():
    rng = np.random.default_rng(3)
    n = 5000
    out = np.empty((2, n))
    for c in range(2):
        x = 0.0
        eps = rng.normal(size=n)
        for i in range(n):
            x = 0.99 * x + eps[i]
            out[c, i] = x
    assert ess(out) < 0.2 * 2 * n


def test_ess_degenerate_series():
    chains = np.ones((2, 100))
    assert ess(chains) == 200


def _reference_r_hat_ess(chains) -> tuple[float, float]:
    """Split R-hat and ESS of one series, scored one lag pair at a time."""
    x = np.asarray(chains, dtype=float)
    half = x.shape[1] // 2
    halves = np.concatenate([x[:, :half], x[:, half : 2 * half]], axis=0)
    m, n = halves.shape
    means = halves.mean(axis=1)
    within = float(halves.var(axis=1, ddof=1).mean())
    between = float(means.var(ddof=1))
    var_plus = (n - 1) / n * within + between
    if within == 0.0:
        rh = 1.0 if between == 0.0 else math.inf
    else:
        rh = float(math.sqrt(var_plus / within))
    total = float(m * n)
    if var_plus <= 0.0 or not math.isfinite(var_plus):
        return rh, total
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(halves - means[:, None], nfft, axis=1)
    acov = np.fft.irfft(f.real**2 + f.imag**2, nfft, axis=1)[:, :n] / n
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    running, prev = 0.0, math.inf
    for pair in range(n // 2):
        p = float(rho[2 * pair] + rho[2 * pair + 1])
        if p <= 0.0:
            break
        if p > prev:
            p = prev
        prev = p
        running += p
    tau = max(2.0 * running - 1.0, 1e-12)
    return rh, float(min(max(total / tau, 1.0), total))


def _series_of(kind, chains, draws, rng):
    if kind == "ar1":  # autocorrelated, chains offset from one another
        phi = rng.uniform(-0.5, 0.99)
        x = np.empty((chains, draws))
        x[:, 0] = rng.normal(size=chains)
        eps = rng.normal(size=(chains, draws))
        for i in range(1, draws):
            x[:, i] = phi * x[:, i - 1] + eps[:, i]
        return x + rng.normal(scale=0.3, size=(chains, 1))
    if kind == "constant":  # every half identical: R-hat 1, var_plus 0
        return np.full((chains, draws), 0.5 * rng.integers(-4, 5))  # sums exactly
    if kind == "split-constant":  # constant halves that disagree: R-hat inf
        x = np.empty((chains, draws))
        x[:, : draws // 2] = 1.5
        x[:, draws // 2 :] = -0.25
        return x
    return np.round(rng.normal(size=(chains, draws)), 1)  # many ties


@given(
    chains=st.integers(min_value=1, max_value=12),
    draws=st.integers(min_value=2, max_value=70),
    kinds=st.lists(
        st.sampled_from(["ar1", "constant", "split-constant", "ties"]), min_size=1, max_size=7
    ),
    chunk_floats=st.sampled_from([1, 300, 2000, 1 << 15]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_split_stats_rows_match_one_series_bit_for_bit(chains, draws, kinds, chunk_floats, seed):
    rng = np.random.default_rng(seed)
    stack = np.stack([_series_of(kind, chains, draws, rng) for kind in kinds])
    # a small chunk bound puts each series at a different chunk position
    with mock.patch.object(mcmc, "_STACK_FLOATS", chunk_floats), np.errstate(all="ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # one draw per half
            rh, es = mcmc.split_stats(stack)
            rows = [(r_hat(s), ess(s), _reference_r_hat_ess(s)) for s in stack]
            listed = mcmc.split_stats(list(stack))
    for i, (kind, (rh1, es1, ref)) in enumerate(zip(kinds, rows)):
        got = (float(rh[i]), float(es[i]))
        assert repr(got) == repr((rh1, es1)) == repr(ref), (kind, i)
        assert repr((float(listed[0][i]), float(listed[1][i]))) == repr(ref)
        if draws >= 4:  # two draws per half give a within-half variance
            if kind == "constant":
                assert got == (1.0, float(2 * chains * (draws // 2)))
            if kind == "split-constant":
                assert got[0] == math.inf


# ---------------------------------------------------------------------------
# summarize


def make_draws(theta_draws, alpha_settings=None):
    # single chain, known-bias single survey
    theta = np.asarray(theta_draws, dtype=float)[None, :, :]
    m = theta.shape[1]
    return ChainDraws(
        theta=theta,
        sigma_sq=np.full((1, m), 0.5),
        gamma=(np.zeros((1, m, 0)),),
        pi_sq=None,
        spec=anchor_spec(),
        settings=QUICK,
        acceptance_rates={},
        scales_end_of_burnin={},
        scales_final={},
    )


def test_summarize_quantiles_match_sorted_oracle():
    vals = np.linspace(-3.0, 3.0, 1001)
    rng = np.random.default_rng(4)
    shuffled = rng.permutation(vals)
    draws = make_draws(np.column_stack([shuffled, shuffled]))
    table = summarize(draws, alpha=0.05, transform="natural")
    srt = np.sort(vals)
    row = table.row("theta", t=1)
    assert row.median == pytest.approx(srt[500], abs=1e-12)
    assert row.lower == pytest.approx(srt[25], abs=1e-12)
    assert row.upper == pytest.approx(srt[975], abs=1e-12)


def test_summarize_rate_transform_bounds():
    rng = np.random.default_rng(5)
    theta = rng.normal(size=(200, 3))
    table = summarize(make_draws(theta), alpha=0.1)
    for t in range(1, 3):
        row = table.row("rate", t=t)
        assert 0.0 < row.lower <= row.median <= row.upper < 1.0
        assert row.median == pytest.approx(
            np.quantile(inv_logit(theta[:, t]), 0.5), abs=1e-12
        )


def test_summarize_point_mass():
    theta = np.zeros((50, 2))
    table = summarize(make_draws(theta))
    row = table.row("rate", t=1)
    assert row.lower == row.median == row.upper == 0.5


# ---------------------------------------------------------------------------
# sampler behavior


def test_run_chains_deterministic():
    panel = panel_of([[9.0, 18.0, 4.0]], [[100.0] * 3])
    a = run_chains(panel, anchor_spec(), QUICK)
    b = run_chains(panel, anchor_spec(), QUICK)
    np.testing.assert_array_equal(a.theta, b.theta)
    np.testing.assert_array_equal(a.sigma_sq, b.sigma_sq)
    assert a.scales_final == b.scales_final
    c = run_chains(panel, anchor_spec(), SamplerSettings(
        n_chains=2, burn_in=400, n_draws=600, thin=3, seed=12))
    assert not np.array_equal(a.theta, c.theta)


def test_run_chains_shapes_and_validity():
    panel = panel_of(
        [[9.0, np.nan, 4.0], [66.0, 48.0, np.nan]], [[100.0, np.nan, 100.0], [1000.0, 1000.0, np.nan]]
    )
    spec = ModelSpec(bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="walk")))
    draws = run_chains(panel, spec, QUICK)
    kept = QUICK.n_kept
    assert draws.theta.shape == (2, kept, 4)
    assert draws.sigma_sq.shape == (2, kept)
    assert draws.gamma[0].shape == (2, kept, 0)
    assert draws.gamma[1].shape == (2, kept, 4)
    assert draws.pi_sq.shape == (2, kept)
    for c in (0, 1):
        for i in (0, kept // 2, kept - 1):
            assert validate_state(draws.state(c, i), spec) == []


def test_run_chain_single_chain():
    panel = panel_of([[9.0, 18.0]], [[100.0, 100.0]])
    draws = run_chain(panel, anchor_spec(), QUICK, chain_seed=123)
    assert draws.theta.shape[0] == 1
    assert draws.n_kept == QUICK.n_kept


def test_adaptation_freezes_at_burn_in():
    panel = panel_of([[9.0, 18.0, 4.0]], [[100.0] * 3])
    draws = run_chains(panel, anchor_spec(), QUICK)
    assert draws.scales_end_of_burnin == draws.scales_final
    assert len(draws.scales_final) > 0


def test_monotone_draws_respect_ordering():
    panel = panel_of([[10.0, 20.0, 30.0, 40.0]], [[100.0] * 4])
    spec = anchor_spec(monotone_walk=True, priors=PriorSpec(theta0_mean=-2.0, theta0_var=1.0))
    draws = run_chains(panel, spec, QUICK)
    diffs = np.diff(draws.theta, axis=2)
    assert (diffs >= 0.0).all()


def test_acceptance_rates_are_reported_per_block():
    panel = panel_of([[9.0, 18.0]], [[100.0, 100.0]])
    draws = run_chains(panel, anchor_spec(), QUICK)
    assert set(draws.acceptance_rates) == {"theta[0]", "theta[1]", "theta[2]", "sigma_sq"}
    for rate in draws.acceptance_rates.values():
        assert 0.0 <= rate <= 1.0


def test_sampler_validates_panel():
    bad = panel_of([[5.0]], [[3.0]])
    with pytest.raises(ValueError):
        run_chains(bad, anchor_spec(), QUICK)
    mismatched = panel_of([[5.0], [4.0]], [[30.0], [30.0]])
    with pytest.raises(ValueError):
        run_chains(mismatched, anchor_spec(), QUICK)


def test_initialization_error_names_block():
    # exact-sampling mode with an anchor reporting near-zero rates while the
    # biased survey reports 90%: the implied positive pool cannot cover y
    panel = panel_of([[0.0], [90.0]], [[400.0], [100.0]], population=500)
    spec = ModelSpec(
        bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="constant")),
        use_exact_nchg=True,
    )
    with pytest.raises(InitializationError) as err:
        run_chains(panel, spec, QUICK)
    assert "lik[1]" in str(err.value)


def test_prior_only_run_recovers_sigma_sq_marginal():
    # with no observations the sampler must reproduce the half-normal prior
    panel = panel_of([[np.nan] * 3], [[np.nan] * 3])
    settings = SamplerSettings(n_chains=4, burn_in=2000, n_draws=80_000, thin=4, seed=7)
    draws = run_chains(panel, anchor_spec(), settings)
    pooled = draws.sigma_sq.ravel()
    for q in (0.05, 0.5, 0.95):
        expect = special.ndtri((1 + q) / 2)  # half-normal quantile, scale 1
        assert np.quantile(pooled, q) == pytest.approx(expect, abs=0.02)


def test_prior_only_run_recovers_rate_at_origin():
    panel = panel_of([[np.nan] * 3], [[np.nan] * 3])
    settings = SamplerSettings(n_chains=4, burn_in=2000, n_draws=20_000, thin=2, seed=8)
    draws = run_chains(panel, anchor_spec(), settings)
    pooled = inv_logit(draws.theta[:, :, 0].ravel())
    ref = inv_logit(np.sqrt(2.0) * special.ndtri([0.05, 0.5, 0.95]))
    for q, expect in zip((0.05, 0.5, 0.95), ref):
        assert np.quantile(pooled, q) == pytest.approx(expect, abs=0.02)


def quadrature_rate_posterior(y, n, prior_mean, prior_var, qs):
    """Grid posterior of inv_logit(theta) for one binomial observation."""

    def log_post(th):
        return (
            -0.5 * (th - prior_mean) ** 2 / prior_var
            + y * th
            - n * np.logaddexp(0.0, th)
        )

    grid = np.linspace(-12.0, 12.0, 20_001)
    lp = log_post(grid)
    w = np.exp(lp - lp.max())
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    return [float(inv_logit(np.interp(q, cdf, grid))) for q in qs]


def test_single_point_posterior_matches_quadrature():
    panel = panel_of([[50.0]], [[100.0]])
    settings = SamplerSettings(n_chains=4, burn_in=3000, n_draws=9000, thin=3, seed=21)
    draws = run_chains(panel, anchor_spec(), settings)
    table = summarize(draws, alpha=0.05)
    row = table.row("rate", t=1)
    expect = quadrature_rate_posterior(50, 100, 0.0, 2.0, [0.025, 0.5, 0.975])
    assert row.lower == pytest.approx(expect[0], abs=0.005)
    assert row.median == pytest.approx(expect[1], abs=0.005)
    assert row.upper == pytest.approx(expect[2], abs=0.005)


def _simulate_walk_prior(n, monotone, seed):
    """Draw (theta[1..3], gamma[1..3]) straight from the default priors."""
    rng = np.random.default_rng(seed)
    theta0 = rng.normal(0.0, math.sqrt(2.0), n)
    step_sd = np.sqrt(np.abs(rng.standard_normal(n)))
    steps = rng.standard_normal((n, 3)) * step_sd[:, None]
    if monotone:
        steps = np.abs(steps)
    theta = theta0[:, None] + np.cumsum(steps, axis=1)
    gamma0 = rng.normal(0.0, 1.0, n)
    gstep_sd = np.sqrt(np.abs(rng.standard_normal(n)))
    gsteps = rng.standard_normal((n, 3)) * gstep_sd[:, None]
    gamma = gamma0[:, None] + np.cumsum(gsteps, axis=1)
    return theta, gamma


@pytest.mark.parametrize("monotone", [False, True])
def test_prior_only_walk_panel_matches_direct_simulation(monotone):
    # an idle walk survey switches on the joint ridge blocks; with no data
    # the sampler must still reproduce the prior over levels and bias walks
    panel = panel_of([[np.nan] * 3, [np.nan] * 3], [[np.nan] * 3, [np.nan] * 3])
    spec = ModelSpec(
        bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="walk")),
        monotone_walk=monotone,
    )
    settings = SamplerSettings(n_chains=4, burn_in=2000, n_draws=40_000, thin=4, seed=14)
    draws = run_chains(panel, spec, settings)
    ref_theta, ref_gamma = _simulate_walk_prior(400_000, monotone, seed=99)
    for t in (1, 3):
        got = inv_logit(draws.theta[:, :, t].ravel())
        want = inv_logit(ref_theta[:, t - 1])
        for q in (0.05, 0.5, 0.95):
            assert np.quantile(got, q) == pytest.approx(np.quantile(want, q), abs=0.02)
        got = inv_logit(draws.gamma[1][:, :, t].ravel())
        want = inv_logit(ref_gamma[:, t - 1])
        for q in (0.05, 0.5, 0.95):
            assert np.quantile(got, q) == pytest.approx(np.quantile(want, q), abs=0.02)
    corr = np.corrcoef(draws.theta[:, :, 3].ravel(), draws.gamma[1][:, :, 3].ravel())[0, 1]
    assert abs(corr) < 0.1  # level and bias walk are independent a priori


def test_single_point_with_idle_walk_survey_matches_quadrature():
    # joint ridge moves must leave the anchor-driven posterior untouched
    panel = panel_of([[50.0], [np.nan]], [[100.0], [np.nan]])
    spec = ModelSpec(bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="walk")))
    settings = SamplerSettings(n_chains=4, burn_in=3000, n_draws=9000, thin=3, seed=21)
    draws = run_chains(panel, spec, settings)
    table = summarize(draws, alpha=0.05)
    row = table.row("rate", t=1)
    expect = quadrature_rate_posterior(50, 100, 0.0, 2.0, [0.025, 0.5, 0.975])
    assert row.lower == pytest.approx(expect[0], abs=0.005)
    assert row.median == pytest.approx(expect[1], abs=0.005)
    assert row.upper == pytest.approx(expect[2], abs=0.005)


def test_diagnose_flags_convergence():
    panel = panel_of([[9.0, 18.0]], [[100.0, 100.0]])
    settings = SamplerSettings(n_chains=4, burn_in=1500, n_draws=4000, thin=2, seed=9)
    draws = run_chains(panel, settings=settings, spec=anchor_spec())
    diag = diagnose(draws)
    assert set(diag.r_hat) == set(diag.ess)
    assert "theta[1]" in diag.r_hat
    assert diag.converged == all(v <= 1.1 for v in diag.r_hat.values())
    assert diag.converged  # easy posterior must converge at these settings


def test_summarize_attaches_diagnostics_and_phi():
    panel = panel_of(
        [[9.0, 18.0, 4.0], [66.0, 48.0, 7.0]], [[100.0] * 3, [1000.0] * 3]
    )
    spec = ModelSpec(bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="constant")))
    draws = run_chains(panel, spec, QUICK)
    table = summarize(draws)
    assert table.converged is not None
    phi_rows = table.rows_named("phi", survey=1)
    assert [r.t for r in phi_rows] == [1, 2, 3]
    assert all(r.lower > 0 for r in phi_rows)
    sig = table.row("sigma_sq")
    assert sig.r_hat is not None and sig.ess is not None
    assert table.row("rate", t=1).r_hat is not None


# ---------------------------------------------------------------------------
# the cached cell table: bit-identical draws, one kernel call per cell


def _draws_digest(draws) -> str:
    h = hashlib.sha256()
    for a in (draws.theta, draws.sigma_sq, *draws.gamma, draws.pi_sq):
        if a is not None:
            h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


_SHORT = SamplerSettings(n_chains=2, burn_in=200, n_draws=300, thin=2, seed=5)
_EXACT_DEMO = SamplerSettings(n_chains=1, burn_in=40, n_draws=80, thin=1, adapt_window=10)


def _demo_spec(*kinds, exact=False):
    bias = (BiasModelSpec.anchor(),) + tuple(
        k if isinstance(k, BiasModelSpec) else BiasModelSpec(kind=k) for k in kinds
    )
    return ModelSpec(bias=bias, use_exact_nchg=exact)


def _pinned_cases():
    demo = datagen.demo_panel()
    known = BiasModelSpec(kind="known", fixed_phi=tuple(1.2 + 0.05 * t for t in range(10)))
    vaccine = datagen.vaccine_shaped_bundle()
    return {
        "constant": (demo, _demo_spec("constant", "constant"), _SHORT),
        "linear": (demo, _demo_spec("linear", "linear"), _SHORT),
        "linear-uncentered": (
            demo,
            dataclasses.replace(_demo_spec("linear", "linear"), center_time=False),
            _SHORT,
        ),
        "walk": (demo, _demo_spec("walk", "walk"), _SHORT),
        "known": (demo, _demo_spec(known, "linear"), _SHORT),
        "exact-linear": (
            demo,
            _demo_spec("linear", "linear", exact=True),
            dataclasses.replace(_EXACT_DEMO, seed=3),
        ),
        "exact-walk": (
            demo,
            _demo_spec("walk", "walk", exact=True),
            dataclasses.replace(_EXACT_DEMO, seed=4),
        ),
        "vaccine": (
            vaccine.panel,
            vaccine.design.model_spec(),
            SamplerSettings(n_chains=2, burn_in=100, n_draws=100, thin=1, seed=2),
        ),
    }


# Digests of the draws as the sampler made them when it evaluated every cell
# at both the current and the proposed state (numpy 2.4). Reading the current
# value from the cell table must not change one bit. Linear with an uncentred
# time covariate and exact + walk (whose ridge moves count the walk cells, see
# the quadrature test below) were pinned later, before the bias models were
# compiled into shared designs; the compiled form must not change one bit
# either.
_PINNED_DRAW_DIGESTS = {
    "constant": "241446f333737392",
    "linear": "980aeafa1da445e8",
    "linear-uncentered": "7de2a1283e4d3d2c",
    "walk": "7ba8b5325efcf25d",
    "known": "ff78f77a524b40a3",
    "exact-linear": "6d6b53404c8aeb94",
    "exact-walk": "3886f9e0c32ecb5d",
    "vaccine": "f063ae7df942d4fd",
}


def test_draws_match_pinned_digests():
    for name, (panel, spec, settings) in _pinned_cases().items():
        draws = run_chains(panel, spec, settings, workers=1)
        assert _draws_digest(draws) == _PINNED_DRAW_DIGESTS[name], name


def _bookkeeping_digest(draws) -> str:
    h = hashlib.sha256()
    for d in (draws.acceptance_rates, draws.scales_end_of_burnin, draws.scales_final):
        h.update(repr(list(d.items())).encode())
    return h.hexdigest()[:16]


# Digests of the per-block acceptance rates and the proposal scales at the
# freeze point and at the end, recorded while the sampler still adapted and
# counted each block's decisions one call at a time. Closing every adaptation
# window at the end of a sweep must not change one bit of them.
_PINNED_BOOKKEEPING_DIGESTS = {
    "constant": "74b5bcbb3861a8d2",
    "linear": "093e0a72cfc1b1f2",
    "linear-uncentered": "d8b23413a90a6150",
    "walk": "483f51a21ad59f6e",
    "known": "9c2e2a59d5b7267d",
    "exact-linear": "6855056ff9db96a0",
    "exact-walk": "900e1cf4cb0fed95",
    "vaccine": "6eb6cd91bf297b8c",
}


def test_bookkeeping_matches_pinned_digests():
    for name, (panel, spec, settings) in _pinned_cases().items():
        draws = run_chains(panel, spec, settings, workers=1)
        assert _bookkeeping_digest(draws) == _PINNED_BOOKKEEPING_DIGESTS[name], name


def _summary_digest(table) -> str:
    h = hashlib.sha256()
    for r in table.rows:
        fields = (r.name, r.survey, r.t, r.median, r.lower, r.upper, r.r_hat, r.ess)
        h.update(repr(fields).encode())
    return h.hexdigest()[:16]


# Digests of the summarize rows (rates, bias odds, variances, with their
# R-hat and ESS) before the bias models were compiled into shared designs.
_PINNED_SUMMARY_DIGESTS = {
    "constant": "8b4c8c83bf71f494",
    "linear": "24097159874366ec",
    "linear-uncentered": "b2a6104a0fdd7353",
    "walk": "5392db09d4aff0ff",
    "known": "02f3dd33612e01c7",
    "exact-walk": "d1d39addfaaccca4",
}


def test_summary_rows_match_pinned_digests():
    cases = _pinned_cases()
    for name, want in _PINNED_SUMMARY_DIGESTS.items():
        panel, spec, settings = cases[name]
        table = summarize(run_chains(panel, spec, settings, workers=1))
        assert _summary_digest(table) == want, name


def test_exact_demo_chain_calls_kernel_once_per_touched_cell(monkeypatch):
    # demo panel, anchor + 2 linear: 30 cells filled once, then per sweep
    # 30 theta-block calls and 10 + 10 per linear survey
    calls = [0]
    kernel = mcmc.nchg_logpmf_unchecked

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    monkeypatch.setattr(mcmc, "nchg_logpmf_unchecked", counted)
    run_chains(datagen.demo_panel(), _demo_spec("linear", "linear", exact=True), _EXACT_DEMO)
    assert calls[0] == 30 + 70 * 120


def _exact_loglik(y, n, m1, m2, log_phi):
    """Fisher NCHG log-pmf from its definition, over the whole support."""
    j = np.arange(max(0, n - m2), min(n, m1) + 1)
    lw = (
        special.gammaln(m1 + 1) - special.gammaln(j + 1) - special.gammaln(m1 - j + 1)
        + special.gammaln(m2 + 1) - special.gammaln(n - j + 1) - special.gammaln(m2 - n + j + 1)
    )
    if not j[0] <= y <= j[-1]:
        return np.full(np.shape(log_phi), -np.inf)
    lp = np.asarray(log_phi)[..., None] * j
    return lw[y - j[0]] + lp[..., y - j[0]] - special.logsumexp(lw + lp, axis=-1)


def _walk_marginal_prior(x, var0):
    """Density of x1 = x0 + e: x0 ~ N(0, var0), e ~ N(0, s), s ~ N+(0, 1)."""
    nodes, weights = np.polynomial.legendre.leggauss(200)
    s = 5.0 * (nodes + 1.0)
    w = 5.0 * weights * 2.0 * stats.norm.pdf(s)
    return stats.norm.pdf(x[:, None], scale=np.sqrt(var0 + s)) @ w


def test_exact_walk_ridge_posterior_matches_quadrature():
    # a small population makes the exact cell depend on theta and gamma
    # separately, so a ridge move changes the walk cell's likelihood
    N, (ya, na), (yw, nw) = 40, (8, 15), (16, 25)
    panel = panel_of([[ya], [yw]], [[na], [nw]], population=N)
    spec = ModelSpec(
        bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="walk")), use_exact_nchg=True
    )
    settings = SamplerSettings(n_chains=4, burn_in=1000, n_draws=8000, thin=2, seed=1)
    draws = run_chains(panel, spec, settings)

    # (theta[1], gamma[1]) on a grid: the two walks are a priori independent
    th = np.linspace(-8.0, 8.0, 801)
    g = np.linspace(-8.0, 8.0, 801)
    m1 = np.floor(inv_logit(th) * N + 0.5).astype(int)
    lp = np.log(_walk_marginal_prior(th, 2.0))[:, None] + np.log(_walk_marginal_prior(g, 1.0))
    for i, m in enumerate(m1):
        lp[i] += _exact_loglik(ya, na, m, N - m, 0.0) + _exact_loglik(yw, nw, m, N - m, g)
    w = np.exp(lp - lp.max())
    for x, grid, marg in (
        (draws.theta[:, :, 1], th, w.sum(axis=1)),
        (draws.gamma[1][:, :, 1], g, w.sum(axis=0)),
    ):
        want = float(grid @ marg / marg.sum())
        se = float(x.std()) / math.sqrt(ess(x))
        assert abs(float(x.mean()) - want) < 4.0 * se, (float(x.mean()), want, se)
