import contextlib
import ctypes
import dataclasses
import hashlib
import math
import operator
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

import surveysynth
from surveysynth import _chainlib, datagen, dists, mcmc
from surveysynth.core import (
    BiasModelSpec,
    ChainDraws,
    LatentState,
    ModelSpec,
    PriorSpec,
    SurveyPanel,
    validate_state,
)
from surveysynth.dists import MAX_LOG_ODDS, inv_logit
from surveysynth.likelihood import log_posterior
from surveysynth.mcmc import (
    InitializationError,
    SamplerSettings,
    diagnose,
    ess,
    r_hat,
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
    # keyword arguments override the preset's fields as well as the others
    overrides = {"n_chains": 2, "burn_in": 7, "n_draws": 40, "thin": 2, "target_accept": 0.3,
                 "adapt_window": 9}
    assert SamplerSettings.desk(seed=1, **overrides) == SamplerSettings(seed=1, **overrides)


def test_settings_validation():
    with pytest.raises(ValueError):
        SamplerSettings(n_chains=0)
    with pytest.raises(ValueError):
        SamplerSettings(n_draws=4, thin=5)
    with pytest.raises(ValueError, match="keeps 3 draws"):  # R-hat needs 2 per half-chain
        SamplerSettings(n_draws=11, thin=3)
    with pytest.raises(ValueError):
        SamplerSettings(thin=0)
    with pytest.raises(ValueError):
        SamplerSettings(target_accept=1.2)
    assert SamplerSettings(burn_in=0).burn_in == 0
    # counts and seeds must be integers, and seeds non-negative
    for field, value in [("burn_in", 10.5), ("n_draws", 600.0), ("thin", True),
                         ("n_chains", "2"), ("seed", 1.5), ("seed", -1), ("adapt_window", 2.5)]:
        with pytest.raises(ValueError, match=field):
            SamplerSettings(**{field: value})
    assert SamplerSettings(n_chains=np.int64(2), seed=np.uint64(2**63)).seed == 2**63


def test_settings_n_kept():
    assert SamplerSettings(n_draws=14, thin=3).n_kept == 4
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
            # the ESS of a few series only: the FFT runs over those alone
            picked = rng.permutation(len(kinds))[: rng.integers(0, len(kinds) + 1)]
            some = mcmc.split_stats(stack, picked.tolist())
    for i, (kind, (rh1, es1, ref)) in enumerate(zip(kinds, rows)):
        got = (float(rh[i]), float(es[i]))
        assert repr(got) == repr((rh1, es1)) == repr(ref), (kind, i)
        assert repr((float(listed[0][i]), float(listed[1][i]))) == repr(ref)
        assert repr(float(some[0][i])) == repr(ref[0])
        assert repr(float(some[1][i])) == (repr(ref[1]) if i in picked else "nan")
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
    draws = run_chains(panel, anchor_spec(), dataclasses.replace(QUICK, n_chains=1))
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


@pytest.mark.parametrize("phi", [1e300, math.exp(700.0)], ids=["log-phi-690.8", "log-phi-700"])
def test_impossible_start_cell_fails_before_sampling(monkeypatch, phi):
    # log phi = 690.8 and 700 lie beyond dists.MAX_LOG_ODDS, where the exact
    # cell is impossible; the chain used to run with theta[1] and theta[2]
    # never moving (acceptance 0.0)
    calls = [0]
    kernel = mcmc.nchg_logpmf_unchecked

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    monkeypatch.setattr(mcmc, "nchg_logpmf_unchecked", counted)
    # two demo columns: anchor + a known survey with odds phi
    panel = panel_of([[9.0, 18.0], [66.0, 48.0]], [[100.0, 100.0], [1000.0, 1000.0]])
    spec = ModelSpec(
        bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="known", fixed_phi=(phi, phi))),
        use_exact_nchg=True,
    )
    with pytest.raises(InitializationError) as err:
        run_chains(panel, spec, _EXACT_DEMO)
    assert err.value.block == "lik[1]"
    assert calls[0] <= 4  # at most the start's own cells: no sweep ran


def test_start_cells_use_the_sweeps_softplus():
    # the sweep's ratios subtract the start's cell table, so each cell must
    # be the float the sweep computes there, softplus as x + log1p(exp(-x))
    # for x > 0, else log1p(exp(x))
    vaccine = datagen.vaccine_shaped_bundle()
    panel, spec = vaccine.panel, vaccine.design.model_spec()
    designs, _ = mcmc._validate_inputs(panel, spec)
    for seed in range(4):
        theta, _, _, _, lphi, ll = mcmc._start(panel, spec, designs,
                                               np.random.default_rng(seed), None)
        for k, t, y, n in panel.observed_cells():
            x = theta[t] + lphi[k][t]
            softplus = x + math.log1p(math.exp(-x)) if x > 0.0 else math.log1p(math.exp(x))
            assert ll[k][t] == float(y) * x - float(n) * softplus, (seed, k, t)


def test_runtime_modules_do_not_load_the_oracle():
    # the cli imports every runtime module; none of them needs likelihood
    code = "import sys, surveysynth.cli; print('surveysynth.likelihood' in sys.modules)"
    src = str(Path(surveysynth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def _prior_only_sigma_sq_marginal():
    # with no observations the sampler must reproduce the half-normal prior
    panel = panel_of([[np.nan] * 3], [[np.nan] * 3])
    settings = SamplerSettings(n_chains=4, burn_in=2000, n_draws=80_000, thin=4, seed=7)
    draws = run_chains(panel, anchor_spec(), settings, workers=1)
    pooled = draws.sigma_sq.ravel()
    for q in (0.05, 0.5, 0.95):
        expect = special.ndtri((1 + q) / 2)  # half-normal quantile, scale 1
        assert np.quantile(pooled, q) == pytest.approx(expect, abs=0.02)


def _prior_only_rate_at_origin():
    panel = panel_of([[np.nan] * 3], [[np.nan] * 3])
    settings = SamplerSettings(n_chains=4, burn_in=2000, n_draws=20_000, thin=2, seed=8)
    draws = run_chains(panel, anchor_spec(), settings, workers=1)
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


def _single_point_quadrature():
    panel = panel_of([[50.0]], [[100.0]])
    settings = SamplerSettings(n_chains=4, burn_in=3000, n_draws=9000, thin=3, seed=21)
    draws = run_chains(panel, anchor_spec(), settings, workers=1)
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


def _prior_only_walk_panel(monotone):
    # an idle walk survey switches on the joint ridge blocks; with no data
    # the sampler must still reproduce the prior over levels and bias walks
    panel = panel_of([[np.nan] * 3, [np.nan] * 3], [[np.nan] * 3, [np.nan] * 3])
    spec = ModelSpec(
        bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="walk")),
        monotone_walk=monotone,
    )
    settings = SamplerSettings(n_chains=4, burn_in=2000, n_draws=40_000, thin=4, seed=14)
    draws = run_chains(panel, spec, settings, workers=1)
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


def _idle_walk_survey_quadrature():
    # joint ridge moves must leave the anchor-driven posterior untouched
    panel = panel_of([[50.0], [np.nan]], [[100.0], [np.nan]])
    spec = ModelSpec(bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="walk")))
    settings = SamplerSettings(n_chains=4, burn_in=3000, n_draws=9000, thin=3, seed=21)
    draws = run_chains(panel, spec, settings, workers=1)
    table = summarize(draws, alpha=0.05)
    row = table.row("rate", t=1)
    expect = quadrature_rate_posterior(50, 100, 0.0, 2.0, [0.025, 0.5, 0.975])
    assert row.lower == pytest.approx(expect[0], abs=0.005)
    assert row.median == pytest.approx(expect[1], abs=0.005)
    assert row.upper == pytest.approx(expect[2], abs=0.005)


# Approximate fits take one of two routes: the compiled sweep when its
# library can be had, else the Python sweep (``_run_python``). Tests that pin
# draws run under both.
ROUTES = ("compiled", "no-compiler")


@contextlib.contextmanager
def route(name, tmp_path):
    """Fits under ``name``: "compiled" as the machine allows, "no-compiler"
    with no compiler in sysconfig or on the PATH and an empty library cache."""
    _chainlib.library.cache_clear()
    try:
        if name == "compiled":
            yield name
        else:
            with mock.patch.dict(sysconfig.get_config_vars(), {"CC": "no-such-compiler"}), \
                    mock.patch.dict(os.environ, {"PATH": str(tmp_path),
                                                 "XDG_CACHE_HOME": str(tmp_path / "cache")}):
                assert _chainlib.library() is None
                yield name
    finally:
        _chainlib.library.cache_clear()


def compiled_sweep():
    """The loaded compiled sweep, or None when its library cannot be had."""
    path = _chainlib.library()
    return None if path is None else _chainlib.load(path)


def sample_group(panel, spec, settings, seeds, designs, columns):
    """One group of chains as ``_group_job`` runs it on the route in force:
    one ``_sample`` call, through the compiled sweep when it can be had."""
    return mcmc._sample(panel, spec, settings, seeds, designs, columns, compiled_sweep())


# Each gate fits with every chain in one group. The tests below run it on
# the compiled route, test_statistical_gates_hold_through_the_batch with no
# compiler; so each gate's fit is made once per route.
def test_prior_only_run_recovers_sigma_sq_marginal(tmp_path):
    with route("compiled", tmp_path):
        _prior_only_sigma_sq_marginal()


def test_prior_only_run_recovers_rate_at_origin(tmp_path):
    with route("compiled", tmp_path):
        _prior_only_rate_at_origin()


def test_single_point_posterior_matches_quadrature(tmp_path):
    with route("compiled", tmp_path):
        _single_point_quadrature()


@pytest.mark.parametrize("monotone", [False, True])
def test_prior_only_walk_panel_matches_direct_simulation(monotone, tmp_path):
    with route("compiled", tmp_path):
        _prior_only_walk_panel(monotone)


def test_single_point_with_idle_walk_survey_matches_quadrature(tmp_path):
    with route("compiled", tmp_path):
        _idle_walk_survey_quadrature()


@pytest.mark.parametrize(
    "gate",
    [
        _single_point_quadrature,
        _idle_walk_survey_quadrature,
        _prior_only_sigma_sq_marginal,
        _prior_only_rate_at_origin,
        lambda: _prior_only_walk_panel(False),
        lambda: _prior_only_walk_panel(True),
    ],
    ids=["single-point", "idle-walk", "sigma-sq-prior", "rate-at-origin", "walk-prior",
         "walk-prior-monotone"],
)
def test_statistical_gates_hold_through_the_batch(gate, tmp_path):
    # each gate with no compiler: every chain in one chain-by-chain group
    # call (this route was once the numpy batch, whence the name); the tests
    # above run the same fits on the compiled route
    with route("no-compiler", tmp_path):
        gate()


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


def _rising_panel(n_times):
    """Rates rising through 1/2: theta starts below the prior mean that pads
    node 0 and ends above the 0 that pads node T, so that a bound read from
    either pad shows."""
    rate = np.linspace(0.2, 0.8, n_times)
    n = np.array([[100.0] * n_times, [400.0] * n_times, [400.0] * n_times])
    return panel_of(np.round(n * [rate, 0.8 * rate, np.sqrt(rate)]), n)


def _pinned_cases():
    demo = datagen.demo_panel()
    known = BiasModelSpec(kind="known", fixed_phi=tuple(1.2 + 0.05 * t for t in range(10)))
    vaccine = datagen.vaccine_shaped_bundle()
    ridge = dataclasses.replace(_demo_spec("constant", "walk"), monotone_walk=True)
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
        # the monotone ridge reject with walk cells in the exact ratio
        "exact-walk-monotone": (
            demo,
            dataclasses.replace(_demo_spec("walk", "walk", exact=True), monotone_walk=True),
            dataclasses.replace(_EXACT_DEMO, seed=8),
        ),
        "vaccine": (
            vaccine.panel,
            vaccine.design.model_spec(),
            SamplerSettings(n_chains=2, burn_in=100, n_draws=100, thin=1, seed=2),
        ),
        # one linear and one walk survey in one monotone model: their
        # coefficient blocks sit side by side in the sweep
        "mixed": (
            vaccine.panel,
            dataclasses.replace(
                vaccine.design.model_spec(),
                bias=(
                    BiasModelSpec.anchor(),
                    BiasModelSpec(kind="linear"),
                    BiasModelSpec.random_walk(),
                ),
            ),
            SamplerSettings(n_chains=2, burn_in=300, n_draws=200, thin=1, seed=6),
        ),
        # the cases below were first pinned with every chain in one group
        "vaccine-four-chains": (vaccine.panel, vaccine.design.model_spec(), _short_settings(4)),
        # 14 chains, with a linear survey's coefficient blocks beside the walk
        "demo-linear-walk": (demo, _demo_spec("linear", "walk"), _short_settings(14)),
        "vaccine-free": (
            vaccine.panel,
            dataclasses.replace(vaccine.design.model_spec(), monotone_walk=False),
            _short_settings(4),
        ),
        # monotone bounds at both ends: T = 10 puts nodes 0 and T in one
        # colour, T = 9 in different colours
        "even-monotone": (_rising_panel(10), ridge,
                          dataclasses.replace(_short_settings(3), seed=4, thin=3)),
        "odd-monotone": (_rising_panel(9), ridge, dataclasses.replace(_short_settings(3), seed=7)),
    }


# Digests of the draws, per case, as the chain-by-chain engine gives them
# since it runs the batch's sweep: the batch's phase order, its streams (one
# normal and one log-uniform per block and sweep, read by block id) and its
# accept rule (numpy 2.4). The cases down to "mixed" were first pinned on the
# chain's own sweep, in t order with buffered streams, where they guarded the
# cell table, the compiled bias designs and the merged level, variance and
# coefficient blocks bit for bit; every one was re-recorded once when the
# chain took the batch's sweep, the exact cases included. The cases from
# "vaccine-four-chains" on were first recorded (numpy 2.4) with every chain
# in one group on a numpy batch engine since retired; no engine may change a
# bit of them.
_PINNED_DRAW_DIGESTS = {
    "constant": "ec8183aae35bc1d8",
    "linear": "d07bd5b31e362176",
    "linear-uncentered": "78692988bf10a048",
    "walk": "747a4e645bd08966",
    "known": "d24c34a0b02156e6",
    "exact-linear": "9889bd0dcc20c2c4",
    "exact-walk": "2da6637d14d8418d",
    "vaccine": "a11f861520170266",
    "mixed": "7a0e4bac7265a7a1",
    "exact-walk-monotone": "65e350d63e0ff80d",
    "vaccine-four-chains": "86cff9407e149d29",
    "demo-linear-walk": "b0f66434d5a66347",
    "vaccine-free": "23da6c7f1dbd6d5b",
    "even-monotone": "979141d9b8e51e77",
    "odd-monotone": "19e00fc590d11999",
}


def _bookkeeping_digest(draws) -> str:
    h = hashlib.sha256()
    for d in (draws.acceptance_rates, draws.scales_end_of_burnin, draws.scales_final):
        h.update(repr(list(d.items())).encode())
    return h.hexdigest()[:16]


# Digests of the per-block acceptance rates and the proposal scales at the
# freeze point and at the end, recorded with the draws above. They were first
# pinned while the chain counted each block's decisions one call at a time,
# and re-recorded once, with the draws, when the chain took the batch's sweep.
_PINNED_BOOKKEEPING_DIGESTS = {
    "constant": "059bee1f829be4c4",
    "linear": "211a84157637e814",
    "linear-uncentered": "59a39254a92df1f8",
    "walk": "57fcf8d8fe33c88f",
    "known": "aeae38dd05b8720e",
    "exact-linear": "db15ce4d36ac812f",
    "exact-walk": "0cd1a6fc44a6362e",
    "vaccine": "c98d0331f39d02f5",
    "mixed": "504f7d4e5aa62647",
    "exact-walk-monotone": "bdd34f686919e967",
    "vaccine-four-chains": "0eafa6dc5642a219",
    "demo-linear-walk": "fbd9a25c9857e7f3",
    "vaccine-free": "34f63348ba4201de",
    "even-monotone": "77f728b70431d503",
    "odd-monotone": "2b7da23e08aa4c5e",
}


def _summary_digest(table) -> str:
    h = hashlib.sha256()
    for r in table.rows:
        fields = (r.name, r.survey, r.t, r.median, r.lower, r.upper, r.r_hat, r.ess)
        h.update(repr(fields).encode())
    return h.hexdigest()[:16]


# Digests of the summarize rows (rates, bias odds, variances, with their
# R-hat and ESS) of the draws above, re-recorded with them.
_PINNED_SUMMARY_DIGESTS = {
    "constant": "5c09bd418dbeee2f",
    "linear": "aa68e8574ef2f0f8",
    "linear-uncentered": "dedc5423307fc872",
    "walk": "ba17bbca9c98645d",
    "known": "e663a77678c3351b",
    "exact-walk": "1ea4c9ab603a5fdc",
    "mixed": "e2d95160f99492d9",
    "exact-walk-monotone": "0f588cc4d8420b47",
}


# The cases first pinned with every chain in one group on the numpy batch
# engine; the tests named after the batch check them.
_BATCH_PINNED = ("vaccine-four-chains", "demo-linear-walk", "vaccine-free", "even-monotone",
                 "odd-monotone")


@pytest.fixture(scope="module")
def pinned_fits(tmp_path_factory):
    """Each pinned case fitted once per route, every chain in one group call,
    as {(route, case): draws}; the digest tests below share these fits."""
    fits = {}
    for way in ROUTES:
        with route(way, tmp_path_factory.mktemp(way)):
            for name, (panel, spec, settings_) in _pinned_cases().items():
                fits[way, name] = run_chains(panel, spec, settings_, workers=1)
    return fits


def _check_pinned(fits, names, digest, pinned):
    for way in ROUTES:
        for name in names:
            assert digest(fits[way, name]) == pinned[name], (way, name)


def test_draws_match_pinned_digests(pinned_fits):
    names = [n for n in _PINNED_DRAW_DIGESTS if n not in _BATCH_PINNED]
    _check_pinned(pinned_fits, names, _draws_digest, _PINNED_DRAW_DIGESTS)


def test_bookkeeping_matches_pinned_digests(pinned_fits):
    names = [n for n in _PINNED_BOOKKEEPING_DIGESTS if n not in _BATCH_PINNED]
    _check_pinned(pinned_fits, names, _bookkeeping_digest, _PINNED_BOOKKEEPING_DIGESTS)


def test_summary_rows_match_pinned_digests(pinned_fits):
    _check_pinned(pinned_fits, _PINNED_SUMMARY_DIGESTS,
                  lambda draws: _summary_digest(summarize(draws)), _PINNED_SUMMARY_DIGESTS)


def test_batched_vaccine_draws_match_pinned_digests(pinned_fits):
    names = ["vaccine-four-chains"]
    _check_pinned(pinned_fits, names, _draws_digest, _PINNED_DRAW_DIGESTS)
    _check_pinned(pinned_fits, names, _bookkeeping_digest, _PINNED_BOOKKEEPING_DIGESTS)


def test_batched_draws_match_pinned_digests(pinned_fits):
    names = [n for n in _BATCH_PINNED if n != "vaccine-four-chains"]
    _check_pinned(pinned_fits, names, _draws_digest, _PINNED_DRAW_DIGESTS)
    _check_pinned(pinned_fits, names, _bookkeeping_digest, _PINNED_BOOKKEEPING_DIGESTS)


def test_diagnose_scores_the_named_ess_only_and_every_r_hat(pinned_fits):
    # R-hat reads no autocovariance: naming fewer ESS series changes no R-hat,
    # no verdict and no named ESS, bit for bit (both routes give the same draws)
    for (way, name), draws in pinned_fits.items():
        if way != ROUTES[0]:
            continue
        full = diagnose(draws)
        last = f"theta[{draws.n_times}]"
        for keys in [(), (last,), ("sigma_sq", "theta[0]", last), tuple(full.ess)]:
            part = diagnose(draws, ess_of=keys)
            assert repr(part.r_hat) == repr(full.r_hat), (name, keys)
            assert part.converged == full.converged, (name, keys)
            assert repr(part.ess) == repr({k: v for k, v in full.ess.items() if k in keys})
    with pytest.raises(ValueError, match="nothing"):
        diagnose(draws, ess_of=("nothing",))


def test_exact_demo_chain_calls_kernel_once_per_touched_cell(monkeypatch, tmp_path):
    # demo panel, anchor + 2 linear: 30 cells filled once, then per sweep
    # 30 theta-block calls and 10 + 10 per linear survey; counted on the
    # Python route, whose every cell is a call of the Python kernel
    calls = [0]
    kernel = mcmc.nchg_logpmf_unchecked

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    monkeypatch.setattr(mcmc, "nchg_logpmf_unchecked", counted)
    with route("no-compiler", tmp_path):
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


# ---------------------------------------------------------------------------
# the engines: choice, groups, invariance, pinned draws


def _short_settings(n_chains):
    return SamplerSettings(n_chains=n_chains, burn_in=100, n_draws=100, thin=1, seed=2)


class _Picked(Exception):
    pass


def _pick_route(*args):
    """In place of ``_sample``: raise the route its ``run`` argument picks."""
    raise _Picked("scalar" if args[-1] is None else "compiled")


def test_run_chains_picks_the_engine_from_the_fit(tmp_path):
    vaccine = datagen.vaccine_shaped_bundle()
    spec = vaccine.design.model_spec()
    demo = datagen.demo_panel()
    # the compiled sweep for approximate and exact fits alike, and with no
    # compiler the Python sweep, whatever the chain count
    cases = [
        (vaccine.panel, spec, 4),
        (vaccine.panel, spec, 3),
        (vaccine.panel, spec, 2),
        (vaccine.panel, dataclasses.replace(spec, use_exact_nchg=True), 4),
        (demo, _demo_spec("linear", "walk"), 13),
        (demo, _demo_spec("linear", "walk"), 14),
    ]
    compiled = compiled_sweep() is not None
    for way in ROUTES:
        with route(way, tmp_path):
            for panel, spec, n_chains in cases:
                engine = "scalar"
                if way == "compiled" and compiled:
                    engine = "compiled"  # whatever the chain count
                with mock.patch.object(mcmc, "_sample", _pick_route):
                    with pytest.raises(_Picked, match=engine):
                        run_chains(panel, spec, _short_settings(n_chains), workers=1)


def test_run_chains_splits_into_groups_the_workers_allow():
    vaccine = datagen.vaccine_shaped_bundle()
    spec = vaccine.design.model_spec()
    groups = []

    def serial(fn, jobs, workers=None):
        groups.append([len(job[3]) for job in jobs])
        return []

    with mock.patch.object(mcmc, "map_jobs", serial), \
            mock.patch.object(mcmc, "_stack_chains", lambda *a: None):
        for n_chains, workers in [(4, 1), (4, 2), (6, 2), (8, 3), (7, 4), (12, 8), (2, 3)]:
            run_chains(vaccine.panel, spec, _short_settings(n_chains), workers=workers)
    # min(workers, n_chains) contiguous groups, as even as the count allows
    assert groups == [[4], [2, 2], [3, 3], [2, 3, 3], [1, 2, 2, 2], [1, 2, 1, 2, 1, 2, 1, 2],
                      [1, 1]]


def test_one_group_fit_keeps_one_copy_of_its_draws(tmp_path):
    # on the compiled route tracemalloc sees the fit's every allocation; the
    # chain makes a Python float per operation, which tracemalloc would trace
    # one by one, so with no compiler a fresh interpreter runs the fit and
    # reads the rise of its peak resident size (ru_maxrss) around it
    vaccine = datagen.vaccine_shaped_bundle()
    settings_ = SamplerSettings(n_chains=4, burn_in=50, n_draws=1000, thin=1, seed=3)
    with route("compiled", tmp_path):
        compiled_sweep()  # a build's memory is not the fit's
        tracemalloc.start()
        try:
            draws = run_chains(vaccine.panel, vaccine.design.model_spec(), settings_, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = sum(a.nbytes for a in (draws.theta, draws.sigma_sq, *draws.gamma, draws.pi_sq))
    assert peak < 1.5 * size, ("compiled", peak, size)
    code = (
        "import os, resource, sys, sysconfig\n"
        "sysconfig.get_config_vars()['CC'] = 'no-such-compiler'\n"
        "os.environ['PATH'] = ''\n"
        "from surveysynth import _chainlib, datagen, mcmc\n"
        "assert _chainlib.library() is None\n"
        "vaccine = datagen.vaccine_shaped_bundle()\n"
        "settings = mcmc.SamplerSettings(n_chains=4, burn_in=50, n_draws=1000, thin=1, seed=3)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "draws = mcmc.run_chains(vaccine.panel, vaccine.design.model_spec(), settings, workers=1)\n"
        "rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
        "size = sum(a.nbytes for a in (draws.theta, draws.sigma_sq, *draws.gamma, draws.pi_sq))\n"
        "print(rise * (1 if sys.platform == 'darwin' else 1024), size)\n"  # bytes, else KiB
    )
    peak, size = map(int, _run_python(code, tmp_path / "no-compiler").split())
    assert peak < 1.5 * size, ("no-compiler", peak, size)


def test_a_one_group_fit_is_one_part(tmp_path):
    # the same fit gives one _Part on either route, and its draws are that
    # part's arrays, not a copy
    panel, spec, settings_ = _pinned_cases()["mixed"]
    for way in ROUTES:
        with route(way, tmp_path), \
                mock.patch.object(mcmc, "_stack_chains", wraps=mcmc._stack_chains) as stack:
            draws = run_chains(panel, spec, settings_, workers=1)
        parts = stack.call_args.args[0]
        assert len(parts) == 1 and isinstance(parts[0], mcmc._Part), way
        part = parts[0]
        assert draws.theta is part.theta and draws.sigma_sq is part.sigma_sq, way
        assert draws.pi_sq is part.pi_sq and all(map(operator.is_, draws.gamma, part.gamma)), way


@pytest.mark.parametrize("workers", [2.7, True, 0.5])
def test_resolve_workers_takes_only_a_count(workers):
    with pytest.raises(ValueError, match="workers must be an integer >= 1"):
        mcmc.resolve_workers(workers)


def test_draws_do_not_depend_on_workers_or_groups(tmp_path):
    vaccine = datagen.vaccine_shaped_bundle()
    panel, spec = vaccine.panel, vaccine.design.model_spec()
    settings = SamplerSettings(n_chains=8, burn_in=40, n_draws=40, thin=1, seed=9)
    # groups of 8, 4 and 4, and 2 or 3 chains; one group call against two
    fits = [(panel, spec, settings), (datagen.demo_panel(), _demo_spec("linear", "walk"), _SHORT)]
    designs, columns = mcmc._validate_inputs(panel, spec)
    seeds = np.random.SeedSequence(3).spawn(4)
    digests = set()
    for way in ROUTES:
        with route(way, tmp_path):
            for fit in fits:
                runs = [run_chains(*fit, workers=w) for w in (1, 2, 3)]
                assert len({_draws_digest(r) for r in runs}) == 1, way
                assert len({_bookkeeping_digest(r) for r in runs}) == 1, way
                digests.add((_draws_digest(runs[0]), _bookkeeping_digest(runs[0])))

            four = sample_group(panel, spec, settings, seeds, designs, columns)
            pairs = [sample_group(panel, spec, settings, part, designs, columns)
                     for part in (seeds[:2], seeds[2:])]
            assert _draws_digest(four) == _draws_digest(mcmc._stack_chains(pairs, spec, settings))
            assert four.books == [b for part in pairs for b in part.books]
    assert len(digests) == len(fits)  # and the routes agree


def run_chain_by_chain(panel, spec, settings):
    """``run_chains`` with every chain in its own ``_sample`` call through
    ``_run_python``, however wide the fit, and the chains' bookkeeping."""
    designs, columns = mcmc._validate_inputs(panel, spec)
    seeds = np.random.SeedSequence(settings.seed).spawn(settings.n_chains)
    parts = [mcmc._sample(panel, spec, settings, [s], designs, columns, None) for s in seeds]
    return mcmc._stack_chains(parts, spec, settings), [b for p in parts for b in p.books]


def _nine_survey_fit(n_times=12, seed=0):
    """Nine surveys, every cell observed: the anchor, three walks, two
    constants, two linears and a known survey with fixed odds. A level move
    sums nine cells, a ridge move three walk priors and six cells, a linear
    coefficient n_times cells and pi_sq's move 3 x n_times squared steps."""
    rng = np.random.default_rng(seed)
    bias = (
        BiasModelSpec.anchor(),
        *[BiasModelSpec(kind="walk")] * 3,
        *[BiasModelSpec(kind="constant")] * 2,
        *[BiasModelSpec(kind="linear")] * 2,
        BiasModelSpec(kind="known", fixed_phi=tuple(rng.uniform(0.5, 2.0, n_times))),
    )
    n = rng.integers(50, 400, size=(len(bias), n_times)).astype(float)
    y = np.floor(n * rng.uniform(0.2, 0.6, size=n.shape))
    return panel_of(y, n), ModelSpec(bias=bias)


def test_both_engines_give_the_same_draws():
    # the Python sweep chain by chain, the Python sweep with every chain in one
    # group and, where it can be had, the compiled sweep
    sweep = compiled_sweep()
    cases = {**_pinned_cases(),
             "nine-surveys": (*_nine_survey_fit(), _short_settings(1))}
    for name, (panel, spec, settings_) in cases.items():
        if spec.use_exact_nchg:
            # one chain each: pinned on both routes (pinned_fits), and the
            # routes compared by test_compiled_sweep_gives_the_exact_chains_draws
            continue
        chains, books = run_chain_by_chain(panel, spec, settings_)
        designs, columns = mcmc._validate_inputs(panel, spec)
        seeds = np.random.SeedSequence(settings_.seed).spawn(settings_.n_chains)
        parts = [mcmc._sample(panel, spec, settings_, seeds, designs, columns, None)]
        if sweep is not None:
            parts.append(mcmc._sample(panel, spec, settings_, seeds, designs, columns, sweep))
        for part in parts:
            other = mcmc._stack_chains([part], spec, settings_)
            assert _draws_digest(chains) == _draws_digest(other), name
            assert books == part.books, name


# ---------------------------------------------------------------------------
# every theta, ridge and variance move's log ratio against the oracle


def _oracle_log_post(panel, spec, state):
    theta, sigma_sq, gam, pi_sq = state
    latent = LatentState(theta=np.array(theta), sigma_sq=sigma_sq,
                         gamma=tuple(np.array(g) for g in gam), pi_sq=pi_sq)
    return log_posterior(latent, panel, spec).log_post


def _random_fit(kinds, n_times, seed, population=10_000, **spec_kw):
    rng = np.random.default_rng(seed)
    T = n_times
    bias = [BiasModelSpec.anchor()]
    for kind in kinds:
        if kind == "known-fixed":
            bias.append(BiasModelSpec(kind="known", fixed_phi=tuple(rng.uniform(0.5, 2.0, T))))
        else:
            bias.append(BiasModelSpec(kind=kind))
    K = len(bias)
    n = rng.integers(10, 60, size=(K, T)).astype(float)
    y = np.floor(n * rng.uniform(0.3, 0.7, size=(K, T)))
    gaps = rng.random((K, T)) < 0.3
    y[gaps] = np.nan
    n[gaps] = np.nan
    return panel_of(y, n, population), ModelSpec(bias=tuple(bias), **spec_kw), rng


_KINDS = st.lists(st.sampled_from(["known", "known-fixed", "constant", "linear", "walk"]),
                  min_size=0, max_size=2)
_EPS = 1e-6  # log ratios must agree with the oracle's to this


class _ScriptedRng(np.random.Generator):
    """Single draws (the start) from a real stream; each refill of the normal
    and uniform streams as scripted, row by row, padded with 0.5."""

    def __init__(self, seed, normals, uniforms):
        super().__init__(np.random.PCG64(seed))
        self.normals, self.uniforms = normals, uniforms

    @staticmethod
    def _padded(values, size):
        count = math.prod(size)
        return np.concatenate([np.ravel(values), np.full(count, 0.5)])[:count].reshape(size)

    def standard_normal(self, size=None):
        return super().standard_normal() if size is None else self._padded(self.normals, size)

    def random(self, size=None):
        return self._padded(self.uniforms, size)


@given(kinds=_KINDS, n_times=st.integers(1, 4), monotone=st.booleans(), exact=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_scalar_sweep_log_ratios_match_the_oracle(kinds, n_times, monotone, exact, seed):
    # Walk the sweep's phase order with the oracle: each block's proposal
    # from its normal, its log-posterior difference d (plus the log Jacobian
    # of a variance move) and an intended decision, met by a uniform of
    # exp(d - eps) (accept) or exp(d + eps) (reject), whose log the chain
    # compares with its own d. Every block reads one normal and one uniform
    # per sweep, at its block id. The chain makes the same decisions, so
    # reaches the same states, only if its own d is within eps of the oracle's.
    # a small population makes the exact cell tell theta and the odds apart
    panel, spec, rng = _random_fit(kinds, n_times, seed, 400 if exact else 10_000,
                                   monotone_walk=monotone, use_exact_nchg=exact)
    T = n_times
    designs, columns = mcmc._validate_inputs(panel, spec)
    cell = mcmc._exact_cell(panel.population) if exact else None
    theta, sig, pi, gam, _, _ = mcmc._start(panel, spec, designs,
                                            np.random.Generator(np.random.PCG64(seed)), cell)
    walk_ks = [k for k, d in enumerate(designs) if None in d.var]
    names = mcmc._block_names(T, columns, bool(walk_ks))
    phase_order = [b for _, ids in mcmc._phase_order(T, columns, walk_ks) for b in ids]
    assert sorted(phase_order) == list(range(len(names)))
    n_sweeps = 4
    normals = rng.standard_normal((n_sweeps, len(names)))
    uniforms = np.full_like(normals, 0.5)
    states = []
    counts = dict.fromkeys(names, 0)
    for i in range(n_sweeps):
        for bid in phase_order:
            name = names[bid]
            step = 0.5 * normals[i, bid]  # every scale starts at 0.5 and burn_in is 0
            before = (list(theta), sig, [list(g) for g in gam], pi)
            kind, _, index = name.partition("[")
            jac = 0.0
            if kind in ("theta", "joint"):
                t = int(index[:-1])
                prop = theta[t] + step
                lo = theta[t - 1] if t else -math.inf
                hi = theta[t + 1] if t < T else math.inf
                if monotone and not lo <= prop <= hi:
                    if kind == "joint" or hi - lo <= 0.0:
                        continue  # rejected, whatever its uniform
                    if lo == -math.inf:
                        prop = 2.0 * hi - prop
                    elif hi == math.inf:
                        prop = 2.0 * lo - prop
                    else:
                        r = (prop - lo) % (2.0 * (hi - lo))
                        prop = lo + (r if r <= hi - lo else 2.0 * (hi - lo) - r)
                theta[t] = prop
                if kind == "joint":
                    for k in walk_ks:
                        gam[k][t] -= step
            elif kind in ("sigma_sq", "pi_sq"):
                cur = sig if kind == "sigma_sq" else pi
                lprop = math.log(cur) + step
                jac = lprop - math.log(cur)
                if kind == "sigma_sq":
                    sig = math.exp(lprop)
                else:
                    pi = math.exp(lprop)
            else:
                k, j = (int(v) for v in index[:-1].split("]["))
                gam[k][j] += step
            d = (_oracle_log_post(panel, spec, (theta, sig, gam, pi))
                 - _oracle_log_post(panel, spec, before) + jac)
            accept = d >= 0.0 or (d > -700.0 and rng.random() < 0.5)
            if -700.0 < d < 0.0:  # else the padding 0.5 decides as intended
                uniforms[i, bid] = math.exp(d - _EPS) if accept else math.exp(d + _EPS)
            if accept:
                counts[name] += 1
            else:
                theta, sig, gam, pi = before
        states.append((list(theta), sig, [list(g) for g in gam], pi))

    settings_ = SamplerSettings(n_chains=1, burn_in=0, n_draws=n_sweeps, thin=1)
    part = mcmc._sample(panel, spec, settings_, [_ScriptedRng(seed, normals, uniforms)],
                        designs, columns, None)
    draws = mcmc._stack_chains([part], spec, settings_)
    assert draws.theta[0].tolist() == [s[0] for s in states]
    assert draws.sigma_sq[0].tolist() == [s[1] for s in states]
    for k in range(len(designs)):
        assert draws.gamma[k][0].tolist() == [s[2][k] for s in states]
    if walk_ks:
        assert draws.pi_sq[0].tolist() == [s[3] for s in states]
    assert {name: rate * n_sweeps for name, rate in draws.acceptance_rates.items()} == counts


# ---------------------------------------------------------------------------
# every sum in a log ratio adds its terms in turn, bit for bit


def _in_turn(terms):
    """The sum of ``terms``, added first to last."""
    total = 0.0
    for v in terms:
        total += v
    return total


def _step_prior(cur, prop, prev, nxt, wp, wn):
    """A node's change in its two Gaussian step terms, in the sampler's form."""
    s = cur + prop
    return (cur - prop) * ((s - 2.0 * prev) * wp - (2.0 * nxt - s) * wn)


def _ratio_in_turn(name, before, after, ll_before, ll_after, step, spec, designs, walk_ks):
    """A moved lane's log ratio (with a variance move's log Jacobian), each of
    its sums added in turn: the cells of a level move walks first, a ridge
    move's walk priors and then its non-walk cells, a coefficient's cells in
    t order, a variance's squared steps t-major with every walk at one t side
    by side."""
    theta, sig, gam, pi = before
    T = len(theta) - 1
    pr = spec.priors
    kind, _, index = name.partition("[")
    others = [k for k in range(len(designs)) if k not in walk_ks]
    if kind in ("sigma_sq", "pi_sq"):
        if kind == "sigma_sq":
            v, vprop, prior_sq = sig, after[1], pr.sigma_sq_scale
            steps = [theta[t] - theta[t - 1] for t in range(1, T + 1)]
        else:
            v, vprop, prior_sq = pi, after[3], pr.pi_sq_scale
            steps = [gam[k][t] - gam[k][t - 1] for t in range(1, T + 1) for k in walk_ks]
        sse = _in_turn([dd * dd for dd in steps])
        lcur = math.log(v)
        lprop = lcur + step
        assert math.exp(lprop) == vprop
        return ((v * v - vprop * vprop) / (2.0 * prior_sq) + 0.5 * len(steps) * (lcur - lprop)
                + 0.5 * sse * (1.0 / v - 1.0 / vprop) + (lprop - lcur))
    wsig = 0.5 / sig
    wpi = None if pi is None else 0.5 / pi

    def walk_prior(k, t):  # bias walk k's step terms around node t
        g = gam[k]
        prev, wp = (0.0, 0.5 / designs[k].var[0]) if t == 0 else (g[t - 1], wpi)
        nxt, wn = (0.0, 0.0) if t == T else (g[t + 1], wpi)
        return _step_prior(g[t], after[2][k][t], prev, nxt, wp, wn)

    if kind == "gamma":
        k, j = (int(i) for i in index[:-1].split("]["))
        if k in walk_ks:  # a bias walk's node j and its one cell
            return walk_prior(k, j) + (ll_after[k][j] - ll_before[k][j])
        d = (gam[k][j] ** 2 - after[2][k][j] ** 2) / (2.0 * designs[k].var[j])
        # a cell outside the coefficient's column adds an exact 0
        return d + _in_turn([ll_after[k][t] - ll_before[k][t] for t in range(1, T + 1)])
    t = int(index[:-1])
    prev, wp = (pr.theta0_mean, 0.5 / pr.theta0_var) if t == 0 else (theta[t - 1], wsig)
    nxt, wn = (0.0, 0.0) if t == T else (theta[t + 1], wsig)
    d = _step_prior(theta[t], after[0][t], prev, nxt, wp, wn)
    if kind == "theta":
        return d + _in_turn([ll_after[k][t] - ll_before[k][t] for k in walk_ks + others])
    d += _in_turn([walk_prior(k, t) for k in walk_ks])
    return d + _in_turn([ll_after[k][t] - ll_before[k][t] for k in others])


def _walk_in_turn(panel, spec, designs, columns, start, normals, rng):
    """Sweeps of a free (not monotone) fit under the approximation, walked
    here in phase order from ``start``: each block proposes from 0.5 times
    its normal (every scale is 0.5 and burn_in 0), evaluates the cells it
    touches at the proposal, and takes its ratio with every sum added in turn
    (``_ratio_in_turn``). It then accepts or rejects as ``rng`` says, its
    log-uniform one float below that ratio or at it. Returns the
    log-uniforms, the state after each sweep, the accepts per block and the
    decisions per kind of block, as (accepts, rejects)."""
    assert not spec.use_exact_nchg and not spec.monotone_walk
    T = panel.n_times
    walk_ks = [k for k, d in enumerate(designs) if None in d.var]
    names = mcmc._block_names(T, columns, bool(walk_ks))
    order = [b for _, ids in mcmc._phase_order(T, columns, walk_ks) for b in ids]
    column = {(c.k, c.j): c for c in columns}
    seen = {(k, t): (float(y), float(n)) for k, t, y, n in panel.observed_cells()}
    theta, sig, pi, gam, lphi, ll = start

    def cell(k, t, th, g):
        y, n = seen[k, t]
        x = th + g
        return float(y * x - n * np.logaddexp(0.0, x))

    log_us = np.empty_like(normals)
    states = []
    counts = dict.fromkeys(names, 0)
    decisions: dict[str, list[int]] = {}
    for i in range(len(normals)):
        for bid in order:
            name = names[bid]
            step = 0.5 * normals[i, bid]
            theta2, sig2, pi2 = list(theta), sig, pi
            gam2, lphi2, ll2 = ([list(r) for r in rows] for rows in (gam, lphi, ll))
            kind, _, index = name.partition("[")
            touched = []
            if kind in ("theta", "joint"):
                t = int(index[:-1])
                theta2[t] += step
                if kind == "joint":
                    for k in walk_ks:
                        gam2[k][t] -= step
                        lphi2[k][t] = gam2[k][t]
                touched = [(k, t) for k in range(len(designs)) if (k, t) in seen]
            elif kind == "sigma_sq":
                sig2 = math.exp(math.log(sig) + step)
            elif kind == "pi_sq":
                pi2 = math.exp(math.log(pi) + step)
            else:
                k, j = (int(v) for v in index[:-1].split("]["))
                gam2[k][j] += step
                if k in walk_ks:
                    kind = "walk"
                    lphi2[k][j] = gam2[k][j]
                    touched = [(k, j)] if (k, j) in seen else []
                else:
                    kind = "coefficient"
                    for t, _, _, g, terms in column[k, j].rows:
                        if terms is None:
                            g = gam2[k][j]
                        else:
                            for c_i, c in terms:
                                g = g + c * gam2[k][c_i]
                        lphi2[k][t] = g
                        touched.append((k, t))
            for k, t in touched:
                ll2[k][t] = cell(k, t, theta2[t], lphi2[k][t])
            want = _ratio_in_turn(name, (theta, sig, gam, pi), (theta2, sig2, gam2, pi2), ll, ll2,
                                  step, spec, designs, walk_ks)
            assert math.isfinite(want), name
            accept = rng.random() < 0.5
            log_us[i, bid] = np.nextafter(want, -np.inf) if accept else want
            decisions.setdefault(kind, [0, 0])[not accept] += 1
            if accept:
                counts[name] += 1
                theta, sig, pi, gam, lphi, ll = theta2, sig2, pi2, gam2, lphi2, ll2
        states.append((list(theta), sig, [list(g) for g in gam], pi))
    return log_us, states, counts, decisions


def test_chain_ratios_add_their_terms_in_turn(monkeypatch):
    # Ten sweeps of the nine-survey fit, walked here with every sum in each
    # ratio added in turn; each block accepts or rejects at random with its
    # log-uniform one float below its ratio or at it. The chain, given the
    # same start, steps and log-uniforms, makes every decision the same way,
    # and so reaches the same states, only if each of its ratios is that same
    # float; so does the compiled sweep.
    seed = 21
    panel, spec = _nine_survey_fit()
    designs, columns = mcmc._validate_inputs(panel, spec)
    names = mcmc._block_names(panel.n_times, columns, True)
    n_sweeps = 10
    rng = np.random.default_rng(8)
    normals = rng.standard_normal((n_sweeps, len(names)))
    start = mcmc._start(panel, spec, designs, np.random.default_rng(seed), None)
    log_us, states, counts, decisions = _walk_in_turn(panel, spec, designs, columns, start,
                                                      normals, rng)
    # every kind of block is checked as an accept and as a reject
    assert sorted(decisions) == ["coefficient", "joint", "pi_sq", "sigma_sq", "theta", "walk"]
    assert all(accepts and rejects for accepts, rejects in decisions.values()), decisions

    # the Python sweep, and the compiled sweep fed the same streams
    monkeypatch.setattr(mcmc, "_refill", lambda rng_, blocks: (normals, log_us))
    settings_ = SamplerSettings(n_chains=1, burn_in=0, n_draws=n_sweeps, thin=1)
    parts = [mcmc._sample(panel, spec, settings_, [seed], designs, columns, None)]
    sweep = compiled_sweep()
    if sweep is not None:
        parts.append(mcmc._sample(panel, spec, settings_, [seed], designs, columns, sweep))
    for part in parts:
        draws = mcmc._stack_chains([part], spec, settings_)
        assert draws.theta[0].tolist() == [s[0] for s in states]
        assert draws.sigma_sq[0].tolist() == [s[1] for s in states]
        for k in range(len(designs)):
            assert draws.gamma[k][0].tolist() == [s[2][k] for s in states]
        assert draws.pi_sq[0].tolist() == [s[3] for s in states]
        assert {name: rate * n_sweeps for name, rate in draws.acceptance_rates.items()} == counts


# ---------------------------------------------------------------------------
# the compiled sweep: the chain's draws, its build, cache and fallback


def _compiler_on_path() -> bool:
    return any(shutil.which(cc[0]) for cc in _chainlib.compilers())


def _needs_compiled_sweep():
    sweep = compiled_sweep()
    if sweep is None:
        assert not _compiler_on_path(), "a compiler is on the PATH, but the sweep did not build"
        pytest.skip("no C compiler to build the compiled sweep")
    return sweep


@given(kinds=_KINDS, n_times=st.integers(1, 5), monotone=st.booleans(),
       n_chains=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(kinds=["known", "constant"], n_times=1, monotone=False, n_chains=1, seed=2)
@example(kinds=["walk", "linear"], n_times=5, monotone=True, n_chains=2, seed=7)
@settings(max_examples=40, deadline=None)
def test_compiled_sweep_gives_the_chains_draws(kinds, n_times, monotone, n_chains, seed):
    # any bias kinds, one to five time-points, free or monotone, one to three
    # chains; short windows, so that scales adapt, and thinning
    sweep = _needs_compiled_sweep()
    panel, spec, _ = _random_fit(kinds, n_times, seed, monotone_walk=monotone)
    settings_ = SamplerSettings(n_chains=n_chains, burn_in=60, n_draws=60, thin=3,
                                seed=seed, adapt_window=10)
    chains, books = run_chain_by_chain(panel, spec, settings_)
    designs, columns = mcmc._validate_inputs(panel, spec)
    seeds = np.random.SeedSequence(seed).spawn(n_chains)
    part = mcmc._sample(panel, spec, settings_, seeds, designs, columns, sweep)
    assert _draws_digest(chains) == _draws_digest(mcmc._stack_chains([part], spec, settings_))
    assert books == part.books


@given(kinds=_KINDS, n_times=st.integers(1, 4), monotone=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(kinds=["walk", "walk"], n_times=3, monotone=True, seed=5)
@example(kinds=["linear", "constant"], n_times=4, monotone=False, seed=6)
@settings(max_examples=40, deadline=None)
def test_compiled_sweep_gives_the_exact_chains_draws(kinds, n_times, monotone, seed):
    # the exact kernel on a small population, where the cell tells theta and
    # the odds apart: a ridge move counts its walks' cells at shifted odds
    sweep = _needs_compiled_sweep()
    panel, spec, _ = _random_fit(kinds, n_times, seed, 400, monotone_walk=monotone,
                                 use_exact_nchg=True)
    settings_ = SamplerSettings(n_chains=1, burn_in=40, n_draws=40, thin=2, seed=seed,
                                adapt_window=10)
    chains, books = run_chain_by_chain(panel, spec, settings_)
    designs, columns = mcmc._validate_inputs(panel, spec)
    seeds = np.random.SeedSequence(seed).spawn(1)
    part = mcmc._sample(panel, spec, settings_, seeds, designs, columns, sweep)
    assert _draws_digest(chains) == _draws_digest(mcmc._stack_chains([part], spec, settings_))
    assert books == part.books


def _compiled(name, restype, *argtypes):
    """A function of the compiled sweep's library, or of the libm it links."""
    _needs_compiled_sweep()
    fn = getattr(ctypes.CDLL(_chainlib.library()), name)
    fn.argtypes, fn.restype = list(argtypes), restype
    return fn


def test_compiled_exact_cell_is_the_python_cell():
    # every branch of the kernel: phi = 1 (Vandermonde, g = 0 and a g whose
    # exp rounds to 1), counts inside and beyond the certified window, the
    # support's edges and beyond them, odds beyond MAX_LOG_ODDS, and
    # populations on either side of _lchoose's m = 1000
    cell = _compiled("ss_exact_cell", ctypes.c_double, ctypes.c_int64, *[ctypes.c_double] * 4,
                     ctypes.c_void_p)
    win = np.empty(2001)
    seen = set()
    for population in (40, 900, 5000, 10**6):
        python_cell = mcmc._exact_cell(population)
        for th in (-6.0, -1.3, 0.4, 2.2):
            m1 = math.floor(inv_logit(th) * population + 0.5)
            for g in (0.0, 1e-17, 0.7, -3.1, 12.0, -MAX_LOG_ODDS, MAX_LOG_ODDS, 690.5, -700.0):
                for n in [v for v in (1, 7, 25, 180, 2000) if v <= population]:
                    lo, hi = max(0, n - population + m1), min(n, m1)
                    ys = {0, lo - 1, lo, lo + 1, (lo + hi) // 2, hi - 1, hi, hi + 1, n}
                    ys = sorted(v for v in ys if 0 <= v <= n)
                    for y in ys:
                        want = python_cell(th, g, float(y), float(n))
                        got = cell(population, th, g, float(y), float(n), win.ctypes.data)
                        assert repr(got) == repr(want), (population, th, g, y, n)
                    if abs(g) > MAX_LOG_ODDS:
                        seen.add("beyond-max-odds")
                    elif math.exp(g) == 1.0:
                        seen.add("vandermonde")
                    elif lo < hi:
                        a, lw, _, _ = dists._nchg_window(m1, population - m1, n, math.exp(g),
                                                         dists._libm_fill)
                        seen.update("window" if a <= y < a + len(lw) else
                                    "beyond-window" if lo <= y <= hi else "outside-support"
                                    for y in ys)
    assert seen == {"beyond-max-odds", "vandermonde", "outside-support", "window",
                    "beyond-window"}


def test_compiled_lgamma_is_math_lgamma():
    lgamma = _compiled("ss_lgamma", ctypes.c_double, ctypes.c_double)
    rng = np.random.default_rng(3)
    args = [float(i) for i in range(1, 100_001)]
    args += rng.uniform(1.0, 1e6, 100_000).tolist() + rng.uniform(1e-3, 30.0, 20_000).tolist()
    assert [x for x in args if lgamma(x) != math.lgamma(x)] == []


def test_libm_expm1_is_math_expm1():
    # the kernel's tail bound calls expm1 of a negative log step
    expm1 = _compiled("expm1", ctypes.c_double, ctypes.c_double)
    rng = np.random.default_rng(4)
    args = rng.uniform(-50.0, 0.0, 100_000).tolist() + rng.uniform(-1e-6, 1e-6, 50_000).tolist()
    args += rng.uniform(0.0, 700.0, 50_000).tolist()
    assert [x for x in args if expm1(x) != math.expm1(x)] == []


def _run_python(code, cache):
    """``code`` run by a fresh interpreter on this checkout's package, with
    ``cache`` as XDG_CACHE_HOME; its standard output, stripped."""
    src = str(Path(surveysynth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               XDG_CACHE_HOME=str(cache))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout.strip()


def test_compiled_loop_builds_and_loads(tmp_path):
    if not _compiler_on_path():
        pytest.skip("no C compiler to build the compiled sweep")
    with mock.patch.dict(os.environ, {"XDG_CACHE_HOME": str(tmp_path)}):
        _chainlib.library.cache_clear()
        try:
            path = Path(_chainlib.library())
            assert path.parent == tmp_path / "surveysynth"
            assert _chainlib.load(str(path)) is not None
            built = path.stat().st_mtime_ns
            _chainlib.library.cache_clear()
            assert _chainlib.library() == str(path)  # found in the cache, not rebuilt
            assert path.stat().st_mtime_ns == built
            # the library and its digest, no temporary file
            assert sorted(p.name for p in path.parent.iterdir()) == [path.stem + ".sha256",
                                                                     path.name]
        finally:
            _chainlib.library.cache_clear()


def test_compiled_sweep_builds_without_warnings(tmp_path):
    # the library's compiler and flags, with every -Wall -Wextra warning an error
    _needs_compiled_sweep()
    cc = next(cc for cc in _chainlib.compilers() if shutil.which(cc[0]))
    out = subprocess.run([*cc, *_chainlib.FLAGS, "-Wall", "-Wextra", "-Werror",
                          str(_chainlib.SOURCE), "-o", str(tmp_path / "chain.so"), "-lm"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr


def test_schedule_packing_rule():
    # the kind first; an int to ix, a float to fx; a list its length, then its
    # items; a tuple its items alone
    ix, fx = mcmc._pack([(7, [(1, 2.5, [(3, 4.5), (5, 6.5)], (8, 9.5)), (10, [])])])
    assert ix.dtype == np.int64 and fx.dtype == np.float64
    assert ix.tolist() == [7, 1, 2, 3, 5, 8, 7, 10, 0]
    assert fx.tolist() == [2.5, 4.5, 6.5, 9.5]
    for item in (None, True, np.float64(1.0), np.int64(1)):
        with pytest.raises(TypeError):
            mcmc._pack([(0, [(1, item)])])


def test_truncated_cached_library_is_rebuilt(tmp_path):
    if not _compiler_on_path():
        pytest.skip("no C compiler to build the compiled sweep")
    path = Path(_run_python("from surveysynth import _chainlib; print(_chainlib.library())",
                            tmp_path))
    size = path.stat().st_size
    with open(path, "r+b") as f:
        f.truncate(size // 3)
    code = (
        "from surveysynth import _chainlib\n"
        "path = _chainlib.library()\n"
        "print(path, _chainlib.load(path) is not None)\n"
    )
    assert _run_python(code, tmp_path) == f"{path} True"
    assert path.stat().st_size == size


def test_a_failed_build_takes_todays_route(tmp_path):
    # a compiler that runs and fails: no library, no exception, today's draws
    failing = f"{shlex.quote(sys.executable)} -c 'raise SystemExit(1)'"
    with mock.patch.dict(sysconfig.get_config_vars(), {"CC": failing}), \
            mock.patch.dict(os.environ, {"PATH": str(tmp_path),
                                         "XDG_CACHE_HOME": str(tmp_path / "cache")}):
        _chainlib.library.cache_clear()
        try:
            assert _chainlib.library() is None
            panel, spec, settings_ = _pinned_cases()["walk"]
            with mock.patch.object(mcmc, "_sample", wraps=mcmc._sample) as sample:
                draws = run_chains(panel, spec, settings_, workers=1)
        finally:
            _chainlib.library.cache_clear()
    assert [call.args[-1] for call in sample.call_args_list] == [None]  # no compiled sweep
    assert _draws_digest(draws) == _PINNED_DRAW_DIGESTS["walk"]


def test_import_builds_and_loads_nothing(tmp_path):
    code = ("import sys, surveysynth, surveysynth.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('surveysynth._chain')))")
    assert _run_python(code, tmp_path) == "[]"
    assert not tmp_path.joinpath("surveysynth").exists()


def test_exact_fits_load_the_compiled_loop(tmp_path):
    if not _compiler_on_path():
        pytest.skip("no C compiler to build the compiled sweep")
    code = (
        "import sys\n"
        "from surveysynth import datagen, mcmc\n"
        "from surveysynth.core import BiasModelSpec, ModelSpec\n"
        "spec = ModelSpec(bias=(BiasModelSpec.anchor(), BiasModelSpec(kind='walk')),\n"
        "                 use_exact_nchg=True)\n"
        "panel = datagen.demo_panel().subset_surveys([0, 1])\n"
        "settings = mcmc.SamplerSettings(n_chains=2, burn_in=4, n_draws=8, thin=2)\n"
        "mcmc.run_chains(panel, spec, settings, workers=1)\n"
        "print(sorted(m for m in sys.modules if m.startswith('surveysynth._chain')))"
    )
    assert _run_python(code, tmp_path) == "['surveysynth._chainlib']"
    assert any(tmp_path.joinpath("surveysynth").glob("chain-*.so"))


def test_chain_source_ships_with_the_package():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    doc = tomllib.loads((root / "pyproject.toml").read_text())
    assert "_chain.c" in doc["tool"]["setuptools"]["package-data"]["surveysynth"]
    assert Path(surveysynth.__file__).with_name("_chain.c").is_file()
