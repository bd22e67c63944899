import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from surveysynth import dists
from surveysynth.core import (
    BiasDesign,
    BiasModelSpec,
    LatentState,
    ModelSpec,
    PriorSpec,
    SurveyPanel,
    bias_designs,
    coefficient_columns,
)
from surveysynth.dists import (
    NchgParams,
    biased_success_prob,
    inv_logit,
    logit,
    nchg_logpmf,
    truncnorm_logpdf,
)
from surveysynth.likelihood import (
    log_likelihood,
    log_posterior,
    log_prior,
    phi_value,
)


def panel_of(y, n, population=10_000):
    y = np.asarray(y, dtype=float)
    n = np.asarray(n, dtype=float)
    labels = tuple(f"s{i}" for i in range(y.shape[0]))
    return SurveyPanel(y=y, n=n, population=population, labels=labels)


def anchor_spec(**kw):
    return ModelSpec(bias=(BiasModelSpec.anchor(),), **kw)


def state_of(theta, sigma_sq=1.0, gamma=(None,), pi_sq=None):
    return LatentState(
        theta=np.asarray(theta, dtype=float),
        sigma_sq=sigma_sq,
        gamma=tuple(np.asarray(g, dtype=float) if g is not None else None for g in gamma),
        pi_sq=pi_sq,
    )


# ---------------------------------------------------------------------------
# phi_value


def test_phi_known_defaults_to_one():
    spec = anchor_spec()
    state = state_of(np.zeros(5))
    assert phi_value(spec, state, 0, 1) == 1.0
    assert phi_value(spec, state, 0, 4) == 1.0


def test_phi_known_fixed_series():
    spec = ModelSpec(bias=(BiasModelSpec(kind="known", fixed_phi=(1.0, 2.0, 0.5)),))
    state = state_of(np.zeros(4))
    assert phi_value(spec, state, 0, 2) == 2.0
    assert phi_value(spec, state, 0, 3) == 0.5


def test_phi_constant():
    spec = ModelSpec(bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="constant")))
    state = state_of(np.zeros(5), gamma=(None, [math.log(2.0)]))
    for t in (1, 2, 4):
        assert phi_value(spec, state, 1, t) == pytest.approx(2.0, rel=1e-15)


def test_phi_linear_centered_midpoint():
    spec = ModelSpec(bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="linear")))
    state = state_of(np.zeros(11), gamma=(None, [0.0, 0.1]))
    # T = 10, centered time t' = t - 5 vanishes at t = 5
    assert phi_value(spec, state, 1, 5) == pytest.approx(1.0, rel=1e-15)
    assert phi_value(spec, state, 1, 7) == pytest.approx(math.exp(0.2), rel=1e-12)


def test_phi_linear_uncentered():
    spec = ModelSpec(
        bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="linear")), center_time=False
    )
    state = state_of(np.zeros(11), gamma=(None, [0.0, 0.1]))
    assert phi_value(spec, state, 1, 5) == pytest.approx(math.exp(0.5), rel=1e-12)


@given(
    g0=st.floats(-2, 2),
    g1=st.floats(-0.5, 0.5),
    t=st.integers(min_value=1, max_value=9),
)
@settings(max_examples=60, deadline=None)
def test_phi_linear_centered_mirror_product(g0, g1, t):
    # centered time is antisymmetric about T/2, so mirrored points cancel the slope
    spec = ModelSpec(bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="linear")))
    state = state_of(np.zeros(11), gamma=(None, [g0, g1]))
    T = 10
    prod = phi_value(spec, state, 1, t) * phi_value(spec, state, 1, T - t)
    assert prod == pytest.approx(math.exp(2 * g0), rel=1e-9)


def test_phi_walk_indexes_by_time():
    spec = ModelSpec(bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="walk")))
    g = [0.0, 0.3, -0.2, 0.9]
    state = state_of(np.zeros(4), gamma=(None, g), pi_sq=0.1)
    assert phi_value(spec, state, 1, 1) == pytest.approx(math.exp(0.3), rel=1e-15)
    assert phi_value(spec, state, 1, 3) == pytest.approx(math.exp(0.9), rel=1e-15)


def test_phi_domain_errors():
    spec = anchor_spec()
    state = state_of(np.zeros(5))
    with pytest.raises(ValueError):
        phi_value(spec, state, 0, 0)
    with pytest.raises(ValueError):
        phi_value(spec, state, 0, 5)
    with pytest.raises(IndexError):
        phi_value(spec, state, 1, 1)


# ---------------------------------------------------------------------------
# log_prior


def test_log_prior_single_point():
    # theta = [0] alone under the default prior: Normal(0, 2) at 0, plus the
    # half-normal density of sigma_sq
    spec = anchor_spec()
    state = state_of([0.0], sigma_sq=1.0)
    expect_theta = -0.5 * math.log(2 * math.pi * 2.0)
    expect_sig = truncnorm_logpdf(1.0, 0.0, 1.0, lower=0.0)
    assert expect_theta == pytest.approx(-1.2655121234846454, abs=1e-12)
    assert log_prior(state, spec) == pytest.approx(expect_theta + expect_sig, abs=1e-12)


def test_log_prior_walk_increments():
    spec = anchor_spec()
    theta = [0.0, 0.4, 0.1]
    state = state_of(theta, sigma_sq=0.5)
    expect = (
        truncnorm_logpdf(0.0, 0.0, 2.0)
        + truncnorm_logpdf(0.4, 0.0, 0.5)
        + truncnorm_logpdf(0.1, 0.4, 0.5)
        + truncnorm_logpdf(0.5, 0.0, 1.0, lower=0.0)
    )
    assert log_prior(state, spec) == pytest.approx(expect, rel=1e-12)


def test_log_prior_monotone_truncation():
    spec = anchor_spec(monotone_walk=True)
    theta = [0.0, 0.4, 0.5]
    state = state_of(theta, sigma_sq=0.5)
    expect = (
        truncnorm_logpdf(0.0, 0.0, 2.0)
        + truncnorm_logpdf(0.4, 0.0, 0.5, lower=0.0)
        + truncnorm_logpdf(0.5, 0.4, 0.5, lower=0.4)
        + truncnorm_logpdf(0.5, 0.0, 1.0, lower=0.0)
    )
    assert log_prior(state, spec) == pytest.approx(expect, rel=1e-12)
    # each truncated step is the free step plus log 2
    free = log_prior(state, anchor_spec())
    assert log_prior(state, spec) == pytest.approx(free + 2 * math.log(2.0), rel=1e-12)


def test_log_prior_monotone_violation_rejected():
    spec = anchor_spec(monotone_walk=True)
    state = state_of([0.0, 0.5, 0.4], sigma_sq=0.5)
    assert log_prior(state, spec) == -math.inf


def test_log_prior_nonpositive_variance_rejected():
    spec = anchor_spec()
    assert log_prior(state_of([0.0], sigma_sq=0.0), spec) == -math.inf
    assert log_prior(state_of([0.0], sigma_sq=-2.0), spec) == -math.inf
    walk_spec = ModelSpec(bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="walk")))
    state = state_of([0.0, 0.1], gamma=(None, [0.0, 0.0]), pi_sq=-0.5)
    assert log_prior(state, walk_spec) == -math.inf


def test_log_prior_constant_bias():
    spec = ModelSpec(bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="constant")))
    base = log_prior(state_of([0.0], gamma=(None, [0.0])), spec)
    moved = log_prior(state_of([0.0], gamma=(None, [1.5])), spec)
    assert moved - base == pytest.approx(
        truncnorm_logpdf(1.5, 0.0, 1.0) - truncnorm_logpdf(0.0, 0.0, 1.0), rel=1e-12
    )


def test_log_prior_linear_bias_uses_both_variances():
    priors = PriorSpec(gamma0_var=1.0, gamma1_var=0.25)
    spec = ModelSpec(bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="linear")), priors=priors)
    state = state_of([0.0], gamma=(None, [0.7, -0.2]))
    expect = (
        truncnorm_logpdf(0.0, 0.0, 2.0)
        + truncnorm_logpdf(state.sigma_sq, 0.0, 1.0, lower=0.0)
        + truncnorm_logpdf(0.7, 0.0, 1.0)
        + truncnorm_logpdf(-0.2, 0.0, 0.25)
    )
    assert log_prior(state, spec) == pytest.approx(expect, rel=1e-12)


def test_log_prior_walk_bias_chain():
    spec = ModelSpec(bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="walk")))
    g = [0.2, 0.5, 0.3]
    state = state_of([0.0, 0.0, 0.0], gamma=(None, g), pi_sq=0.04)
    expect = (
        truncnorm_logpdf(0.0, 0.0, 2.0)
        + truncnorm_logpdf(0.0, 0.0, 1.0)
        + truncnorm_logpdf(0.0, 0.0, 1.0)
        + truncnorm_logpdf(1.0, 0.0, 1.0, lower=0.0)  # sigma_sq default 1.0
        + truncnorm_logpdf(0.2, 0.0, 1.0)
        + truncnorm_logpdf(0.5, 0.2, 0.04)
        + truncnorm_logpdf(0.3, 0.5, 0.04)
        + truncnorm_logpdf(0.04, 0.0, 1.0, lower=0.0)
    )
    assert log_prior(state, spec) == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# log_likelihood


def test_log_likelihood_empty_panel_is_zero():
    panel = panel_of([[np.nan, np.nan]], [[np.nan, np.nan]])
    state = state_of([0.0, 0.1, 0.2])
    assert log_likelihood(state, panel, anchor_spec()) == 0.0


def test_log_likelihood_single_anchor_cell_matches_binomial():
    panel = panel_of([[9.0]], [[100.0]])
    th = logit(0.09)
    state = state_of([0.0, th])
    expect = stats.binom.logpmf(9, 100, 0.09)
    assert log_likelihood(state, panel, anchor_spec()) == pytest.approx(expect, rel=1e-10)


def test_log_likelihood_biased_cell_tilts_probability():
    spec = ModelSpec(bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="constant")))
    panel = panel_of([[np.nan], [30.0]], [[np.nan], [100.0]])
    th = logit(0.2)
    state = state_of([0.0, th], gamma=(None, [math.log(2.0)]))
    q = biased_success_prob(0.2, 2.0)
    expect = stats.binom.logpmf(30, 100, q)
    assert log_likelihood(state, panel, spec) == pytest.approx(expect, rel=1e-10)


def test_log_likelihood_sums_over_cells():
    panel = panel_of([[9.0, 18.0]], [[100.0, 100.0]])
    state = state_of([0.0, logit(0.1), logit(0.15)])
    expect = stats.binom.logpmf(9, 100, 0.1) + stats.binom.logpmf(18, 100, 0.15)
    assert log_likelihood(state, panel, anchor_spec()) == pytest.approx(expect, rel=1e-10)


def test_log_likelihood_extreme_logits_stay_finite():
    panel = panel_of([[9.0, 90.0]], [[100.0, 100.0]])
    for lo, hi in ((-800.0, 800.0), (-40.0, 40.0)):
        state = state_of([0.0, lo, hi])
        v = log_likelihood(state, panel, anchor_spec())
        assert math.isfinite(v)


def test_log_likelihood_exact_mode_matches_nchg():
    spec = ModelSpec(
        bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="constant")),
        use_exact_nchg=True,
    )
    panel = panel_of([[np.nan], [12.0]], [[np.nan], [40.0]], population=500)
    p = 0.3
    state = state_of([0.0, logit(p)], gamma=(None, [math.log(1.5)]))
    m1 = int(math.floor(p * 500 + 0.5))
    expect = nchg_logpmf(12, NchgParams(m1, 500 - m1, 40, 1.5))
    assert log_likelihood(state, panel, spec) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("g", [700.0, 800.0, -800.0])
def test_exact_cell_beyond_max_log_odds_is_impossible(g):
    # the sampler's cell term reads the same bound: |log phi| above it is an
    # impossible cell, not a finite value (700) or an OverflowError (800)
    spec = ModelSpec(
        bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="constant")), use_exact_nchg=True
    )
    panel = panel_of([[np.nan], [12.0]], [[np.nan], [40.0]], population=500)
    state = state_of([0.0, logit(0.3)], gamma=(None, [g]))
    assert log_posterior(state, panel, spec).per_block["lik[1]"] == -math.inf
    assert dists.MAX_LOG_ODDS < abs(g)


def test_exact_and_binomial_agree_for_large_population():
    # cell-by-cell gap shrinks as n / population vanishes; check counts a
    # survey would plausibly report (within two sd of the cell mean)
    pop = 10_000_000
    n = 1000
    spec_exact = ModelSpec(
        bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="constant")),
        use_exact_nchg=True,
    )
    spec_approx = ModelSpec(
        bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="constant")),
    )
    for p, phi in ((0.3, 2.0), (0.5, 0.7), (0.1, 1.0)):
        state = state_of([0.0, logit(p)], gamma=(None, [math.log(phi)]))
        q = biased_success_prob(p, phi)
        mean, sd = n * q, math.sqrt(n * q * (1 - q))
        for y in (int(mean - 2 * sd), int(mean), int(mean + 2 * sd)):
            panel = panel_of([[np.nan], [float(y)]], [[np.nan], [float(n)]], population=pop)
            exact = log_likelihood(state, panel, spec_exact)
            approx = log_likelihood(state, panel, spec_approx)
            assert abs(exact - approx) < 0.05


# ---------------------------------------------------------------------------
# log_posterior report


def test_log_posterior_report_additivity(demo_panel, demo_spec):
    rng = np.random.default_rng(0)
    theta = rng.normal(-2.0, 0.5, size=11)
    state = state_of(
        theta, sigma_sq=0.3, gamma=(None, rng.normal(size=2), rng.normal(size=2))
    )
    rep = log_posterior(state, demo_panel, demo_spec)
    assert rep.log_post == rep.log_prior + rep.log_lik
    prior_blocks = [v for k, v in rep.per_block.items() if not k.startswith("lik")]
    lik_blocks = [v for k, v in rep.per_block.items() if k.startswith("lik")]
    assert sum(prior_blocks) == rep.log_prior
    assert sum(lik_blocks) == rep.log_lik
    assert rep.log_prior == log_prior(state, demo_spec)
    assert rep.log_lik == log_likelihood(state, demo_panel, demo_spec)


def test_log_posterior_block_names(demo_panel):
    spec = ModelSpec(
        bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="walk"), BiasModelSpec(kind="constant"))
    )
    state = state_of(
        np.zeros(11),
        gamma=(None, np.zeros(11), np.zeros(1)),
        pi_sq=0.1,
    )
    rep = log_posterior(state, demo_panel, spec)
    for name in ("theta", "sigma_sq", "gamma[1]", "gamma[2]", "pi_sq", "lik[0]", "lik[1]", "lik[2]"):
        assert name in rep.per_block
    assert "gamma[0]" not in rep.per_block


_WIDE_PANEL = panel_of(
    [[9.0, 18.0, 4.0], [66.0, 48.0, 7.0], [207.0, 293.0, 102.0]],
    [[100.0] * 3, [1000.0] * 3, [1000.0] * 3],
)
_WIDE_SPEC = ModelSpec(
    bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="linear"), BiasModelSpec(kind="linear"))
)


@given(
    scale=st.floats(min_value=0.1, max_value=20.0),
    sigma_sq=st.floats(min_value=1e-4, max_value=50.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_log_posterior_finite_for_positive_variances(scale, sigma_sq, seed):
    rng = np.random.default_rng(seed)
    theta = rng.normal(0.0, scale, size=4)
    state = state_of(
        theta,
        sigma_sq=sigma_sq,
        gamma=(None, rng.normal(size=2), rng.normal(size=2)),
    )
    rep = log_posterior(state, _WIDE_PANEL, _WIDE_SPEC)
    assert math.isfinite(rep.log_post)


def test_log_posterior_mismatched_panel_rejected(demo_panel):
    spec = anchor_spec()
    state = state_of(np.zeros(11))
    with pytest.raises(ValueError):
        log_posterior(state, demo_panel, spec)  # 1 bias spec vs 3 surveys


def test_log_posterior_theta_length_must_match_panel(demo_panel, demo_spec):
    state = state_of(np.zeros(7), gamma=(None, np.zeros(2), np.zeros(2)))
    with pytest.raises(ValueError):
        log_posterior(state, demo_panel, demo_spec)


# ---------------------------------------------------------------------------
# the sampler's compiled coefficient columns against the designs and the oracle


def _fold(offset, terms, gamma):
    """A row's log odds as the sampler's coefficient block computes them."""
    g = offset
    for i, c in terms:
        g = g + c * gamma[i]
    return g


@given(
    kinds=st.lists(
        st.sampled_from(["known", "known-fixed", "constant", "linear", "walk"]),
        min_size=1, max_size=3,
    ),
    n_times=st.integers(min_value=1, max_value=6),
    centre=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_coefficient_columns_match_designs_and_prior_blocks(kinds, n_times, centre, seed):
    rng = np.random.default_rng(seed)
    T = n_times
    bias = [BiasModelSpec.anchor()]
    for kind in kinds:
        if kind == "known-fixed":
            bias.append(BiasModelSpec(kind="known", fixed_phi=tuple(rng.uniform(0.5, 2.0, T))))
        else:
            bias.append(BiasModelSpec(kind=kind))
    spec = ModelSpec(
        bias=tuple(bias),
        center_time=centre,
        priors=PriorSpec(gamma0_var=rng.uniform(0.3, 2.0), gamma1_var=rng.uniform(0.05, 0.5)),
    )
    K = len(bias)
    n = rng.integers(20, 200, size=(K, T)).astype(float)
    y = np.floor(n * rng.uniform(0.1, 0.9, size=(K, T)))
    gaps = rng.random((K, T)) < 0.3
    y[gaps] = np.nan
    n[gaps] = np.nan
    panel = panel_of(y, n)
    designs = bias_designs(spec, T)
    columns = coefficient_columns(designs, panel)
    assert [(c.k, c.j) for c in columns] == [
        (k, j) for k, d in enumerate(designs) for j in range(len(d.var))
    ]

    gamma = [rng.normal(size=len(d.var)).tolist() for d in designs]
    pi_sq = float(rng.uniform(0.05, 2.0)) if spec.has_bias_walk else None
    theta = rng.normal(size=T + 1)

    def prior_blocks(gam):
        state = state_of(theta, gamma=[g or None for g in gam], pi_sq=pi_sq)
        return log_posterior(state, panel, spec).per_block

    before = prior_blocks(gamma)
    for col in columns:
        d, g = designs[col.k], gamma[col.k]
        assert [row[0] for row in col.rows] == [
            t for t in range(1, T + 1)
            if not gaps[col.k, t - 1] and any(i == col.j for i, _ in d.terms[t])
        ]
        assert col.var == d.var[col.j]
        prop = g[col.j] + float(rng.normal())
        moved = list(g)
        moved[col.j] = prop
        for t, yv, nv, offset, terms in col.rows:
            assert (yv, nv) == (panel.y[col.k, t - 1], panel.n[col.k, t - 1])
            if terms is None:  # the row's log odds are gamma[j] itself
                assert d.own(t) == col.j
                value = prop
            else:
                assert (offset, terms) == (d.offset[t], d.terms[t])
                value = _fold(offset, terms, moved)
            assert value == d.log_phi(moved, t)

        cur = g[col.j]
        if col.var is not None:
            delta = (cur * cur - prop * prop) / (2.0 * col.var)
        else:
            prev = g[col.j - 1]
            delta = ((cur - prev) ** 2 - (prop - prev) ** 2) / (2.0 * pi_sq)
        if col.j + 1 < len(d.var) and d.var[col.j + 1] is None:  # gamma[j + 1] steps from it
            nxt = g[col.j + 1]
            delta += ((nxt - cur) ** 2 - (nxt - prop) ** 2) / (2.0 * pi_sq)
        after = prior_blocks([moved if k == col.k else gk for k, gk in enumerate(gamma)])
        key = f"gamma[{col.k}]"
        assert delta == pytest.approx(after[key] - before[key], rel=1e-12, abs=1e-12)
        for name in ("theta", "sigma_sq", "pi_sq"):
            assert after.get(name) == before.get(name)


@pytest.mark.parametrize(
    "design",
    [
        # a piecewise walk: one step per two time-points
        BiasDesign((0.0,) * 5, tuple(((t // 2, 1.0),) for t in range(5)), (1.0, None, None)),
        # a walk whose first coefficient is itself a step
        BiasDesign((0.0,) * 5, tuple(((t, 1.0),) for t in range(5)), (None,) * 5),
        # a walk shifted by an offset
        BiasDesign((0.5,) * 5, tuple(((t, 1.0),) for t in range(5)), (1.0,) + (None,) * 4),
    ],
)
def test_coefficient_columns_reject_walks_the_ridge_move_cannot_shift(design):
    panel = panel_of(np.full((2, 4), 10.0), np.full((2, 4), 50.0))
    anchor = BiasDesign((0.0,) * 5, ((),) * 5, ())
    with pytest.raises(ValueError, match="survey 1 has walk steps"):
        coefficient_columns((anchor, design), panel)
