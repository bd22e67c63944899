import datetime
import hashlib
import math

import numpy as np
import pytest
from scipy import special, stats

from surveysynth import likelihood
from surveysynth.core import (
    BiasModelSpec,
    LatentState,
    PriorSpec,
    validate_panel,
    validate_state,
)
from surveysynth.datagen import (
    GenDesign,
    demo_panel,
    draw_parameters,
    generate_panel,
    vaccine_shaped_bundle,
)
from surveysynth.dists import inv_logit, logit
from surveysynth.simstudy import TRUTH_KINDS, rep_dataset


def design_of(kinds, T=3, n=50, population=1000, **kw):
    plan = np.full((len(kinds), T), float(n))
    bias = tuple(
        BiasModelSpec.anchor() if k == "known" else BiasModelSpec(kind=k) for k in kinds
    )
    return GenDesign(n_plan=plan, population=population, bias=bias, **kw)


# ---------------------------------------------------------------------------
# design


def test_design_validation():
    with pytest.raises(ValueError):
        design_of(["known"], population=10, n=50)  # plan beyond population
    with pytest.raises(ValueError):
        design_of(["known"], prior_regime="vague")
    with pytest.raises(ValueError):
        design_of(["constant"])  # nothing pins the rate
    with pytest.raises(ValueError):
        GenDesign(
            n_plan=np.full((2, 3), 50.0),
            population=1000,
            bias=(BiasModelSpec.anchor(),),
        )
    with pytest.raises(ValueError):
        GenDesign(
            n_plan=np.array([50.0, 50.0]),
            population=1000,
            bias=(BiasModelSpec.anchor(),),
        )
    with pytest.raises(ValueError):
        design_of(["known"], n=-3)
    with pytest.raises(ValueError, match="population"):
        design_of(["known"], population=1000.5)  # no silent truncation


def test_design_shape_properties():
    d = design_of(["known", "walk"], T=4)
    assert (d.n_surveys, d.n_times) == (2, 4)
    assert d.labels == ("s0", "s1")


def test_design_resolved_priors_by_regime():
    d = design_of(["known"])
    assert d.resolved_priors == PriorSpec()
    narrowed = design_of(["known"], prior_regime="narrowed").resolved_priors
    assert narrowed.theta0_var == 1.0
    assert narrowed.sigma_sq_scale == 0.1
    assert narrowed.gamma1_var == 0.01
    assert narrowed.pi_sq_scale == 0.01
    assert narrowed.gamma0_var == 1.0  # unchanged by the narrowed regime


def test_design_priors_override_wins():
    override = PriorSpec(theta0_mean=-2.0, theta0_var=1.0)
    d = design_of(["known"], prior_regime="narrowed", priors=override)
    assert d.resolved_priors == override


def test_design_model_spec():
    d = design_of(["known", "linear"], monotone_walk=True, center_time=False)
    spec = d.model_spec()
    assert tuple(b.kind for b in spec.bias) == ("known", "linear")
    assert spec.monotone_walk and not spec.center_time
    refit = d.model_spec(fit_bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="walk")))
    assert tuple(b.kind for b in refit.bias) == ("known", "walk")


# ---------------------------------------------------------------------------
# truth draws


def test_draw_parameters_shapes_and_validity():
    d = design_of(["known", "constant", "linear", "walk"], T=4)
    truth = draw_parameters(d, np.random.default_rng(0))
    assert len(truth.theta) == 5
    assert truth.gamma[0] is None
    assert len(truth.gamma[1]) == 1
    assert len(truth.gamma[2]) == 2
    assert len(truth.gamma[3]) == 5
    assert truth.sigma_sq > 0 and truth.pi_sq > 0
    assert validate_state(truth, d.model_spec()) == []


def test_draw_parameters_no_walk_leaves_pi_unset():
    d = design_of(["known", "constant"])
    truth = draw_parameters(d, np.random.default_rng(1))
    assert truth.pi_sq is None


def test_draw_parameters_deterministic():
    d = design_of(["known", "walk"], T=3)
    a = draw_parameters(d, np.random.default_rng(42))
    b = draw_parameters(d, np.random.default_rng(42))
    c = draw_parameters(d, np.random.default_rng(43))
    assert a == b
    assert a != c


def test_draw_parameters_monotone_truth():
    d = design_of(["known"], T=12, monotone_walk=True)
    truth = draw_parameters(d, np.random.default_rng(5))
    assert np.all(np.diff(truth.theta) >= 0.0)


def test_draw_parameters_narrowed_start_rate_quantiles():
    # narrowed regime: starting rate is inv_logit of a standard normal
    d = design_of(["known"], T=1, prior_regime="narrowed")
    rng = np.random.default_rng(9)
    rates = np.array(
        [inv_logit(draw_parameters(d, rng).theta[0]) for _ in range(30_000)]
    )
    for q in (0.1, 0.5, 0.9):
        expect = inv_logit(special.ndtri(q))
        assert np.quantile(rates, q) == pytest.approx(expect, abs=0.01)


def test_draw_parameters_default_start_rate_quantile():
    d = design_of(["known"], T=1)
    rng = np.random.default_rng(10)
    rates = np.array(
        [inv_logit(draw_parameters(d, rng).theta[0]) for _ in range(30_000)]
    )
    expect = inv_logit(math.sqrt(2.0) * special.ndtri(0.9))
    assert np.quantile(rates, 0.9) == pytest.approx(expect, abs=0.01)


def test_draw_parameters_increments_centered():
    d = design_of(["known"], T=2)
    rng = np.random.default_rng(11)
    incs = [
        (lambda th: th[1] - th[0])(draw_parameters(d, rng).theta) for _ in range(4000)
    ]
    assert abs(float(np.mean(incs))) < 0.06


# ---------------------------------------------------------------------------
# panel generation


def test_generate_panel_shapes_missingness_and_validity():
    plan = np.array(
        [
            [100.0, np.nan, 100.0, 0.0],
            [400.0, 400.0, np.nan, 400.0],
        ]
    )
    d = GenDesign(
        n_plan=plan,
        population=5000,
        bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="constant")),
    )
    truth = draw_parameters(d, np.random.default_rng(3))
    panel, positives = generate_panel(truth, d, np.random.default_rng(4))
    assert panel.y.shape == (2, 4)
    assert panel.observed.tolist() == [
        [True, False, True, False],
        [True, True, False, True],
    ]
    assert validate_panel(panel) == []
    assert positives.shape == (4,)
    assert np.issubdtype(positives.dtype, np.integer)
    assert np.all((positives >= 0) & (positives <= 5000))


def test_generate_panel_deterministic():
    d = design_of(["known", "walk"], T=3, n=80, population=2000)
    truth = draw_parameters(d, np.random.default_rng(6))
    a, pa = generate_panel(truth, d, np.random.default_rng(7))
    b, pb = generate_panel(truth, d, np.random.default_rng(7))
    assert a == b
    np.testing.assert_array_equal(pa, pb)


def test_generate_panel_rejects_mismatched_truth():
    d = design_of(["known", "constant"], T=3)
    other = design_of(["known", "walk"], T=3)
    truth = draw_parameters(other, np.random.default_rng(8))
    with pytest.raises(ValueError):
        generate_panel(truth, d, np.random.default_rng(9))


def flat_truth(theta_value, gammas, T):
    return LatentState(
        theta=np.full(T + 1, theta_value),
        sigma_sq=0.05,
        gamma=tuple(None if g is None else np.asarray(g, float) for g in gammas),
        pi_sq=None,
    )


def test_generate_unbiased_cells_match_rate():
    d = design_of(["known"], T=1, n=50, population=500)
    truth = flat_truth(logit(0.3), (None,), T=1)
    rng = np.random.default_rng(12)
    means = [float(generate_panel(truth, d, rng)[0].y[0, 0]) / 50.0 for _ in range(2000)]
    assert float(np.mean(means)) == pytest.approx(0.3, abs=0.01)


def test_generate_unbiased_marginal_is_binomial():
    # splitting the population binomially and then sampling it without
    # replacement is marginally Binomial(n, rate): chi-square at the 1% level
    n, p, reps = 12, 0.35, 8000
    d = design_of(["known"], T=1, n=n, population=40)
    truth = flat_truth(logit(p), (None,), T=1)
    rng = np.random.default_rng(13)
    draws = np.array(
        [int(generate_panel(truth, d, rng)[0].y[0, 0]) for _ in range(reps)]
    )
    counts = np.bincount(draws, minlength=n + 1).astype(float)
    expected = stats.binom.pmf(np.arange(n + 1), n, p) * reps
    while expected[-1] < 5.0:  # merge sparse upper tail
        expected[-2] += expected[-1]
        counts[-2] += counts[-1]
        expected, counts = expected[:-1], counts[:-1]
    result = stats.chisquare(counts, expected)
    assert result.pvalue > 0.01


def test_generate_biased_cells_shift_toward_odds():
    # with constant log-odds bias 1.0 the sampled fraction concentrates near
    # the tilted success probability, not the population rate
    tilted = 0.3 * math.e / (0.7 + 0.3 * math.e)
    d = design_of(["known", "constant"], T=1, n=100, population=100_000)
    truth = flat_truth(logit(0.3), (None, [1.0]), T=1)
    rng = np.random.default_rng(14)
    means = [
        float(generate_panel(truth, d, rng)[0].y[1, 0]) / 100.0 for _ in range(2000)
    ]
    assert float(np.mean(means)) == pytest.approx(tilted, abs=0.01)


def test_generate_extreme_odds_saturate():
    d = GenDesign(
        n_plan=np.full((1, 1), 10.0),
        population=100,
        bias=(BiasModelSpec(kind="known", fixed_phi=(1e6,)),),
    )
    truth = flat_truth(logit(0.9), (None,), T=1)
    rng = np.random.default_rng(15)
    for _ in range(200):
        panel, _ = generate_panel(truth, d, rng)
        assert panel.y[0, 0] == 10.0


def test_generate_constant_bias_is_constant_over_time():
    d = design_of(["known", "constant"], T=5)
    truth = draw_parameters(d, np.random.default_rng(16))
    spec = d.model_spec()
    phis = [likelihood.phi_value(spec, truth, 1, t) for t in range(1, 6)]
    assert all(v == phis[0] for v in phis)


# ---------------------------------------------------------------------------
# bundled panels


def test_demo_panel_matches_published_counts():
    panel = demo_panel()
    assert panel.y.shape == (3, 10)
    assert panel.population == 10_000
    assert panel.labels == ("survey1", "survey2", "survey3")
    assert panel.y[0, 0] == 9.0 and panel.n[0, 0] == 100.0
    assert panel.y[1, 5] == 2.0 and panel.n[1, 5] == 1000.0
    assert panel.y[2, 9] == 441.0 and panel.n[2, 9] == 1000.0
    assert panel.observed.all()
    assert validate_panel(panel) == []


def test_vaccine_shaped_bundle_structure():
    b = vaccine_shaped_bundle()
    panel = b.panel
    assert panel.y.shape == (3, 48)
    assert validate_panel(panel) == []
    obs = panel.observed
    assert obs[1].all()  # the weekly survey defines the grid
    assert not obs[0, 1] and not obs[0, 5]  # anchor gaps early on
    assert 20 <= obs[0].sum() <= 30
    assert 20 <= obs[2].sum() <= 28
    assert b.design.monotone_walk
    assert np.all(np.diff(b.truth.theta) >= 0.0)


def test_vaccine_shaped_bundle_rates_and_benchmark():
    b = vaccine_shaped_bundle()
    assert b.rates.shape == (48,)
    assert np.all((b.rates > 0.0) & (b.rates < 1.0))
    assert b.rates[0] < 0.3 < 0.5 < b.rates[-1]  # uptake-like rise
    assert np.isnan(b.benchmark_rates[-2:]).all()
    np.testing.assert_allclose(b.benchmark_rates[:-2], b.rates[:-2])
    assert b.benchmark_margin == 0.05
    assert b.pop_positive.shape == (48,)
    assert np.all((b.pop_positive >= 0) & (b.pop_positive <= b.panel.population))


def test_vaccine_shaped_bundle_dates_weekly_and_deterministic():
    b = vaccine_shaped_bundle()
    assert len(b.dates) == 48
    gaps = {
        (later - earlier).days for earlier, later in zip(b.dates, b.dates[1:])
    }
    assert gaps == {7}
    assert isinstance(b.dates[0], datetime.date)
    again = vaccine_shaped_bundle()
    assert again.panel == b.panel
    np.testing.assert_array_equal(again.truth.theta, b.truth.theta)


def _panel_digest(panel) -> str:
    h = hashlib.sha256()
    for a in (panel.y, panel.n):
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


# Digests of generated panels as the full-support inverse-CDF sampler drew
# them (numpy 2.4). The windowed sampler must reproduce them bit for bit:
# the bundled panel and the study grid's datasets are fixed inputs.
_PINNED_REP_DIGESTS = {
    (0, "constant"): "ab8d823f972a9a54",
    (0, "linear"): "1775ac84f00474e6",
    (0, "walk"): "a7b3491bb6348c0e",
    (1, "constant"): "c11cf1420c3aa4f9",
    (1, "linear"): "c88f0ddeb3b181b4",
    (1, "walk"): "b73444d1d41e0653",
    (2, "constant"): "03b106101ddb6fce",
    (2, "linear"): "3b0079fb72fb5d62",
    (2, "walk"): "4c7d5780102027f5",
    (20240, "constant"): "60147382d85341a5",
    (20240, "linear"): "dede995de2c8987e",
    (20240, "walk"): "84f1eb74d1000272",
}


def test_generated_panels_match_pinned_digests():
    assert _panel_digest(vaccine_shaped_bundle().panel) == "e486e5f2b0e17c63"
    assert {kind for _, kind in _PINNED_REP_DIGESTS} == set(TRUTH_KINDS)
    for (seed, kind), digest in _PINNED_REP_DIGESTS.items():
        _, panel = rep_dataset(seed, kind, 5, 0)
        assert _panel_digest(panel) == digest, (seed, kind)
