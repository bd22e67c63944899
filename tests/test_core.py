import math

import numpy as np
import pytest

from surveysynth.core import (
    BiasModelSpec,
    LatentState,
    ModelSpec,
    PriorSpec,
    SummaryRow,
    SummaryTable,
    SurveyPanel,
    bias_designs,
    compile_model,
    detect_saturated_cells,
    time_covariate,
    validate_panel,
    validate_state,
)


def make_panel(y, n, population=1000, labels=None):
    y = np.asarray(y, dtype=float)
    if labels is None:
        labels = tuple(f"s{i}" for i in range(y.shape[0]))
    return SurveyPanel(y=y, n=np.asarray(n, dtype=float), population=population, labels=labels)


# ---------------------------------------------------------------------------
# SurveyPanel structure


def test_panel_shape_properties(demo_panel):
    assert demo_panel.n_surveys == 3
    assert demo_panel.n_times == 10
    assert demo_panel.observed.all()
    assert demo_panel.labels == ("survey1", "survey2", "survey3")


def test_panel_is_immutable(demo_panel):
    with pytest.raises(AttributeError):
        demo_panel.population = 5
    with pytest.raises(ValueError):
        demo_panel.y[0, 0] = 1.0


def test_panel_structural_errors():
    with pytest.raises(ValueError):
        make_panel([[1, 2]], [[10, 10], [10, 10]])  # shape mismatch
    with pytest.raises(ValueError):
        SurveyPanel(
            y=np.ones((1, 2)), n=np.ones((1, 2)), population=10, labels=("a", "b")
        )  # label count
    with pytest.raises(ValueError):
        make_panel([[1, 2]], [[10, 10]], population=0)
    with pytest.raises(ValueError):
        make_panel([[1, 2]], [[10, 10]], population=-3)
    with pytest.raises(ValueError, match="population"):
        make_panel([[1, 2]], [[10, 10]], population=1000.5)  # no silent truncation
    assert make_panel([[1, 2]], [[10, 10]], population=np.int64(1000)).population == 1000


def test_panel_missingness_mask():
    y = [[1.0, np.nan], [2.0, 3.0]]
    n = [[10.0, np.nan], [10.0, 10.0]]
    panel = make_panel(y, n)
    assert panel.observed.tolist() == [[True, False], [True, True]]
    cells = list(panel.observed_cells())
    assert cells == [(0, 1, 1, 10), (1, 1, 2, 10), (1, 2, 3, 10)]


def test_panel_subset_and_truncation(demo_panel):
    anchor_only = demo_panel.subset_surveys([0])
    assert anchor_only.n_surveys == 1
    assert anchor_only.labels == ("survey1",)
    assert anchor_only.population == demo_panel.population
    np.testing.assert_array_equal(anchor_only.y[0], demo_panel.y[0])

    head = demo_panel.up_to(3)
    assert head.n_times == 3
    np.testing.assert_array_equal(head.y, demo_panel.y[:, :3])
    with pytest.raises(ValueError):
        demo_panel.up_to(0)
    with pytest.raises(ValueError):
        demo_panel.up_to(11)


def test_panel_equality_with_missing_cells():
    y = [[1.0, np.nan]]
    n = [[10.0, np.nan]]
    assert make_panel(y, n) == make_panel(y, n)
    assert make_panel(y, n) != make_panel([[1.0, 2.0]], [[10.0, 10.0]])


# ---------------------------------------------------------------------------
# validate_panel


def test_validate_demo_panel_clean(demo_panel):
    assert validate_panel(demo_panel) == []


def test_validate_reports_y_exceeding_n():
    panel = make_panel([[5.0, 1.0]], [[3.0, 10.0]])
    issues = validate_panel(panel)
    assert len(issues) == 1
    v = issues[0]
    assert v.rule == "y-exceeds-n"
    assert (v.k, v.t) == (0, 1)
    assert "y" in v.message and "n" in v.message


def test_validate_reports_half_missing():
    panel = make_panel([[1.0, np.nan]], [[np.nan, 10.0]])
    rules = {(v.rule, v.k, v.t) for v in validate_panel(panel)}
    assert ("half-missing", 0, 1) in rules
    assert ("half-missing", 0, 2) in rules


def test_validate_reports_count_problems():
    panel = make_panel([[-1.0, 2.5, 3.0]], [[10.0, 10.0, 0.0]])
    rules = {(v.rule, v.t) for v in validate_panel(panel)}
    assert ("negative-y", 1) in rules
    assert ("non-integer-count", 2) in rules
    assert ("nonpositive-n", 3) in rules


def test_validate_reports_non_finite_counts():
    inf = math.inf
    panel = make_panel([[3.0, inf, -inf, 2.0]], [[inf, 10.0, 10.0, 10.0]])
    rules = {(v.rule, v.t) for v in validate_panel(panel)}
    assert rules == {("non-finite-count", 1), ("non-finite-count", 2), ("non-finite-count", 3)}


def test_panel_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="duplicate survey label 'a'"):
        make_panel([[1.0], [2.0]], [[10.0], [10.0]], labels=("a", "a"))


def test_validate_reports_population_too_small():
    panel = make_panel([[5.0]], [[50.0]], population=40)
    rules = {(v.rule, v.k, v.t) for v in validate_panel(panel)}
    assert ("n-exceeds-population", 0, 1) in rules


def test_validate_reports_empty_dimensions():
    panel = SurveyPanel(
        y=np.zeros((0, 4)), n=np.zeros((0, 4)), population=10, labels=()
    )
    assert any(v.rule == "no-surveys" for v in validate_panel(panel))
    panel2 = SurveyPanel(
        y=np.zeros((2, 0)), n=np.zeros((2, 0)), population=10, labels=("a", "b")
    )
    assert any(v.rule == "no-time-points" for v in validate_panel(panel2))


# ---------------------------------------------------------------------------
# BiasModelSpec / PriorSpec / ModelSpec


def test_bias_spec_kinds():
    for kind in ("known", "constant", "linear", "walk"):
        BiasModelSpec(kind=kind)
    with pytest.raises(ValueError):
        BiasModelSpec(kind="quadratic")


def test_bias_spec_fixed_phi_rules():
    spec = BiasModelSpec(kind="known", fixed_phi=(1.0, 2.0, 0.5))
    assert spec.fixed_phi == (1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        BiasModelSpec(kind="linear", fixed_phi=(1.0,))
    with pytest.raises(ValueError):
        BiasModelSpec(kind="known", fixed_phi=(1.0, -2.0))
    with pytest.raises(ValueError):
        BiasModelSpec(kind="known", fixed_phi=(math.inf,))


def test_anchor_constructor():
    anchor = BiasModelSpec.anchor()
    assert anchor.kind == "known"
    assert anchor.fixed_phi is None


def test_prior_spec_defaults():
    priors = PriorSpec()
    assert priors.theta0_mean == 0.0
    assert priors.theta0_var == 2.0
    assert priors.sigma_sq_scale == 1.0
    assert priors.gamma0_var == 1.0
    assert priors.gamma1_var == 0.25
    assert priors.pi_sq_scale == 1.0


def test_prior_spec_narrowed():
    priors = PriorSpec.narrowed()
    assert priors.theta0_mean == 0.0
    assert priors.theta0_var == 1.0
    assert priors.sigma_sq_scale == 0.1
    assert priors.gamma0_var == 1.0
    assert priors.gamma1_var == 0.01
    assert priors.pi_sq_scale == 0.01


def test_prior_spec_positivity():
    with pytest.raises(ValueError):
        PriorSpec(theta0_var=0.0)
    with pytest.raises(ValueError):
        PriorSpec(sigma_sq_scale=-1.0)
    with pytest.raises(ValueError):
        PriorSpec(gamma1_var=0.0)


def test_model_spec_requires_unbiased_survey():
    with pytest.raises(ValueError):
        ModelSpec(bias=(BiasModelSpec(kind="linear"),))
    with pytest.raises(ValueError):
        ModelSpec(bias=())
    ModelSpec(bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="walk")))


def test_model_spec_defaults(demo_spec):
    assert demo_spec.center_time is True
    assert demo_spec.monotone_walk is False
    assert demo_spec.use_exact_nchg is False


# ---------------------------------------------------------------------------
# LatentState


def state_for(spec, T, sigma_sq=0.5, pi_sq=None, theta=None):
    if theta is None:
        theta = np.zeros(T + 1)
    gamma = []
    for b in spec.bias:
        if b.kind == "known":
            gamma.append(None)
        elif b.kind == "constant":
            gamma.append(np.zeros(1))
        elif b.kind == "linear":
            gamma.append(np.zeros(2))
        else:
            gamma.append(np.zeros(T + 1))
    return LatentState(
        theta=np.asarray(theta, dtype=float),
        sigma_sq=sigma_sq,
        gamma=tuple(gamma),
        pi_sq=pi_sq,
    )


def test_validate_state_clean(demo_spec):
    state = state_for(demo_spec, T=10)
    assert validate_state(state, demo_spec) == []


def test_validate_state_variance_positivity(demo_spec):
    state = state_for(demo_spec, T=10, sigma_sq=0.0)
    assert any("sigma" in p for p in validate_state(state, demo_spec))


def test_validate_state_monotone():
    spec = ModelSpec(bias=(BiasModelSpec.anchor(),), monotone_walk=True)
    good = state_for(spec, T=3, theta=[0.0, 0.0, 0.5, 1.0])
    assert validate_state(good, spec) == []
    bad = state_for(spec, T=3, theta=[0.0, 0.5, 0.4, 1.0])
    assert any("monotone" in p for p in validate_state(bad, spec))


def test_validate_state_gamma_shapes():
    spec = ModelSpec(bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="walk")))
    state = LatentState(
        theta=np.zeros(4),
        sigma_sq=1.0,
        gamma=(None, np.zeros(2)),  # walk needs T+1 values
        pi_sq=0.5,
    )
    assert any("gamma" in p for p in validate_state(state, spec))


def test_validate_state_reports_short_fixed_phi():
    spec = ModelSpec(bias=(BiasModelSpec(kind="known", fixed_phi=(1.0, 2.0)),))
    state = state_for(spec, T=3)
    assert any("fixes 2 phi values for 3" in p for p in validate_state(state, spec))


def test_validate_state_walk_needs_pi_sq():
    spec = ModelSpec(bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="walk")))
    state = state_for(spec, T=3, pi_sq=None)
    assert any("pi_sq" in p for p in validate_state(state, spec))
    state_ok = state_for(spec, T=3, pi_sq=0.2)
    assert validate_state(state_ok, spec) == []


def test_validate_state_survey_count_mismatch(demo_spec):
    state = LatentState(theta=np.zeros(11), sigma_sq=1.0, gamma=(None,), pi_sq=None)
    assert any("survey" in p for p in validate_state(state, demo_spec))


# ---------------------------------------------------------------------------
# saturation detection


def test_saturated_cells_flagged():
    y = [[0.0, 5.0, 10.0], [0.0, 5.0, 10.0]]
    n = [[10.0, 10.0, 10.0], [10.0, 10.0, 10.0]]
    panel = make_panel(y, n)
    spec = ModelSpec(bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="constant")))
    flagged = detect_saturated_cells(panel, spec)
    # unbiased survey rows never flag; biased row flags y=0 and y=n
    assert flagged == [(1, 1), (1, 3)]


def test_saturated_cells_skip_missing():
    y = [[1.0, 2.0], [np.nan, 10.0]]
    n = [[10.0, 10.0], [np.nan, 10.0]]
    panel = make_panel(y, n)
    spec = ModelSpec(bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="walk")))
    assert detect_saturated_cells(panel, spec) == [(1, 2)]


def test_saturated_cells_clean_panel(demo_panel, demo_spec):
    assert detect_saturated_cells(demo_panel, demo_spec) == []


# ---------------------------------------------------------------------------
# summary table


def test_summary_table_lookup():
    rows = [
        SummaryRow(name="rate", survey=None, t=0, median=0.5, lower=0.4, upper=0.6),
        SummaryRow(name="rate", survey=None, t=1, median=0.55, lower=0.45, upper=0.65),
        SummaryRow(name="phi", survey=1, t=1, median=1.2, lower=0.8, upper=1.9),
        SummaryRow(name="sigma_sq", survey=None, t=None, median=0.1, lower=0.05, upper=0.3),
    ]
    table = SummaryTable(alpha=0.05, rows=rows)
    ts, med, lo, hi = table.rate_series()
    assert ts.tolist() == [0, 1]
    assert med.tolist() == [0.5, 0.55]
    assert table.row("sigma_sq").median == 0.1
    assert table.row("phi", survey=1, t=1).upper == 1.9
    with pytest.raises(KeyError):
        table.row("pi_sq")


def test_summary_row_ordering_invariant():
    with pytest.raises(ValueError):
        SummaryRow(name="rate", survey=None, t=0, median=0.5, lower=0.6, upper=0.4)


# ---------------------------------------------------------------------------
# compiled bias designs


def _all_kinds_spec(**kw):
    return ModelSpec(
        bias=(
            BiasModelSpec(kind="known", fixed_phi=(2.0, 0.5, 4.0)),
            BiasModelSpec(kind="constant"),
            BiasModelSpec(kind="linear"),
            BiasModelSpec.random_walk(),
        ),
        priors=PriorSpec(gamma0_var=0.7, gamma1_var=0.3),
        **kw,
    )


def test_time_covariate_centred_and_raw():
    spec = _all_kinds_spec()
    assert time_covariate(spec, 4) == [-2.0, -1.0, 0.0, 1.0, 2.0]
    raw = _all_kinds_spec(center_time=False)
    assert time_covariate(raw, 4) == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_bias_designs_rows_and_priors():
    T = 3
    known, const, lin, walk = bias_designs(_all_kinds_spec(), T)
    assert known.var == () and known.terms[2] == ()
    assert known.offset[1:] == (math.log(2.0), math.log(0.5), math.log(4.0))
    assert const.var == (0.7,) and const.terms[3] == ((0, 1.0),)
    assert lin.var == (0.7, 0.3) and lin.terms[1] == ((0, 1.0), (1, 1 - T / 2.0))
    assert walk.var == (0.7, None, None, None) and walk.terms[2] == ((2, 1.0),)
    assert all(v == 0.0 for d in (const, lin, walk) for v in d.offset)


def test_design_log_phi_on_vectors_and_draw_stacks():
    T = 3
    designs = bias_designs(_all_kinds_spec(center_time=False), T)
    rng = np.random.default_rng(0)
    for d in designs[1:]:  # a known bias has no coefficients to stack
        draws = rng.standard_normal((2, 5, len(d.var)))  # chains, kept, coefficients
        stacked = np.moveaxis(draws, -1, 0)
        for t in range(1, T + 1):
            series = d.log_phi(stacked, t)
            for c in range(2):
                for i in range(5):
                    assert series[c, i] == d.log_phi(draws[c, i], t)
    const, lin = designs[1], designs[2]
    assert const.log_phi([0.4], 2) == 0.4
    assert lin.log_phi([0.4, 0.1], 3) == 0.4 + 0.1 * 3.0
    assert designs[3].log_phi([0.0, 0.2, -0.3, 0.9], 2) == -0.3
    assert designs[0].log_phi(None, 3) == math.log(4.0)


def test_compile_model_rejects_every_shape_mismatch():
    spec = _all_kinds_spec()
    panel = make_panel(np.ones((4, 3)), np.full((4, 3), 10.0))
    good = state_for(spec, T=3, pi_sq=0.1)
    assert len(compile_model(spec, state=good, panel=panel)) == 4
    assert compile_model(spec, panel=panel) == compile_model(spec, state=good)
    with pytest.raises(ValueError, match="spec covers 4 surveys but panel has 2"):
        compile_model(spec, panel=make_panel(np.ones((2, 3)), np.full((2, 3), 10.0)))
    with pytest.raises(ValueError, match="state covers 2 time-points but panel has 3"):
        compile_model(spec, state=state_for(spec, T=2, pi_sq=0.1), panel=panel)
    with pytest.raises(ValueError, match="fixes 3 phi values for 4"):
        compile_model(spec, state=state_for(spec, T=4, pi_sq=0.1))
    short = LatentState(theta=np.zeros(4), sigma_sq=1.0, gamma=good.gamma[:3], pi_sq=0.1)
    with pytest.raises(ValueError, match="3 gamma blocks for 4 surveys"):
        compile_model(spec, state=short)
    bad_walk = LatentState(
        theta=np.zeros(4), sigma_sq=1.0, gamma=good.gamma[:3] + (np.zeros(3),), pi_sq=0.1
    )
    with pytest.raises(ValueError, match="survey 3 .* carries 3 gamma values, expected 4"):
        compile_model(spec, state=bad_walk)
