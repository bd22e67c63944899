"""Synthetic truth and survey-panel generation.

Truths are drawn from the model priors (optionally the narrowed regime used
for simulation studies); panels are then generated by drawing the number of
positives in the population binomially at each time-point and sampling each
survey cell from the exact non-central hypergeometric — generation never
uses the binomial approximation, whatever the fit will do.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    BiasModelSpec,
    LatentState,
    ModelSpec,
    PriorSpec,
    SurveyPanel,
    _frozen_array,
    bias_designs,
    check_count,
    check_labels,
    validate_state,
)
from .dists import NchgParams, inv_logit, nchg_sample, truncnorm_sample

PRIOR_REGIMES = ("default", "narrowed")


@dataclass(frozen=True)
class GenDesign:
    """Plan for one synthetic panel.

    n_plan is a (K, T) array of intended sample sizes; NaN or 0 marks cells
    a survey skips. ``priors`` overrides the regime lookup when given, which
    lets bundled datasets tune generation scales without touching the
    regimes fits use.
    """

    n_plan: np.ndarray
    population: int
    bias: tuple[BiasModelSpec, ...]
    prior_regime: str = "default"
    priors: PriorSpec | None = None
    monotone_walk: bool = False
    center_time: bool = True
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        plan = _frozen_array(self.n_plan)
        if plan.ndim != 2:
            raise ValueError(f"n_plan must be 2-d (surveys, time-points), got shape {plan.shape}")
        K, T = plan.shape
        if K < 1 or T < 1:
            raise ValueError(f"n_plan needs at least one survey and time-point, got {plan.shape}")
        check_count("population", self.population, 1)
        population = int(self.population)
        filled = plan[~np.isnan(plan)]
        if np.any(filled != np.floor(filled)) or np.any(filled < 0):
            raise ValueError("planned sample sizes must be non-negative integers")
        if np.any(filled > population):
            raise ValueError(
                f"planned sample sizes exceed the population of {population}"
            )
        bias = tuple(self.bias)
        if len(bias) != K:
            raise ValueError(f"{len(bias)} bias models for {K} surveys")
        ModelSpec(bias=bias)  # needs a known (unbiased) survey, like any model
        if self.prior_regime not in PRIOR_REGIMES:
            raise ValueError(
                f"unknown prior regime {self.prior_regime!r}, expected one of {PRIOR_REGIMES}"
            )
        labels = self.labels
        if labels is None:
            labels = tuple(f"s{k}" for k in range(K))
        else:
            labels = check_labels(labels, K)
        object.__setattr__(self, "n_plan", plan)
        object.__setattr__(self, "population", population)
        object.__setattr__(self, "bias", bias)
        object.__setattr__(self, "labels", labels)

    @property
    def n_surveys(self) -> int:
        return self.n_plan.shape[0]

    @property
    def n_times(self) -> int:
        return self.n_plan.shape[1]

    @property
    def resolved_priors(self) -> PriorSpec:
        if self.priors is not None:
            return self.priors
        return PriorSpec.narrowed() if self.prior_regime == "narrowed" else PriorSpec()

    def model_spec(
        self,
        fit_bias: tuple[BiasModelSpec, ...] | None = None,
        use_exact_nchg: bool = False,
    ) -> ModelSpec:
        """Model matching this design; pass fit_bias to mis-specify on purpose."""
        return ModelSpec(
            bias=self.bias if fit_bias is None else tuple(fit_bias),
            priors=self.resolved_priors,
            monotone_walk=self.monotone_walk,
            center_time=self.center_time,
            use_exact_nchg=use_exact_nchg,
        )


def draw_parameters(design: GenDesign, rng: np.random.Generator) -> LatentState:
    """Draw a complete truth state from the design's priors.

    Draw order (jump variances, latent walk, bias coefficients) is fixed, so
    one seeded generator reproduces the same truth.
    """
    spec = design.model_spec()
    pr = spec.priors
    T = design.n_times
    sigma_sq = abs(math.sqrt(pr.sigma_sq_scale) * rng.standard_normal())
    pi_sq = None
    if spec.has_bias_walk:
        pi_sq = abs(math.sqrt(pr.pi_sq_scale) * rng.standard_normal())
    theta = np.empty(T + 1)
    theta[0] = pr.theta0_mean + math.sqrt(pr.theta0_var) * rng.standard_normal()
    sigma = math.sqrt(sigma_sq)
    for t in range(1, T + 1):
        if design.monotone_walk:
            theta[t] = truncnorm_sample(
                mean=theta[t - 1], var=sigma_sq, lower=theta[t - 1], rng=rng
            )
        else:
            theta[t] = theta[t - 1] + sigma * rng.standard_normal()
    gamma: list[np.ndarray | None] = []
    for d in bias_designs(spec, T):
        g = np.empty(len(d.var))
        for j, var in enumerate(d.var):
            if var is None:  # walk step
                g[j] = g[j - 1] + math.sqrt(pi_sq) * rng.standard_normal()
            else:
                g[j] = math.sqrt(var) * rng.standard_normal()
        gamma.append(g if d.var else None)
    return LatentState(theta=theta, sigma_sq=sigma_sq, gamma=tuple(gamma), pi_sq=pi_sq)


def generate_panel(
    truth: LatentState, design: GenDesign, rng: np.random.Generator
) -> tuple[SurveyPanel, np.ndarray]:
    """Generate one panel plus the drawn per-time population positive counts.

    Positives are drawn binomially for every time-point (whether or not any
    survey ran), then observed cells are filled survey-by-survey from the
    exact non-central hypergeometric.
    """
    spec = design.model_spec()
    problems = validate_state(truth, spec)
    if len(truth.theta) != design.n_times + 1:
        problems.insert(
            0,
            f"truth has {len(truth.theta)} latent points for {design.n_times} time-points",
        )
    if problems:
        raise ValueError("truth does not match design: " + "; ".join(problems))

    T, K = design.n_times, design.n_surveys
    designs = bias_designs(spec, T)
    N = design.population
    positives = np.empty(T, dtype=np.int64)
    for t in range(1, T + 1):
        positives[t - 1] = rng.binomial(N, inv_logit(float(truth.theta[t])))

    plan = design.n_plan
    y = np.full((K, T), np.nan)
    n = np.full((K, T), np.nan)
    for k in range(K):
        for t in range(1, T + 1):
            size = plan[k, t - 1]
            if np.isnan(size) or size == 0.0:
                continue
            m1 = int(positives[t - 1])
            params = NchgParams(
                m1=m1,
                m2=N - m1,
                n=int(size),
                phi=math.exp(designs[k].log_phi(truth.gamma[k], t)),
            )
            y[k, t - 1] = float(nchg_sample(params, rng))
            n[k, t - 1] = size
    panel = SurveyPanel(y=y, n=n, population=N, labels=design.labels)
    return panel, positives


# ---------------------------------------------------------------------------
# bundled datasets

_DEMO_Y = (
    (9, 18, 4, 14, 20, 3, 8, 3, 6, 12),
    (66, 48, 7, 19, 30, 2, 10, 2, 2, 6),
    (207, 293, 102, 208, 345, 117, 185, 145, 174, 441),
)
_DEMO_N = ((100,) * 10, (1000,) * 10, (1000,) * 10)


def demo_panel() -> SurveyPanel:
    """Three-survey, ten-point demonstration panel (one unbiased survey)."""
    return SurveyPanel(
        y=np.array(_DEMO_Y, dtype=float),
        n=np.array(_DEMO_N, dtype=float),
        population=10_000,
        labels=("survey1", "survey2", "survey3"),
    )


@dataclass(frozen=True)
class VaccineShapedBundle:
    """Synthetic stand-in for an uptake-tracking multi-survey dataset.

    Three surveys over 48 weekly time-points: a small unbiased poll with
    early gaps, a large weekly online survey defining the grid, and a
    biweekly mid-sized panel; both big surveys carry a bias random walk.
    The benchmark series is the truth rate with the last two points
    withheld, mimicking a reporting lag.
    """

    panel: SurveyPanel
    design: GenDesign
    truth: LatentState
    pop_positive: np.ndarray
    rates: np.ndarray
    dates: tuple[datetime.date, ...]
    benchmark_rates: np.ndarray
    benchmark_margin: float


_VACCINE_T = 48
_VACCINE_TRUTH_SEED = 20210121  # chosen for an uptake-like rise (~0.13 to ~0.69)
_VACCINE_PANEL_SEED = 48620


def _vaccine_plan() -> np.ndarray:
    plan = np.full((3, _VACCINE_T), np.nan)
    anchor_times = {1, 3, 4, 5, 7, 48} | set(range(9, 48, 2))
    for t in anchor_times:
        plan[0, t - 1] = 1000.0
    plan[1, :] = 100_000.0
    for t in range(2, _VACCINE_T + 1, 2):
        plan[2, t - 1] = 40_000.0
    return plan


@lru_cache(maxsize=1)
def vaccine_shaped_bundle() -> VaccineShapedBundle:
    design = GenDesign(
        n_plan=_vaccine_plan(),
        population=10_000_000,
        bias=(
            BiasModelSpec.anchor(),
            BiasModelSpec.random_walk(),
            BiasModelSpec.random_walk(),
        ),
        priors=PriorSpec(
            theta0_mean=-2.0,
            theta0_var=1.0,
            sigma_sq_scale=3e-4,  # gentle drift so 48 steps stay inside (0, 1)
            pi_sq_scale=0.01,
        ),
        monotone_walk=True,
        labels=("anchor", "weekly-online", "biweekly-panel"),
    )
    truth = draw_parameters(design, np.random.default_rng(_VACCINE_TRUTH_SEED))
    panel, positives = generate_panel(
        truth, design, np.random.default_rng(_VACCINE_PANEL_SEED)
    )
    rates = inv_logit(np.asarray(truth.theta[1:]))
    benchmark = rates.copy()
    benchmark[-2:] = np.nan
    start = datetime.date(2021, 1, 4)
    dates = tuple(start + datetime.timedelta(days=7 * i) for i in range(_VACCINE_T))
    return VaccineShapedBundle(
        panel=panel,
        design=design,
        truth=truth,
        pop_positive=_frozen_array(positives, dtype=np.int64),
        rates=_frozen_array(rates),
        dates=dates,
        benchmark_rates=_frozen_array(benchmark),
        benchmark_margin=0.05,
    )
