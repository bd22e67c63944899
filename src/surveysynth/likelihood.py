"""Reference log-density evaluation: priors, observation likelihood, and the
combined posterior with a per-block breakdown.

This module is the oracle: it is written for clarity over speed, and reads
every bias model through the compiled designs of ``core.bias_designs``, the
same designs the sampler, ``summarize`` and the data generator use. The
sampler keeps its own optimized local evaluators, does not import this
module, and is tested against the quantities here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import gammaln

from .core import BiasDesign, LatentState, ModelSpec, SurveyPanel, bias_designs, compile_model
from .dists import MAX_LOG_ODDS, NchgParams, inv_logit, nchg_logpmf, truncnorm_logpdf


def _softplus(x: float) -> float:
    return x if x > 35.0 else math.log1p(math.exp(x))


def log_phi(spec: ModelSpec, state: LatentState, k: int, t: int) -> float:
    """Log of the bias odds for survey k at time-point t (1-based)."""
    T = state.n_times
    if not 1 <= t <= T:
        raise ValueError(f"time-point must lie in 1..{T}, got {t}")
    return float(bias_designs(spec, T)[k].log_phi(state.gamma[k], t))


def phi_value(spec: ModelSpec, state: LatentState, k: int, t: int) -> float:
    """Bias odds multiplier for survey k at time-point t."""
    return math.exp(log_phi(spec, state, k, t))


def _prior_blocks(
    state: LatentState, spec: ModelSpec, designs: tuple[BiasDesign, ...]
) -> list[tuple[str, float]]:
    pr = spec.priors
    T = state.n_times
    theta = state.theta
    sig_ok = state.sigma_sq > 0.0 and math.isfinite(state.sigma_sq)

    v = truncnorm_logpdf(float(theta[0]), pr.theta0_mean, pr.theta0_var)
    for t in range(1, T + 1):
        if not sig_ok:
            v = -math.inf
            break
        prev = float(theta[t - 1])
        if spec.monotone_walk:
            if theta[t] < prev:
                v = -math.inf
                break
            v += truncnorm_logpdf(float(theta[t]), prev, state.sigma_sq, lower=prev)
        else:
            v += truncnorm_logpdf(float(theta[t]), prev, state.sigma_sq)
    blocks = [("theta", v)]

    blocks.append(
        (
            "sigma_sq",
            truncnorm_logpdf(state.sigma_sq, 0.0, pr.sigma_sq_scale, lower=0.0)
            if sig_ok
            else -math.inf,
        )
    )

    pi_ok = (
        state.pi_sq is not None
        and state.pi_sq > 0.0
        and math.isfinite(state.pi_sq)
    )
    for k, design in enumerate(designs):
        if not design.var:
            continue
        g = state.gamma[k]
        gv = 0.0
        for j, var in enumerate(design.var):
            if var is not None:
                gv += truncnorm_logpdf(float(g[j]), 0.0, var)
            elif state.pi_sq is None:
                raise ValueError(f"survey {k} uses a walk bias but pi_sq is unset")
            elif not pi_ok:
                gv = -math.inf
                break
            else:
                gv += truncnorm_logpdf(float(g[j]), float(g[j - 1]), state.pi_sq)
        blocks.append((f"gamma[{k}]", gv))

    if spec.has_bias_walk:
        blocks.append(
            (
                "pi_sq",
                truncnorm_logpdf(state.pi_sq, 0.0, pr.pi_sq_scale, lower=0.0)
                if pi_ok
                else -math.inf,
            )
        )
    return blocks


def _cell_loglik(
    spec: ModelSpec, population: int, th: float, g: float, y: int, n: int
) -> float:
    if spec.use_exact_nchg:
        if abs(g) > MAX_LOG_ODDS:
            return -math.inf
        p = inv_logit(th)
        m1 = int(math.floor(p * population + 0.5))
        return float(nchg_logpmf(y, NchgParams(m1, population - m1, n, math.exp(g))))
    # Binomial(n, q) with logit(q) = theta + log phi, kept stable in logs
    x = th + g
    log_c = float(gammaln(n + 1.0) - gammaln(y + 1.0) - gammaln(n - y + 1.0))
    return log_c + y * x - n * _softplus(x)


def _lik_blocks(
    state: LatentState, panel: SurveyPanel, spec: ModelSpec, designs: tuple[BiasDesign, ...]
) -> list[tuple[str, float]]:
    totals = [0.0] * panel.n_surveys
    for k, t, y, n in panel.observed_cells():
        g = float(designs[k].log_phi(state.gamma[k], t))
        totals[k] += _cell_loglik(spec, panel.population, float(state.theta[t]), g, y, n)
    return [(f"lik[{k}]", totals[k]) for k in range(panel.n_surveys)]


def log_prior(state: LatentState, spec: ModelSpec) -> float:
    """Joint log-density of the latent walk, variances, and bias coefficients.

    Returns -inf for states outside the prior's support (non-monotone walk
    when monotonicity is on, or non-positive variances).
    """
    designs = compile_model(spec, state=state)
    return sum(v for _, v in _prior_blocks(state, spec, designs))


def log_likelihood(state: LatentState, panel: SurveyPanel, spec: ModelSpec) -> float:
    """Observation log-density over all present cells."""
    designs = compile_model(spec, state=state, panel=panel)
    return sum(v for _, v in _lik_blocks(state, panel, spec, designs))


@dataclass(frozen=True)
class LogDensityReport:
    """Posterior evaluation with its additive decomposition.

    per_block holds one entry per prior block plus one lik[k] entry per
    survey; the prior entries sum to log_prior, the likelihood entries to
    log_lik, and log_post = log_prior + log_lik with the same additions.
    """

    log_prior: float
    log_lik: float
    log_post: float
    per_block: dict[str, float]


def log_posterior(
    state: LatentState, panel: SurveyPanel, spec: ModelSpec
) -> LogDensityReport:
    designs = compile_model(spec, state=state, panel=panel)
    prior_blocks = _prior_blocks(state, spec, designs)
    lik_blocks = _lik_blocks(state, panel, spec, designs)
    lp = sum(v for _, v in prior_blocks)
    ll = sum(v for _, v in lik_blocks)
    return LogDensityReport(
        log_prior=lp,
        log_lik=ll,
        log_post=lp + ll,
        per_block=dict(prior_blocks + lik_blocks),
    )
