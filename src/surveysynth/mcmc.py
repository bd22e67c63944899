"""Adaptive random-walk Gibbs sampler for the survey-synthesis model.

Every parameter is updated as its own scalar Metropolis block in a fixed
sweep order: theta[0..T], the latent-walk variance, each survey's bias
coefficients, then the bias-walk variance when one exists. When walk-bias
surveys are present the sweep ends with one extra block per time-point that
shifts theta[t] and counter-shifts every bias walk at t by the same amount,
so the move travels along the level-versus-bias ridge that scalar updates
cross only in tiny steps when a large biased survey has no unbiased
companion. Under the logit-shift approximation a cell depends on theta[t]
and the bias only through their sum, so the walk cells at t are invariant
under the shift and the move leaves them out of its acceptance ratio. The
exact kernel reads theta through the rounded positive count and the bias
through the odds separately, so there the walk cells count like any other.
Proposal scales adapt toward a target acceptance rate during burn-in only;
they are snapshotted at the freeze point and again at the end so callers
can check that no post-burn-in adaptation happened.

Every block makes exactly one accept/reject decision per sweep: a theta
block whose monotone neighbours are tied, and a ridge move that would leave
the monotone order, count as rejections. Adaptation relies on this. All
windows therefore close on the same sweep, and the sweep only counts
accepts per block; at the end of each window one pass moves every log scale
by (accepts / window - target) / sqrt(windows closed so far). After burn-in
the same counts give the acceptance rates over n_draws decisions each.

The hot loop works on plain Python floats and evaluates only the terms of
the log posterior a block actually touches. It reads the normal and uniform
streams from buffers inline, refilling each when a draw finds it empty.
Two tables describe the current state at every observed cell: lphi[k][t],
survey k's log bias odds at time t, filled once from the compiled bias
designs (``core.bias_designs``), and ll[k][t], the cell's log-likelihood.
Each block evaluates the cells it touches at the proposal only and takes
the difference against ll; an accepted move writes both tables back. Under
the logit-shift approximation the cell term y*x - n*softplus(x), with
x = theta + log odds, is written out inline at each place a cell is
evaluated; ``cell_ll`` is the exact kernel's call. The theta and ridge
blocks read the odds from lphi whatever the bias kind; only the coefficient
blocks of the constant, linear and walk kinds are written out per kind. The
ll table therefore equals a fresh evaluation bit for bit, and each touched
cell costs one kernel call per block. The likelihood module is kept as the
reference density and is used to vet the starting point.

``split_stats`` scores split-chain R-hat and ESS for a whole stack of
series at once, bit for bit as ``r_hat`` and ``ess`` score one. ``diagnose``
scores every parameter in one call; ``summarize`` adds one call for the
bias-odds rows that are not a coefficient's own series.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import likelihood as _lik
from .core import (
    ChainDraws,
    LatentState,
    ModelSpec,
    SummaryRow,
    SummaryTable,
    SurveyPanel,
    bias_designs,
    compile_model,
    time_covariate,
    validate_panel,
)
from .dists import inv_logit, nchg_logpmf_unchecked

_HALF_NORMAL_MEDIAN = 0.6744897501960817  # Phi^{-1}(3/4)
_INF = math.inf
_RNG_BUF = 4096
_STACK_FLOATS = 1 << 15  # per stacked array in split_stats


class InitializationError(RuntimeError):
    """No finite starting density exists for a chain."""

    def __init__(self, block: str):
        self.block = block
        super().__init__(
            f"starting state has non-finite posterior density in block {block}"
        )


@dataclass(frozen=True)
class SamplerSettings:
    """Chain count, lengths, and adaptation knobs.

    Defaults are sized for a publication-grade run; ``desk()`` is a preset
    that converges on the bundled examples in minutes on a single core.
    """

    n_chains: int = 10
    burn_in: int = 20_000
    n_draws: int = 50_000
    thin: int = 5
    seed: int = 0
    target_accept: float = 0.44
    adapt_window: int = 50

    def __post_init__(self):
        if self.n_chains < 1:
            raise ValueError(f"n_chains must be at least 1, got {self.n_chains}")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be non-negative, got {self.burn_in}")
        if self.thin < 1:
            raise ValueError(f"thin must be at least 1, got {self.thin}")
        if self.n_draws < self.thin:
            raise ValueError(
                f"n_draws={self.n_draws} keeps nothing at thin={self.thin}"
            )
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError(f"target_accept must lie in (0, 1), got {self.target_accept}")
        if self.adapt_window < 1:
            raise ValueError(f"adapt_window must be at least 1, got {self.adapt_window}")

    @classmethod
    def desk(cls, seed: int = 0, **kw) -> "SamplerSettings":
        return cls(n_chains=4, burn_in=5_000, n_draws=10_000, thin=5, seed=seed, **kw)

    @property
    def n_kept(self) -> int:
        return self.n_draws // self.thin


def _validate_inputs(panel: SurveyPanel, spec: ModelSpec) -> None:
    compile_model(spec, panel=panel)
    problems = validate_panel(panel)
    if problems:
        head = "; ".join(v.message for v in problems[:5])
        raise ValueError(f"panel fails validation ({len(problems)} problem(s)): {head}")


def _sample_chain(panel: SurveyPanel, spec: ModelSpec, settings: SamplerSettings, seed) -> ChainDraws:
    rng = np.random.default_rng(seed)
    pr = spec.priors
    T = panel.n_times
    K = panel.n_surveys
    monotone = spec.monotone_walk
    exact = spec.use_exact_nchg

    designs = bias_designs(spec, T)
    kinds = [b.kind for b in spec.bias]
    walk_ks = [k for k in range(K) if kinds[k] == "walk"]
    tcov = time_covariate(spec, T)
    # under the logit-shift approximation a cell depends on theta[t] + g only,
    # so a ridge move leaves walk cells unchanged; the exact kernel does not
    ridge_skips_walk = not exact

    # panel column j holds time-point j + 1; a ridge cell carries how many
    # ridge steps its log odds move against theta: 1 in a bias walk, else 0
    obs = panel.observed
    col_cells: list[list[tuple[int, float, float]]] = [[] for _ in range(T + 1)]
    ridge_cells: list[list[tuple[int, float, float, float]]] = [[] for _ in range(T + 1)]
    row_cells: list[list[tuple[int, float, float]]] = [[] for _ in range(K)]
    cell_at: list[list[tuple[float, float] | None]] = [[None] * (T + 1) for _ in range(K)]
    for k in range(K):
        yk, nk = panel.y[k], panel.n[k]
        shift = 1.0 if k in walk_ks else 0.0
        for j in range(T):
            if obs[k, j]:
                t = j + 1
                y, n = float(yk[j]), float(nk[j])
                col_cells[t].append((k, y, n))
                if not (shift and ridge_skips_walk):
                    ridge_cells[t].append((k, y, n, shift))
                row_cells[k].append((t, y, n))
                cell_at[k][t] = (y, n)

    # the exact kernel is a call; the logit-shift cell term x = theta + g,
    # y*x - n*softplus(x), is written out inline wherever a cell is evaluated
    exp_ = math.exp
    log1p_ = math.log1p
    population = panel.population

    def cell_ll(th: float, g: float, y: float, n: float) -> float:
        if abs(g) > 690.0:  # odds outside float range: impossible cell
            return -_INF
        if th >= 0.0:  # inv_logit on one float, without numpy's per-call cost
            p = 1.0 / (1.0 + exp_(-th))
        else:
            e = exp_(th)
            p = e / (1.0 + e)
        m1 = int(math.floor(p * population + 0.5))
        return nchg_logpmf_unchecked(int(y), m1, population - m1, int(n), exp_(g))

    # ---- starting point: pooled empirical level of the bias-known surveys
    ysum = [0.0] * (T + 1)
    nsum = [0.0] * (T + 1)
    for k in range(K):
        if not designs[k].var:
            for t, y, n in row_cells[k]:
                ysum[t] += y
                nsum[t] += n
    level: list[float | None] = [None] * (T + 1)
    for t in range(1, T + 1):
        if nsum[t] > 0.0:
            r = (ysum[t] + 0.5) / (nsum[t] + 1.0)
            level[t] = math.log(r / (1.0 - r))
    for t in range(2, T + 1):  # carry last seen level across gaps
        if level[t] is None:
            level[t] = level[t - 1]
    head = next((v for v in level[1:] if v is not None), pr.theta0_mean)
    theta = [head if v is None else v for v in level]
    theta[0] = head
    theta = [v + 0.01 * rng.standard_normal() for v in theta]
    if monotone:
        for t in range(1, T + 1):
            if theta[t] < theta[t - 1]:
                theta[t] = theta[t - 1]
    sigma_sq = (
        math.sqrt(pr.sigma_sq_scale)
        * _HALF_NORMAL_MEDIAN
        * math.exp(0.1 * rng.standard_normal())
    )
    pi_sq = None
    if walk_ks:
        pi_sq = (
            math.sqrt(pr.pi_sq_scale)
            * _HALF_NORMAL_MEDIAN
            * math.exp(0.1 * rng.standard_normal())
        )
    gam: list[list[float]] = []
    for d in designs:
        gam.append([0.01 * rng.standard_normal() for _ in d.var])

    start = LatentState(
        theta=np.array(theta),
        sigma_sq=sigma_sq,
        gamma=tuple(np.array(g) if g else None for g in gam),
        pi_sq=pi_sq,
    )
    report = _lik.log_posterior(start, panel, spec)
    if not math.isfinite(report.log_post):
        bad = next(
            (name for name, v in report.per_block.items() if not math.isfinite(v)),
            "log_post",
        )
        raise InitializationError(bad)

    # lphi[k][t]: log bias odds of survey k at time t under the current
    # state; ll[k][t]: its cell log-likelihood there. Each block evaluates
    # only its proposal, and an accepted move stores the cells it touched.
    lphi = [[d.log_phi(g, t) for t in range(T + 1)] for d, g in zip(designs, gam)]
    ll = [[0.0] * (T + 1) for _ in range(K)]
    for t in range(1, T + 1):
        for k, y, n in col_cells[t]:
            if exact:
                ll[k][t] = cell_ll(theta[t], lphi[k][t], y, n)
            else:
                x = theta[t] + lphi[k][t]
                ll[k][t] = y * x - n * (x if x > 35.0 else log1p_(exp_(x)))

    # ---- block bookkeeping
    names = [f"theta[{t}]" for t in range(T + 1)]
    names.append("sigma_sq")
    for k in range(K):
        for j in range(len(gam[k])):
            names.append(f"gamma[{k}][{j}]")
    if pi_sq is not None:
        names.append("pi_sq")
    joint0 = len(names)
    if walk_ks:
        names.extend(f"joint[{t}]" for t in range(T + 1))
    B = len(names)
    log_scale = [math.log(0.5)] * B
    scale = [0.5] * B
    # accepts per block in the open adaptation window, then after burn-in
    acc = [0] * B
    n_windows = 0

    target = settings.target_accept
    window = settings.adapt_window
    burn = settings.burn_in
    thin = settings.thin
    total = burn + settings.n_draws
    kept = settings.n_kept
    theta0_mean = pr.theta0_mean
    theta0_var = pr.theta0_var
    sig_prior_sq = pr.sigma_sq_scale
    g0v = pr.gamma0_var
    g1v = pr.gamma1_var
    pi_prior_sq = pr.pi_sq_scale
    log_ = math.log
    sqrt_ = math.sqrt

    out_theta = np.empty((kept, T + 1))
    out_sig = np.empty(kept)
    out_gam = [np.empty((kept, len(gam[k]))) for k in range(K)]
    out_pi = np.empty(kept) if pi_sq is not None else None
    keep_i = 0

    # normal and uniform streams, each refilled when a draw finds it empty
    norm_buf = rng.standard_normal(_RNG_BUF).tolist()
    unif_buf = rng.random(_RNG_BUF).tolist()
    nb_i = ub_i = 0

    scales_frozen: dict[str, float] = {}

    for it in range(total):
        if it == burn:
            scales_frozen = dict(zip(names, scale))
            acc = [0] * B  # a partial window at the freeze point is dropped

        # latent logit levels
        for t in range(T + 1):
            cur = theta[t]
            if nb_i == _RNG_BUF:
                norm_buf = rng.standard_normal(_RNG_BUF).tolist()
                nb_i = 0
            prop = cur + scale[t] * norm_buf[nb_i]
            nb_i += 1
            if monotone:
                lo = theta[t - 1] if t >= 1 else -_INF
                hi = theta[t + 1] if t < T else _INF
                if prop < lo or prop > hi:
                    if lo == -_INF:
                        prop = 2.0 * hi - prop
                    elif hi == _INF:
                        prop = 2.0 * lo - prop
                    else:
                        w = hi - lo
                        if w <= 0.0:  # neighbours tied: nowhere to move, a reject
                            continue
                        r = (prop - lo) % (2.0 * w)
                        prop = lo + (r if r <= w else 2.0 * w - r)
            if t == 0:
                dn = prop - theta0_mean
                dc = cur - theta0_mean
                d = (dc * dc - dn * dn) / (2.0 * theta0_var)
            else:
                prev = theta[t - 1]
                dn = prop - prev
                dc = cur - prev
                d = (dc * dc - dn * dn) / (2.0 * sigma_sq)
            if t < T:
                nxt = theta[t + 1]
                dn = nxt - prop
                dc = nxt - cur
                d += (dc * dc - dn * dn) / (2.0 * sigma_sq)
            news = []
            for k, y, n in col_cells[t]:
                if exact:
                    v = cell_ll(prop, lphi[k][t], y, n)
                else:
                    x = prop + lphi[k][t]
                    v = y * x - n * (x if x > 35.0 else log1p_(exp_(x)))
                news.append((k, v))
                d += v - ll[k][t]
            ok = d >= 0.0
            if not ok:
                if ub_i == _RNG_BUF:
                    unif_buf = rng.random(_RNG_BUF).tolist()
                    ub_i = 0
                ok = unif_buf[ub_i] < exp_(d)
                ub_i += 1
            if ok:
                theta[t] = prop
                for k, v in news:
                    ll[k][t] = v
                acc[t] += 1

        # latent-walk variance, proposed on the log scale
        bid = T + 1
        lcur = log_(sigma_sq)
        if nb_i == _RNG_BUF:
            norm_buf = rng.standard_normal(_RNG_BUF).tolist()
            nb_i = 0
        lprop = lcur + scale[bid] * norm_buf[nb_i]
        nb_i += 1
        sprop = exp_(lprop)
        sse = 0.0
        for t in range(1, T + 1):
            dd = theta[t] - theta[t - 1]
            sse += dd * dd
        d = (
            (sigma_sq * sigma_sq - sprop * sprop) / (2.0 * sig_prior_sq)
            + 0.5 * T * (lcur - lprop)
            + 0.5 * sse * (1.0 / sigma_sq - 1.0 / sprop)
            + (lprop - lcur)
        )
        ok = d >= 0.0
        if not ok:
            if ub_i == _RNG_BUF:
                unif_buf = rng.random(_RNG_BUF).tolist()
                ub_i = 0
            ok = unif_buf[ub_i] < exp_(d)
            ub_i += 1
        if ok:
            sigma_sq = sprop
            acc[bid] += 1
        bid += 1

        # bias coefficients
        for k in range(K):
            kind = kinds[k]
            if kind == "known":
                continue
            gk = gam[k]
            llk = ll[k]
            lphik = lphi[k]
            if kind == "constant":
                cur = gk[0]
                if nb_i == _RNG_BUF:
                    norm_buf = rng.standard_normal(_RNG_BUF).tolist()
                    nb_i = 0
                prop = cur + scale[bid] * norm_buf[nb_i]
                nb_i += 1
                d = (cur * cur - prop * prop) / (2.0 * g0v)
                news = []
                for t, y, n in row_cells[k]:
                    if exact:
                        v = cell_ll(theta[t], prop, y, n)
                    else:
                        x = theta[t] + prop
                        v = y * x - n * (x if x > 35.0 else log1p_(exp_(x)))
                    news.append((t, v))
                    d += v - llk[t]
                ok = d >= 0.0
                if not ok:
                    if ub_i == _RNG_BUF:
                        unif_buf = rng.random(_RNG_BUF).tolist()
                        ub_i = 0
                    ok = unif_buf[ub_i] < exp_(d)
                    ub_i += 1
                if ok:
                    gk[0] = prop
                    for t, v in news:
                        llk[t] = v
                        lphik[t] = prop
                    acc[bid] += 1
                bid += 1
            elif kind == "linear":
                for j in (0, 1):  # intercept, then slope
                    cur = gk[j]
                    if nb_i == _RNG_BUF:
                        norm_buf = rng.standard_normal(_RNG_BUF).tolist()
                        nb_i = 0
                    prop = cur + scale[bid] * norm_buf[nb_i]
                    nb_i += 1
                    d = (cur * cur - prop * prop) / (2.0 * (g1v if j else g0v))
                    c0, c1 = (gk[0], prop) if j else (prop, gk[1])
                    news = []
                    for t, y, n in row_cells[k]:
                        g = c0 + c1 * tcov[t]
                        if exact:
                            v = cell_ll(theta[t], g, y, n)
                        else:
                            x = theta[t] + g
                            v = y * x - n * (x if x > 35.0 else log1p_(exp_(x)))
                        news.append((t, g, v))
                        d += v - llk[t]
                    ok = d >= 0.0
                    if not ok:
                        if ub_i == _RNG_BUF:
                            unif_buf = rng.random(_RNG_BUF).tolist()
                            ub_i = 0
                        ok = unif_buf[ub_i] < exp_(d)
                        ub_i += 1
                    if ok:
                        gk[j] = prop
                        for t, g, v in news:
                            lphik[t] = g
                            llk[t] = v
                        acc[bid] += 1
                    bid += 1
            else:
                cells = cell_at[k]
                for t in range(T + 1):
                    cur = gk[t]
                    if nb_i == _RNG_BUF:
                        norm_buf = rng.standard_normal(_RNG_BUF).tolist()
                        nb_i = 0
                    prop = cur + scale[bid] * norm_buf[nb_i]
                    nb_i += 1
                    if t == 0:
                        d = (cur * cur - prop * prop) / (2.0 * g0v)
                    else:
                        prev = gk[t - 1]
                        dn = prop - prev
                        dc = cur - prev
                        d = (dc * dc - dn * dn) / (2.0 * pi_sq)
                    if t < T:
                        nxt = gk[t + 1]
                        dn = nxt - prop
                        dc = nxt - cur
                        d += (dc * dc - dn * dn) / (2.0 * pi_sq)
                    cell = cells[t]
                    if cell is not None:
                        y, n = cell
                        if exact:
                            v = cell_ll(theta[t], prop, y, n)
                        else:
                            x = theta[t] + prop
                            v = y * x - n * (x if x > 35.0 else log1p_(exp_(x)))
                        d += v - llk[t]
                    ok = d >= 0.0
                    if not ok:
                        if ub_i == _RNG_BUF:
                            unif_buf = rng.random(_RNG_BUF).tolist()
                            ub_i = 0
                        ok = unif_buf[ub_i] < exp_(d)
                        ub_i += 1
                    if ok:
                        gk[t] = lphik[t] = prop
                        if cell is not None:
                            llk[t] = v
                        acc[bid] += 1
                    bid += 1

        # bias-walk variance
        if pi_sq is not None:
            lcur = log_(pi_sq)
            if nb_i == _RNG_BUF:
                norm_buf = rng.standard_normal(_RNG_BUF).tolist()
                nb_i = 0
            lprop = lcur + scale[bid] * norm_buf[nb_i]
            nb_i += 1
            pprop = exp_(lprop)
            sse = 0.0
            n_inc = 0
            for k in walk_ks:
                gk = gam[k]
                for t in range(1, T + 1):
                    dd = gk[t] - gk[t - 1]
                    sse += dd * dd
                n_inc += T
            d = (
                (pi_sq * pi_sq - pprop * pprop) / (2.0 * pi_prior_sq)
                + 0.5 * n_inc * (lcur - lprop)
                + 0.5 * sse * (1.0 / pi_sq - 1.0 / pprop)
                + (lprop - lcur)
            )
            ok = d >= 0.0
            if not ok:
                if ub_i == _RNG_BUF:
                    unif_buf = rng.random(_RNG_BUF).tolist()
                    ub_i = 0
                ok = unif_buf[ub_i] < exp_(d)
                ub_i += 1
            if ok:
                pi_sq = pprop
                acc[bid] += 1

        # ridge moves: shift the level at one time-point and counter-shift
        # every bias walk there
        if walk_ks:
            for t in range(T + 1):
                bid = joint0 + t
                if nb_i == _RNG_BUF:
                    norm_buf = rng.standard_normal(_RNG_BUF).tolist()
                    nb_i = 0
                delta = scale[bid] * norm_buf[nb_i]
                nb_i += 1
                cur = theta[t]
                prop = cur + delta
                if monotone and (
                    (t >= 1 and prop < theta[t - 1])
                    or (t < T and theta[t + 1] < prop)
                ):
                    continue  # outside the order: a reject
                if t == 0:
                    dn = prop - theta0_mean
                    dc = cur - theta0_mean
                    d = (dc * dc - dn * dn) / (2.0 * theta0_var)
                else:
                    prev = theta[t - 1]
                    dn = prop - prev
                    dc = cur - prev
                    d = (dc * dc - dn * dn) / (2.0 * sigma_sq)
                if t < T:
                    nxt = theta[t + 1]
                    dn = nxt - prop
                    dc = nxt - cur
                    d += (dc * dc - dn * dn) / (2.0 * sigma_sq)
                for k in walk_ks:
                    gk = gam[k]
                    gcur = gk[t]
                    gprop = gcur - delta
                    if t == 0:
                        d += (gcur * gcur - gprop * gprop) / (2.0 * g0v)
                    else:
                        gprev = gk[t - 1]
                        dn = gprop - gprev
                        dc = gcur - gprev
                        d += (dc * dc - dn * dn) / (2.0 * pi_sq)
                    if t < T:
                        gnxt = gk[t + 1]
                        dn = gnxt - gprop
                        dc = gnxt - gcur
                        d += (dc * dc - dn * dn) / (2.0 * pi_sq)
                news = []
                for k, y, n, shift in ridge_cells[t]:
                    if exact:
                        v = cell_ll(prop, lphi[k][t] - shift * delta, y, n)
                    else:
                        x = prop + (lphi[k][t] - shift * delta)
                        v = y * x - n * (x if x > 35.0 else log1p_(exp_(x)))
                    news.append((k, v))
                    d += v - ll[k][t]
                ok = d >= 0.0
                if not ok:
                    if ub_i == _RNG_BUF:
                        unif_buf = rng.random(_RNG_BUF).tolist()
                        ub_i = 0
                    ok = unif_buf[ub_i] < exp_(d)
                    ub_i += 1
                if ok:
                    theta[t] = prop
                    for k in walk_ks:
                        gam[k][t] -= delta
                        lphi[k][t] -= delta
                    for k, v in news:
                        ll[k][t] = v
                    if ridge_skips_walk:
                        # equal up to rounding; refresh so the table stays
                        # bit-equal to a fresh evaluation
                        for k in walk_ks:
                            cell = cell_at[k][t]
                            if cell is not None:
                                y, n = cell
                                x = prop + lphi[k][t]
                                ll[k][t] = y * x - n * (x if x > 35.0 else log1p_(exp_(x)))
                    acc[bid] += 1

        # every block made one decision this sweep, so all adaptation
        # windows close together
        if it < burn and (it + 1) % window == 0:
            n_windows += 1
            root = sqrt_(n_windows)
            for b in range(B):
                log_scale[b] += (acc[b] / window - target) / root
                scale[b] = exp_(log_scale[b])
                acc[b] = 0

        if it >= burn and (it - burn) % thin == thin - 1:
            out_theta[keep_i] = theta
            out_sig[keep_i] = sigma_sq
            for k in range(K):
                if gam[k]:
                    out_gam[k][keep_i] = gam[k]
            if out_pi is not None:
                out_pi[keep_i] = pi_sq
            keep_i += 1

    return ChainDraws(
        theta=out_theta[None, :, :],
        sigma_sq=out_sig[None, :],
        gamma=tuple(g[None, :, :] for g in out_gam),
        pi_sq=None if out_pi is None else out_pi[None, :],
        spec=spec,
        settings=settings,
        acceptance_rates={name: acc[b] / settings.n_draws for b, name in enumerate(names)},
        scales_end_of_burnin=scales_frozen,
        scales_final=dict(zip(names, scale)),
    )


def _chain_job(args):
    return _sample_chain(*args)


def resolve_workers(workers: int | None = None) -> int:
    """The process count to use: ``workers``, else the SURVEYSYNTH_WORKERS
    environment variable, else 1 (serial).

    Raises ValueError naming the source unless the count is an integer >= 1.
    """
    name, value = "workers", workers
    if workers is None:
        name, value = "SURVEYSYNTH_WORKERS", os.environ.get("SURVEYSYNTH_WORKERS", "1")
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return count


def map_jobs(fn, jobs: list, workers: int | None = None) -> list:
    """``[fn(job) for job in jobs]``, spread over up to ``workers`` processes
    (see ``resolve_workers``).

    Results come back in job order, so they do not depend on the worker count
    when every job seeds itself.
    """
    workers = resolve_workers(workers)
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


def run_chain(panel: SurveyPanel, spec: ModelSpec, settings: SamplerSettings, chain_seed) -> ChainDraws:
    """Run one chain seeded independently of ``settings.seed``."""
    _validate_inputs(panel, spec)
    return _sample_chain(panel, spec, settings, chain_seed)


def run_chains(
    panel: SurveyPanel,
    spec: ModelSpec,
    settings: SamplerSettings | None = None,
    workers: int | None = None,
) -> ChainDraws:
    """Run ``settings.n_chains`` independent chains and stack their draws.

    Chain seeds are spawned from ``settings.seed``, so results are
    reproducible bit-for-bit regardless of ``workers`` (see ``map_jobs``).
    """
    if settings is None:
        settings = SamplerSettings()
    _validate_inputs(panel, spec)
    seeds = np.random.SeedSequence(settings.seed).spawn(settings.n_chains)
    chains = map_jobs(_chain_job, [(panel, spec, settings, s) for s in seeds], workers)

    acceptance = {
        name: float(np.mean([c.acceptance_rates[name] for c in chains]))
        for name in chains[0].acceptance_rates
    }
    scales_burn: dict[str, float] = {}
    scales_final: dict[str, float] = {}
    for ci, c in enumerate(chains):
        for name, v in c.scales_end_of_burnin.items():
            scales_burn[f"chain{ci}:{name}"] = v
        for name, v in c.scales_final.items():
            scales_final[f"chain{ci}:{name}"] = v
    return ChainDraws(
        theta=np.concatenate([c.theta for c in chains], axis=0),
        sigma_sq=np.concatenate([c.sigma_sq for c in chains], axis=0),
        gamma=tuple(
            np.concatenate([c.gamma[k] for c in chains], axis=0)
            for k in range(panel.n_surveys)
        ),
        pi_sq=(
            None
            if chains[0].pi_sq is None
            else np.concatenate([c.pi_sq for c in chains], axis=0)
        ),
        spec=spec,
        settings=settings,
        acceptance_rates=acceptance,
        scales_end_of_burnin=scales_burn,
        scales_final=scales_final,
    )


# ---------------------------------------------------------------------------
# convergence diagnostics


def split_stats(series) -> tuple[np.ndarray, np.ndarray]:
    """Split-chain R-hat and ESS of every series in a stack, as two arrays.

    ``series`` is a (P, chains, draws) array or a list of P equal-shaped
    (chains, draws) arrays. Each series is split into half-chains and scored
    exactly as ``r_hat`` and ``ess`` score it alone, bit for bit: every
    reduction runs along the same axis in the same order, and the FFT is one
    batched call over the half-chains. Series are taken in chunks of at most
    about 2**15 floats per stacked array, which bounds the working memory.
    """
    P = len(series)
    chains, draws = np.shape(series[0])
    n = draws // 2
    if n < 1:
        raise ValueError("need at least 2 draws per chain")
    m = 2 * chains
    total = float(m * n)
    coef = (n - 1) / n
    nfft = 1 << (2 * n - 1).bit_length()
    step = max(1, _STACK_FLOATS // (m * nfft))
    rh = np.empty(P)
    es = np.empty(P)
    for lo in range(0, P, step):
        x = np.asarray(series[lo : lo + step], dtype=float)
        p = x.shape[0]
        halves = np.concatenate([x[:, :, :n], x[:, :, n : 2 * n]], axis=1)
        means = halves.mean(axis=2)
        within = halves.var(axis=2, ddof=1).mean(axis=1)
        between = means.var(axis=1, ddof=1)
        var_plus = coef * within + between
        with np.errstate(divide="ignore", invalid="ignore"):
            rh[lo : lo + p] = np.where(
                within == 0.0,
                np.where(between == 0.0, 1.0, _INF),
                np.sqrt(var_plus / within),
            )
            f = np.fft.rfft(halves - means[:, :, None], nfft, axis=2)
            acov = np.fft.irfft(f.real**2 + f.imag**2, nfft, axis=2)[:, :, :n] / n
            rho = 1.0 - (within[:, None] - acov.mean(axis=1)) / var_plus[:, None]
        # Geyer's initial monotone sequence: sum the lag pairs up to the first
        # non-positive one, each clipped to the smallest pair before it
        pairs = rho[:, 0 : 2 * (n // 2) : 2] + rho[:, 1 : 2 * (n // 2) : 2]
        stop = np.concatenate([pairs <= 0.0, np.ones((p, 1), dtype=bool)], axis=1).argmax(axis=1)
        running = np.zeros((p, pairs.shape[1] + 1))
        np.cumsum(np.minimum.accumulate(pairs, axis=1), axis=1, out=running[:, 1:])
        tau = np.maximum(2.0 * running[np.arange(p), stop] - 1.0, 1e-12)
        with np.errstate(divide="ignore", invalid="ignore"):
            fitted = np.minimum(np.maximum(total / tau, 1.0), total)
        es[lo : lo + p] = np.where((var_plus > 0.0) & np.isfinite(var_plus), fitted, total)
    return rh, es


def _one_series(chains) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(chains, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected a (chains, draws) array, got shape {x.shape}")
    return split_stats(x[None])


def r_hat(chains) -> float:
    """Split-chain potential scale reduction factor.

    Exactly 1.0 when every split half is identical; infinite when halves are
    constant but disagree.
    """
    return float(_one_series(chains)[0][0])


def ess(chains) -> float:
    """Effective sample size from split-half FFT autocovariances.

    Lag correlations are summed over consecutive pairs while the pair sums
    stay positive and decreasing; the result is clipped to [1, total draws].
    """
    return float(_one_series(chains)[1][0])


@dataclass(frozen=True)
class Diagnostics:
    """Per-parameter split-chain statistics plus an overall verdict."""

    r_hat: dict[str, float]
    ess: dict[str, float]
    converged: bool


def diagnose(draws: ChainDraws, threshold: float = 1.1) -> Diagnostics:
    series = draws.param_series()
    rh, es = split_stats(list(series.values()))
    rh_map = dict(zip(series, rh.tolist()))
    converged = all(math.isfinite(v) and v <= threshold for v in rh_map.values())
    return Diagnostics(r_hat=rh_map, ess=dict(zip(series, es.tolist())), converged=converged)


def summarize(draws: ChainDraws, alpha: float = 0.05, transform: str = "rate") -> SummaryTable:
    """Posterior summary table with equal-tailed (1 - alpha) intervals.

    transform="rate" reports the latent series as population rates in (0, 1);
    "natural" leaves it on the logit scale. Bias odds rows (one per modeled
    survey and time-point) and variance rows are always on their own scale.
    """
    if transform not in ("rate", "natural"):
        raise ValueError(f"unknown transform {transform!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    diag = diagnose(draws)
    stats = {name: (diag.r_hat[name], diag.ess[name]) for name in diag.r_hat}
    qs = [alpha / 2.0, 0.5, 1.0 - alpha / 2.0]
    T = draws.n_times
    designs = bias_designs(draws.spec, T)
    coefs = [np.moveaxis(g, -1, 0) for g in draws.gamma]

    # a bias-odds row that is one coefficient's own series (a constant, a
    # walk step) takes that coefficient's diagnostics; the other rows are
    # scored together in one stacked pass
    phi_keys: dict[tuple[int, int], str | tuple[int, int]] = {}
    fresh: dict[tuple[int, int], np.ndarray] = {}
    for k, design in enumerate(designs):
        if not design.var:
            continue
        for t in range(1, T + 1):
            (j, c), *rest = design.terms[t]
            if design.offset[t] == 0.0 and c == 1.0 and not rest:
                phi_keys[k, t] = f"gamma[{k}][{j}]"
            else:
                phi_keys[k, t] = (k, t)
                fresh[k, t] = design.log_phi(coefs[k], t)
    if fresh:
        rh, es = split_stats(list(fresh.values()))
        stats.update(zip(fresh, zip(rh.tolist(), es.tolist())))
        del fresh  # the rows below rebuild one series at a time

    rows: list[SummaryRow] = []

    def add(name, survey, t, values, key):
        lo, med, hi = np.quantile(values, qs)
        rh, es = stats[key]
        rows.append(
            SummaryRow(
                name=name,
                survey=survey,
                t=t,
                median=float(med),
                lower=float(lo),
                upper=float(hi),
                r_hat=rh,
                ess=es,
            )
        )

    for t in range(1, T + 1):
        values = draws.theta[:, :, t].ravel()
        if transform == "rate":
            add("rate", None, t, inv_logit(values), f"theta[{t}]")
        else:
            add("theta", None, t, values, f"theta[{t}]")
    for (k, t), key in phi_keys.items():
        add("phi", k, t, np.exp(designs[k].log_phi(coefs[k], t).ravel()), key)
    add("sigma_sq", None, None, draws.sigma_sq.ravel(), "sigma_sq")
    if draws.pi_sq is not None:
        add("pi_sq", None, None, draws.pi_sq.ravel(), "pi_sq")
    return SummaryTable(alpha=alpha, rows=rows, converged=diag.converged)
