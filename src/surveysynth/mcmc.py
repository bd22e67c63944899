"""Adaptive random-walk Gibbs sampler for the survey-synthesis model.

Every parameter is updated by scalar Metropolis blocks of three families:
level moves of theta[0..T], variance moves of sigma_sq and pi_sq, and one
coefficient block per bias coefficient. A sweep runs them in one phase
order (``_phase_order``): theta at odd t, then at even t; sigma_sq; the
non-walk coefficients; then, with walk-bias surveys, the bias walks at odd
t, then at even t, every walk at one t side by side; pi_sq; the ridge at
odd t, then at even t. Given the other colour and the bias terms, the nodes
of one colour are conditionally independent, because each block reads only
its neighbours in t and the cells at its own t.

A level move proposes theta[t] and reflects it into the monotone order. A
ridge move is the same move that also counter-shifts every bias walk at t
by the same amount, so it travels along the level-versus-bias ridge that
scalar updates cross only in tiny steps when a large biased survey has no
unbiased companion; it rejects a proposal outside the monotone order. Under
the logit-shift approximation a cell depends on theta[t] and the bias only
through their sum, so the walk cells at t are invariant under the shift and
the move leaves them out of its ratio. The exact kernel reads theta through
the rounded positive count and the bias through the odds separately, so
there the walk cells count like any other. A variance move proposes on the
log scale against its walk steps, theta[t] - theta[t - 1] or gamma[j] -
gamma[j - 1]. A coefficient block proposes gamma[j], adds its prior terms
and recomputes each cell of its compiled column (``core.coefficient_columns``)
as offset + sum of c * gamma; no block knows a bias kind. A bias walk's
coefficient t is its log odds at t, the layout the ridge move shifts.

After its start (``_start``) each chain reads its own generator's streams:
at each refill (``_refill``) a (sweeps, blocks) array of normals, then one of
uniforms through ``np.log``, read by block id, so each block takes one
normal and one log-uniform per sweep whatever the others do. A block steps
by its scale times its normal and accepts when its log-uniform is below its
log ratio d. Every block makes one decision per sweep (a theta move between
tied monotone neighbours and a ridge move out of the order reject), so all
adaptation windows close on the same sweep: one pass moves every log scale
by (accepts / window - target) / sqrt(windows closed so far)
(``_close_window``). After burn-in the same counts give the acceptance
rates. Scales are snapshotted at the freeze point and at the end so callers
can check that no post-burn-in adaptation happened.

Three engines run this one sweep, and a chain gets the same draws from
each, bit for bit. ``_sample_chain`` sweeps one chain on plain Python floats
with the floating-point operations of one lane of the batch, in its order:
the same padded walk ends and prior terms, and softplus as
``np.logaddexp(0, x)`` computes it. ``_sample_compiled`` runs the chain's
approximate sweeps as compiled code (``_chain.c``): Python draws each
chain's start and each stretch of its streams, and one C call sweeps the
stretch with the chain's operations in the chain's order. It calls libm's
exp, log1p, log and sqrt, as Python's math module does, and is compiled at
``-O2 -ffp-contract=off``, so no multiply-add is fused. ``_sample_batch``
sweeps chains under the logit-shift approximation as numpy arrays
(``_Batch``), a colour of every chain per move, from a layout in which each
phase reads contiguous row blocks, since a numpy call costs about a
microsecond however few lanes it serves. Every sum in a log ratio adds its
terms in turn, first to last, in every engine (``_sum_in_turn`` in the
batch): a level move's cells walks first, a ridge move's walk priors and
then its other cells, a coefficient's cells in t order, a variance's squared
steps t-major with every walk at one t side by side. So no sum depends on
how many chains share a batch. Only the chain runs the exact kernel, whose
cells are one call each over windows of differing lengths, which a batch
cannot share (``_exact_cell``).
The chain keeps each observed cell's log bias odds (lp) and log-likelihood
(ll); a block evaluates the cells it touches at the proposal only, and an
accepted move copies the new values over, so ll equals a fresh evaluation
and a touched cell costs one kernel call per block. Both engines share the
start, the block names, the adaptation rule and the bookkeeping
(``_books``), and return draws with a leading chain axis (``_Part``). A
chain's start fails before the first sweep when a cell is not finite
(``InitializationError``). The likelihood module is the reference density
the sampler is tested against; the sampler does not use it.

``run_chains`` splits a fit's chains into min(workers, n_chains) contiguous
groups, one job each (``_group_job``). Under the approximation it first
finds the compiled sweep's library in its cache or builds it
(``_chainlib.library``, once per process), before any worker starts, so
that workers only load it; then every group runs through it, whatever its
width. When the library cannot be had (no compiler, a failed build, a file
that will not load) a group takes the Python route: one batch when it has
at least ``BATCH_MIN_LANES`` lanes (chains x (T + 1)), else chain by chain.
Exact-kernel fits never load the library and run chain by chain. No draw
depends on the route or the grouping, so both are speed choices only. When
one group holds every chain, its arrays are the fit's draws.

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
from typing import NamedTuple

import numpy as np

from .core import (
    ChainDraws,
    ModelSpec,
    SummaryRow,
    SummaryTable,
    SurveyPanel,
    bias_designs,
    check_count,
    coefficient_columns,
    compile_model,
    validate_panel,
)
from .dists import MAX_LOG_ODDS, inv_logit, nchg_logpmf_unchecked

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
        for name, least in (("n_chains", 1), ("burn_in", 0), ("n_draws", 0), ("thin", 1),
                            ("seed", 0), ("adapt_window", 1)):
            check_count(name, getattr(self, name), least)
        if self.n_draws // self.thin < 4:  # split R-hat needs two draws per half-chain
            raise ValueError(
                f"n_draws={self.n_draws} keeps {self.n_draws // self.thin} draws at "
                f"thin={self.thin}; at least 4 are needed"
            )
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError(f"target_accept must lie in (0, 1), got {self.target_accept}")

    @classmethod
    def desk(cls, seed: int = 0, **kw) -> "SamplerSettings":
        """The desk preset; keyword arguments override any of its fields."""
        preset = {"n_chains": 4, "burn_in": 5_000, "n_draws": 10_000, "thin": 5}
        return cls(seed=seed, **{**preset, **kw})

    @property
    def n_kept(self) -> int:
        return self.n_draws // self.thin


def _validate_inputs(panel: SurveyPanel, spec: ModelSpec):
    """The compiled bias designs and coefficient columns of a valid fit."""
    designs = compile_model(spec, panel=panel)
    problems = validate_panel(panel)
    if problems:
        head = "; ".join(v.message for v in problems[:5])
        raise ValueError(f"panel fails validation ({len(problems)} problem(s)): {head}")
    return designs, coefficient_columns(designs, panel)


def _exact_cell(population: int):
    """The exact kernel's cell log-likelihood at level th and log odds g."""
    exp_ = math.exp

    def cell_ll(th: float, g: float, y: float, n: float) -> float:
        if abs(g) > MAX_LOG_ODDS:  # odds outside float range: impossible cell
            return -_INF
        if th >= 0.0:  # inv_logit on one float, without numpy's per-call cost
            p = 1.0 / (1.0 + exp_(-th))
        else:
            e = exp_(th)
            p = e / (1.0 + e)
        m1 = int(math.floor(p * population + 0.5))
        return nchg_logpmf_unchecked(int(y), m1, population - m1, int(n), exp_(g))

    return cell_ll


def _start(panel: SurveyPanel, spec: ModelSpec, designs, rng, cell_ll):
    """A chain's starting state and cell tables, drawn from ``rng``.

    Returns (theta, sigma_sq, pi_sq, gam, lphi, ll) as plain floats and lists:
    lphi[k][t] is survey k's log bias odds at t, ll[k][t] its cell
    log-likelihood (0 where unobserved), and pi_sq is None without a bias walk.
    ``cell_ll`` is the exact kernel's cell, or None for the logit-shift
    approximation. A non-finite cell raises InitializationError naming its
    survey's block, lik[k].
    """
    pr = spec.priors
    T = panel.n_times
    # theta: the pooled empirical level of the bias-known surveys
    ysum = [0.0] * (T + 1)
    nsum = [0.0] * (T + 1)
    for k, t, y, n in panel.observed_cells():
        if not designs[k].var:
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
    if spec.monotone_walk:
        for t in range(1, T + 1):
            if theta[t] < theta[t - 1]:
                theta[t] = theta[t - 1]

    sigma_sq = (
        math.sqrt(pr.sigma_sq_scale)
        * _HALF_NORMAL_MEDIAN
        * math.exp(0.1 * rng.standard_normal())
    )
    pi_sq = None
    if any(None in d.var for d in designs):
        pi_sq = (
            math.sqrt(pr.pi_sq_scale)
            * _HALF_NORMAL_MEDIAN
            * math.exp(0.1 * rng.standard_normal())
        )
    gam = [[0.01 * rng.standard_normal() for _ in d.var] for d in designs]

    lphi = [[d.log_phi(g, t) for t in range(T + 1)] for d, g in zip(designs, gam)]
    ll = [[0.0] * (T + 1) for _ in designs]
    for k, t, y, n in panel.observed_cells():
        y, n = float(y), float(n)
        if cell_ll is not None:
            ll[k][t] = cell_ll(theta[t], lphi[k][t], y, n)
        else:
            x = theta[t] + lphi[k][t]
            ll[k][t] = y * x - n * (x if x > 35.0 else math.log1p(math.exp(x)))
    # the start's prior terms are finite by construction; only a cell can fail
    for k, row in enumerate(ll):
        if not all(math.isfinite(v) for v in row):
            raise InitializationError(f"lik[{k}]")
    return theta, sigma_sq, pi_sq, gam, lphi, ll


def _block_names(n_times: int, columns, walk: bool) -> list[str]:
    """Block names in id order: theta[t] is block t, sigma_sq T + 1, column i
    of ``columns`` T + 2 + i, then with a bias walk pi_sq and joint[t]."""
    T = n_times
    names = [f"theta[{t}]" for t in range(T + 1)]
    names.append("sigma_sq")
    names.extend(f"gamma[{c.k}][{c.j}]" for c in columns)
    if walk:
        names.append("pi_sq")
        names.extend(f"joint[{t}]" for t in range(T + 1))
    return names


def _close_window(log_scale: list, scale: list, acc: list, settings: SamplerSettings,
                  n_windows: int) -> None:
    """Close an adaptation window: move every log scale by (accepts / window
    - target) / sqrt(windows closed so far) and reset the counts, in place."""
    window = settings.adapt_window
    target = settings.target_accept
    root = math.sqrt(n_windows)
    for b in range(len(acc)):
        log_scale[b] += (acc[b] / window - target) / root
        scale[b] = math.exp(log_scale[b])
        acc[b] = 0


class _Part(NamedTuple):
    """An engine's draws for its chains, each (chains, kept, ...), and per
    chain its bookkeeping (``_books``)."""

    theta: np.ndarray
    sigma_sq: np.ndarray
    gamma: list
    pi_sq: np.ndarray | None
    books: list


def _books(settings, names, acc, frozen, scale):
    """One chain's acceptance rates, its scales at the freeze point and its
    final scales, from its block bookkeeping."""
    rates = {name: acc[b] / settings.n_draws for b, name in enumerate(names)}
    return rates, frozen, dict(zip(names, scale))


def _phase_order(n_times: int, columns, walk_ks) -> list[tuple[str, list[int]]]:
    """The sweep's phases as (name, block ids in the order the phase runs
    them): theta at odd t then at even t, sigma_sq, the non-walk coefficients
    in column order, then with a bias walk the walks at odd t then at even t
    (every walk at one t side by side), pi_sq, and the ridge at odd t then at
    even t. Block ids are as in ``_block_names``."""
    T = n_times
    odd_even = [t for s in (1, 0) for t in range(s, T + 1, 2)]
    coefficients = [T + 2 + i for i, c in enumerate(columns) if c.k not in walk_ks]
    phases = [("theta", odd_even), ("sigma_sq", [T + 1]), ("coefficient", coefficients)]
    if walk_ks:
        first: dict[int, int] = {}
        for i, c in enumerate(columns):
            first.setdefault(c.k, T + 2 + i)
        pi_id = T + 2 + len(columns)
        phases += [("walk", [first[k] + t for t in odd_even for k in walk_ks]),
                   ("pi_sq", [pi_id]), ("ridge", [pi_id + 1 + t for t in odd_even])]
    return phases


def _refill(rng, blocks: int):
    """The next stretch of one chain's random streams: (sweeps, blocks)
    standard normals, then (sweeps, blocks) uniforms through ``np.log``, with
    sweeps = max(1, _RNG_BUF // blocks). Block b of the i-th sweep of the
    stretch steps by its scale times normal [i, b] and accepts when
    log-uniform [i, b] is below its log ratio."""
    sweeps = max(1, _RNG_BUF // blocks)
    return rng.standard_normal((sweeps, blocks)), np.log(rng.random((sweeps, blocks)))


def _sample_chain(
    panel: SurveyPanel, spec: ModelSpec, settings: SamplerSettings, seed, designs, columns
) -> _Part:
    """One chain, swept as the batch sweeps one lane, or under the exact kernel."""
    rng = np.random.default_rng(seed)
    pr = spec.priors
    T = panel.n_times
    K = panel.n_surveys
    monotone = spec.monotone_walk
    exact = spec.use_exact_nchg
    walk_ks = [k for k, d in enumerate(designs) if None in d.var]

    # the exact kernel is a call; the logit-shift cell term x = theta + g,
    # y*x - n*softplus(x), is written out inline wherever a cell is
    # evaluated, softplus as np.logaddexp(0, x) computes it
    exp_ = math.exp
    log1p_ = math.log1p
    cell_ll = _exact_cell(panel.population) if exact else None
    theta, sigma_sq, pi_sq, gam, lphi, ll0 = _start(panel, spec, designs, rng, cell_ll)
    # padded as in the batch: node t at t + 1, before node 0 its prior mean
    # (theta0_mean, 0 for a bias walk), after node T a 0 of step weight 0. A
    # bias walk's row of lp is its coefficient vector. A block keeps its
    # proposal's values at the cells it touches in new_lp and new_ll, and an
    # accepted move copies them over lp and ll.
    th = [pr.theta0_mean, *theta, 0.0]
    lp = [[0.0, *row, 0.0] for row in lphi]
    ll = [[0.0, *row, 0.0] for row in ll0]
    new_lp = [[0.0] * (T + 3) for _ in range(K)]
    new_ll = [[0.0] * (T + 3) for _ in range(K)]
    seen = {(k, t): (float(y), float(n)) for k, t, y, n in panel.observed_cells()}
    w0 = {k: 0.5 / designs[k].var[0] for k in walk_ks}  # step weight before a walk's node 0
    # each node's cells, bias walks first, as (k, lp row, ll row, new_ll row,
    # y, n, shift): 1 for a walk cell that a ridge move counts at shifted odds
    # (the exact kernel's), else 0. Under the logit-shift approximation a
    # ridge move leaves the walk cells unchanged, so its ratio skips them
    # and an accept refreshes them.
    cells = [[(k, lp[k], ll[k], new_ll[k], *seen[k, p - 1], 1.0 if k in w0 else 0.0)
              for k in walk_ks + [k for k in range(K) if k not in w0] if (k, p - 1) in seen]
             for p in range(T + 2)]

    # a block per id, phase by phase: level, a theta or a ridge move (id, p,
    # walks as (lp row, weight before node 0) for a ridge move, cells in the
    # ratio, cells refreshed); variance (id, is_pi, its steps as (row, p)
    # from p - 1 to p, t-major with every walk at one t side by side, prior
    # scale); coefficient (id, gamma, j, 2 var, rows, their nodes, and the
    # survey's lp, ll, new_lp and new_ll rows); walk (id, lp row, ll row, p,
    # weight before node 0, y and n, or None).
    names = _block_names(T, columns, bool(walk_ks))
    B = len(names)
    walk_rows = [lp[k] for k in walk_ks]
    schedule = []
    for name, ids in _phase_order(T, columns, walk_ks):
        if name == "theta":
            blocks = [(b, b + 1, (), [(*c[1:6], 0.0) for c in cells[b + 1]], ()) for b in ids]
        elif name == "ridge":  # id T + 3 + len(columns) + t
            blocks = [(b, p, [(lp[k], w0[k]) for k in walk_ks],
                       [c[1:] for c in cells[p] if exact or c[0] not in w0],
                       [] if exact else [c[1:] for c in cells[p] if c[0] in w0])
                      for b in ids for p in [b - T - 2 - len(columns)]]
        elif name == "coefficient":
            blocks = []
            for b in ids:
                c = columns[b - T - 2]
                rows = tuple((t + 1, *rest) for t, *rest in c.rows)
                blocks.append((b, gam[c.k], c.j, 2.0 * c.var, rows, [r[0] for r in rows],
                               lp[c.k], ll[c.k], new_lp[c.k], new_ll[c.k]))
        elif name == "walk":
            blocks = [(b, lp[c.k], ll[c.k], c.j + 1, w0[c.k], *seen.get((c.k, c.j), (None, None)))
                      for b in ids for c in [columns[b - T - 2]]]
        else:
            is_pi = name == "pi_sq"
            rows = walk_rows if is_pi else (th,)
            blocks = (ids[0], is_pi, [(g, p) for p in range(2, T + 2) for g in rows],
                      pr.pi_sq_scale if is_pi else pr.sigma_sq_scale)
        if blocks:
            schedule.append(("level" if name in ("theta", "ridge") else name, blocks))
    log_scale = [math.log(0.5)] * B
    scale = [0.5] * B
    # accepts per block in the open adaptation window, then after burn-in
    acc = [0] * B
    n_windows = 0

    window = settings.adapt_window
    burn = settings.burn_in
    thin = settings.thin
    total = burn + settings.n_draws
    kept = settings.n_kept
    # step weights 1 / (2 var): before node 0, and of sigma_sq's and pi_sq's steps
    wt0 = 0.5 / pr.theta0_var
    wsig = 0.5 / sigma_sq
    wpi = None if pi_sq is None else 0.5 / pi_sq
    log_ = math.log
    nodes = slice(1, T + 2)

    out_theta = np.empty((kept, T + 1))
    out_sig = np.empty(kept)
    out_gam = [np.empty((kept, len(d.var))) for d in designs]
    out_pi = np.empty(kept) if pi_sq is not None else None
    keep_i = 0
    scales_frozen: dict[str, float] = {}
    sweep = chunk = 0

    for it in range(total):
        if it == burn:
            scales_frozen = dict(zip(names, scale))
            acc = [0] * B  # a partial window at the freeze point is dropped
        if sweep == chunk:
            normals, log_us = _refill(rng, B)
            chunk, sweep = len(normals), 0
            normals, log_us = normals.tolist(), log_us.tolist()
        z, lu = normals[sweep], log_us[sweep]
        sweep += 1

        for name, blocks in schedule:
            if name == "level":
                for bid, p, walks, tcells, refresh in blocks:
                    cur, prev, nxt = th[p], th[p - 1], th[p + 1]
                    delta = scale[bid] * z[bid]
                    prop = cur + delta
                    if monotone and (p > 1 and prop < prev or p <= T and prop > nxt):
                        if walks:
                            continue  # a ridge move outside the order: a reject
                        if p == 1:  # node 0: nothing below
                            prop = 2.0 * nxt - prop
                        elif p > T:  # node T: nothing above
                            prop = 2.0 * prev - prop
                        else:
                            w = nxt - prev
                            if w <= 0.0:  # neighbours tied: nowhere to move, a reject
                                continue
                            w2 = 2.0 * w
                            r = (prop - prev) % w2
                            prop = prev + (r if r <= w else w2 - r)
                    s = cur + prop
                    d = (cur - prop) * ((s - 2.0 * prev) * (wsig if p > 1 else wt0)
                                        - (2.0 * nxt - s) * (wsig if p <= T else 0.0))
                    if walks:  # the ridge's counter-shift of every bias walk at t
                        ws = 0.0
                        for g, wfirst in walks:
                            gc = g[p]
                            gn = gc - delta
                            sg = gc + gn
                            ws += (gc - gn) * ((sg - 2.0 * g[p - 1]) * (wpi if p > 1 else wfirst)
                                               - (2.0 * g[p + 1] - sg) * (wpi if p <= T else 0.0))
                        d += ws
                    cs = 0.0
                    if exact:
                        for lpk, llk, nllk, y, n, shift in tcells:
                            v = nllk[p] = cell_ll(prop, lpk[p] - shift * delta, y, n)
                            cs += v - llk[p]
                    else:
                        for lpk, llk, nllk, y, n, _ in tcells:
                            x = prop + lpk[p]
                            v = y * x - n * (x + log1p_(exp_(-x)) if x > 0.0 else log1p_(exp_(x)))
                            nllk[p] = v
                            cs += v - llk[p]
                    d += cs
                    if lu[bid] < d:
                        th[p] = prop
                        for _, llk, nllk, _, _, _ in tcells:
                            llk[p] = nllk[p]
                        if walks:
                            for g, _ in walks:
                                g[p] -= delta
                            for lpk, llk, _, y, n, _ in refresh:
                                x = prop + lpk[p]
                                llk[p] = y * x - n * (x + log1p_(exp_(-x)) if x > 0.0
                                                      else log1p_(exp_(x)))
                        acc[bid] += 1

            elif name == "coefficient":  # propose gamma[j], add its prior term,
                # then re-evaluate each cell in its column at offset + sum of c * gamma
                for bid, gk, j, two_var, rows, ps, lpk, llk, nlpk, nllk in blocks:
                    cur = gk[j]
                    prop = cur + scale[bid] * z[bid]
                    d = (cur * cur - prop * prop) / two_var
                    gk[j] = prop
                    cs = 0.0
                    for p, y, n, g, terms in rows:  # g starts as the row's offset
                        if terms is None:
                            g = prop
                        else:
                            for i, c in terms:
                                g = g + c * gk[i]
                        if exact:
                            v = cell_ll(th[p], g, y, n)
                        else:
                            x = th[p] + g
                            v = y * x - n * (x + log1p_(exp_(-x)) if x > 0.0 else log1p_(exp_(x)))
                        nlpk[p] = g
                        nllk[p] = v
                        cs += v - llk[p]
                    d += cs
                    if lu[bid] < d:
                        for p in ps:
                            lpk[p] = nlpk[p]
                            llk[p] = nllk[p]
                        acc[bid] += 1
                    else:
                        gk[j] = cur

            elif name == "walk":
                for bid, g, llk, p, wfirst, y, n in blocks:
                    cur = g[p]
                    prop = cur + scale[bid] * z[bid]
                    s = cur + prop
                    d = (cur - prop) * ((s - 2.0 * g[p - 1]) * (wpi if p > 1 else wfirst)
                                        - (2.0 * g[p + 1] - s) * (wpi if p <= T else 0.0))
                    if y is not None:
                        if exact:
                            v = cell_ll(th[p], prop, y, n)
                        else:
                            x = th[p] + prop
                            v = y * x - n * (x + log1p_(exp_(-x)) if x > 0.0 else log1p_(exp_(x)))
                        d += v - llk[p]
                    if lu[bid] < d:
                        g[p] = prop
                        if y is not None:
                            llk[p] = v
                        acc[bid] += 1

            else:  # sigma_sq or pi_sq, on the log scale against its walk steps
                bid, is_pi, steps, prior_sq = blocks
                v = pi_sq if is_pi else sigma_sq
                sse = 0.0
                for g, p in steps:
                    dd = g[p] - g[p - 1]
                    sse += dd * dd
                lcur = log_(v)
                lprop = lcur + scale[bid] * z[bid]
                vprop = exp_(lprop)
                d = (
                    (v * v - vprop * vprop) / (2.0 * prior_sq)
                    + 0.5 * len(steps) * (lcur - lprop)
                    + 0.5 * sse * (1.0 / v - 1.0 / vprop)
                    + (lprop - lcur)
                )
                if lu[bid] < d:
                    if is_pi:
                        pi_sq = vprop
                        wpi = 0.5 / vprop
                    else:
                        sigma_sq = vprop
                        wsig = 0.5 / vprop
                    acc[bid] += 1

        # every block made one decision this sweep, so all adaptation
        # windows close together
        if it < burn and (it + 1) % window == 0:
            n_windows += 1
            _close_window(log_scale, scale, acc, settings, n_windows)

        if it >= burn and (it - burn) % thin == thin - 1:
            out_theta[keep_i] = th[nodes]
            out_sig[keep_i] = sigma_sq
            for k, design in enumerate(designs):
                if k in w0:
                    out_gam[k][keep_i] = lp[k][nodes]
                elif design.var:
                    out_gam[k][keep_i] = gam[k]
            if out_pi is not None:
                out_pi[keep_i] = pi_sq
            keep_i += 1

    return _Part(out_theta[None], out_sig[None], [g[None] for g in out_gam],
                 None if out_pi is None else out_pi[None],
                 [_books(settings, names, acc, scales_frozen, scale)])


_LEVEL, _COEF, _WALK, _VAR = range(4)  # block kinds of the compiled sweep (_chain.c)


def _flat_schedule(panel: SurveyPanel, spec: ModelSpec, designs, columns, walk_ks):
    """The approximate sweep's blocks in phase order, flattened for the
    compiled sweep (``_chain.c`` lists the layout): int64 kinds, ids and
    shapes, float64 constants, and each non-walk survey's first coefficient
    in the chain's flat gamma. The blocks are ``_sample_chain``'s: a level
    move's cells walks first, a ridge move's non-walk cells, with its walk
    cells refreshed on an accept."""
    T = panel.n_times
    pr = spec.priors
    seen = {(k, t): (float(y), float(n)) for k, t, y, n in panel.observed_cells()}
    w0 = {k: 0.5 / designs[k].var[0] for k in walk_ks}
    surveys = walk_ks + [k for k in range(len(designs)) if k not in w0]
    first, at = {}, 0
    for k, d in enumerate(designs):
        if k not in w0:
            first[k], at = at, at + len(d.var)
    ix: list[int] = []
    fx: list[float] = []
    for name, ids in _phase_order(T, columns, walk_ks):
        for b in ids:
            if name in ("theta", "ridge"):
                p = b + 1 if name == "theta" else b - T - 2 - len(columns)
                here = [k for k in surveys if (k, p - 1) in seen]
                walks = walk_ks if name == "ridge" else []
                tcells = [k for k in here if not walks or k not in w0]
                refresh = [k for k in here if walks and k in w0]
                ix += [_LEVEL, b, p, len(walks), len(tcells), len(refresh),
                       *walks, *tcells, *refresh]
                fx += [w0[k] for k in walks] + [v for k in tcells + refresh for v in seen[k, p - 1]]
            elif name == "coefficient":
                c = columns[b - T - 2]
                ix += [_COEF, b, c.k, first[c.k], c.j, len(c.rows)]
                fx.append(2.0 * c.var)
                for t, y, n, offset, terms in c.rows:
                    ix += [t + 1, -1] if terms is None else [t + 1, len(terms), *(i for i, _ in terms)]
                    fx += [y, n, offset, *(v for _, v in terms or ())]
            elif name == "walk":
                c = columns[b - T - 2]
                ix += [_WALK, b, c.k, c.j + 1, int((c.k, c.j) in seen)]
                fx += [w0[c.k], *seen.get((c.k, c.j), (0.0, 0.0))]
            else:  # sigma_sq's steps of theta (row -1), or pi_sq's of every walk
                is_pi = name == "pi_sq"
                steps = [(r, p) for p in range(2, T + 2) for r in (walk_ks if is_pi else [-1])]
                ix += [_VAR, b, int(is_pi), len(steps), *(v for step in steps for v in step)]
                fx.append(pr.pi_sq_scale if is_pi else pr.sigma_sq_scale)
    return np.array(ix, dtype=np.int64), np.array(fx, dtype=float), first


def _sample_compiled(
    panel: SurveyPanel, spec: ModelSpec, settings: SamplerSettings, seeds, designs, columns, run
) -> _Part:
    """The chains of ``seeds`` one by one through the compiled sweep ``run``
    (``_chainlib.load``), under the logit-shift approximation only. Each chain
    draws its start and streams as ``_sample_chain`` does and passes each
    stretch of streams to one call, which sweeps it as the chain would; so the
    draws and bookkeeping are the chain's, bit for bit. Every buffer is made
    here and dropped with the fit; the chains write their draws into one array
    per parameter, as a batch does."""
    from ._chainlib import Chain

    T, K = panel.n_times, panel.n_surveys
    R = T + 3
    walk_ks = [k for k, d in enumerate(designs) if None in d.var]
    names = _block_names(T, columns, bool(walk_ks))
    B = len(names)
    ix, fx, first = _flat_schedule(panel, spec, designs, columns, walk_ks)
    C, kept = len(seeds), settings.n_kept
    out_theta = np.empty((C, kept, T + 1))
    out_sig = np.empty((C, kept))
    out_gam = [np.empty((C, kept, len(d.var))) for d in designs]
    out_pi = np.empty((C, kept)) if walk_ks else None
    # a kept survey's draws: its row of lp (a walk) or its coefficients in gam
    kept_ks = [k for k, d in enumerate(designs) if d.var]
    outs = np.array([(1, k * R + 1, T + 1) if k in walk_ks else (0, first[k], len(designs[k].var))
                     for k in kept_ks], dtype=np.int64)
    out_gam_at = np.empty(len(kept_ks), dtype=np.intp)
    chain = Chain(T=T, B=B, monotone=spec.monotone_walk, burn=settings.burn_in,
                  thin=settings.thin, window=settings.adapt_window, n_ix=len(ix),
                  n_out=len(kept_ks), wt0=0.5 / spec.priors.theta0_var,
                  target=settings.target_accept, ix=ix.ctypes.data, fx=fx.ctypes.data,
                  outs=outs.ctypes.data, out_gam=out_gam_at.ctypes.data)
    total = settings.burn_in + settings.n_draws
    books = []
    for c, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        theta, sigma_sq, pi_sq, gam, lphi, ll0 = _start(panel, spec, designs, rng, None)
        th = np.array([spec.priors.theta0_mean, *theta, 0.0])
        lp, ll, nlp, nll = (np.zeros((K, R)) for _ in range(4))
        lp[:, 1 : T + 2] = lphi
        ll[:, 1 : T + 2] = ll0
        flat_gam = np.array([v for k in first for v in gam[k]], dtype=float)
        var = np.array([sigma_sq, pi_sq or 0.0, 0.5 / sigma_sq, 0.5 / pi_sq if pi_sq else 0.0])
        log_scale = np.full(B, math.log(0.5))
        scale = np.full(B, 0.5)
        frozen = np.empty(B)
        acc = np.zeros(B, dtype=np.int64)
        counts = np.zeros(2, dtype=np.int64)
        out_gam_at[:] = [out_gam[k][c].ctypes.data for k in kept_ks]
        for field, a in (("th", th), ("lp", lp), ("ll", ll), ("nlp", nlp), ("nll", nll),
                         ("gam", flat_gam), ("var", var), ("log_scale", log_scale),
                         ("scale", scale), ("frozen", frozen), ("acc", acc), ("counts", counts),
                         ("out_theta", out_theta[c]), ("out_sig", out_sig[c]),
                         ("out_pi", None if out_pi is None else out_pi[c])):
            setattr(chain, field, None if a is None else a.ctypes.data)
        it = 0
        while it < total:
            normals, log_us = (np.ascontiguousarray(a, dtype=float) for a in _refill(rng, B))
            if normals.ndim != 2 or normals.shape[1] != B or log_us.shape != normals.shape:
                raise ValueError(f"a stretch of streams must be two (sweeps, {B}) arrays")
            n = min(len(normals), total - it)
            run(chain, it, n, normals.ctypes.data, log_us.ctypes.data)
            it += n
        books.append(_books(settings, names, acc.tolist(), dict(zip(names, frozen.tolist())),
                            scale.tolist()))
    return _Part(out_theta, out_sig, out_gam, out_pi, books)


_LAST = ((-1,), (slice(None), -1))  # the last entry along axis 0, along axis 1


def _sum_in_turn(a, axis: int):
    """The sum of ``a`` along axis 0 or 1, its terms added in turn, first to
    last, as the chain adds them; 0.0 for an empty axis."""
    return np.add.accumulate(a, axis)[_LAST[axis]] if a.shape[axis] else 0.0


def _pair_prior(cur, prop, two, wp, wn):
    """Change in the two Gaussian step terms around nodes moved from cur to
    prop: ((cur - prev)^2 - (prop - prev)^2) wp + ((nxt - cur)^2 - (nxt - prop)^2) wn,
    with wp and wn the steps' 1 / (2 var) and ``two`` twice the neighbours,
    rows 0..n of a colour's neighbour block: 2 prev = two[:-1], 2 nxt = two[1:]."""
    s = cur + prop
    return (cur - prop) * ((s - two[:-1]) * wp - (two[1:] - s) * wn)


class _Batch:
    """The state of a batch of chains under the logit-shift approximation,
    laid out so that each phase of the sweep reads and writes contiguous
    row blocks.

    Node t of a walk sits at padded column t + 1 of T + 3: column 0 holds the
    prior mean of node 0 (theta0_mean, or 0 for a bias walk), column T + 2 a
    0 whose step weight is 0. Every array is nodes-major with the chains
    last, and split by the parity of the padded column: column p is row
    p // 2 of its parity's block, the even block first, and ``nodes`` lists
    the rows of nodes 0..T. ``th`` is (rows, chains). ``lp`` (log bias odds),
    ``ll`` (cell log-likelihoods), ``Y`` and ``N`` are (rows, surveys,
    chains), bias walks first, so that a bias walk's rows of ``lp`` are its
    coefficient vector; the other coefficients are in ``gam``, (chains,
    coefficients) per survey. An unobserved cell has y = n = 0, so its term
    is 0. The nodes of colour s, t = s, s + 2, ..., are then one row block of
    the other parity, and their predecessors and successors rows 0..n - 1
    and 1..n of one block of s's parity (``colours``).

    Blocks are kept in phase order (``_phase_order``), the order the sweep
    reaches them; ``perm`` lists the block ids in that order. A phase reads
    its steps from D and its log-uniforms from log_u, both (blocks, chains)
    in phase order, and writes its decisions into its rows of ``accepted``;
    the sweep adds them to ``acc``. ``wt`` holds theta's step weights
    1 / (2 var) before and after each node (0 after node T) in the order of
    the theta blocks, and ``wg`` the bias walks'. Node 0 and node T have one
    monotone bound each (``edges``).
    """

    def __init__(self, panel: SurveyPanel, spec: ModelSpec, designs, columns, starts):
        T = panel.n_times
        C = len(starts)
        pr = spec.priors
        walk_ks = [k for k, d in enumerate(designs) if None in d.var]
        W = len(walk_ks)
        order = walk_ks + [k for k in range(len(designs)) if k not in walk_ks]
        row = {k: r for r, k in enumerate(order)}
        S = len(order)
        self.T, self.W, self.order = T, W, order
        self.monotone = spec.monotone_walk

        even = (T + 4) // 2  # rows of the even block: padded columns 0, 2, ..., T + 2
        pos = [p // 2 if p % 2 == 0 else even + p // 2 for p in range(T + 3)]
        self.nodes = np.array(pos[1 : T + 2], dtype=np.intp)
        self.th = np.zeros((T + 3, C))
        self.th[0] = pr.theta0_mean
        self.lp = np.zeros((T + 3, S, C))
        self.ll = np.zeros_like(self.lp)
        self.Y = np.zeros_like(self.lp)
        self.N = np.zeros_like(self.lp)
        for k, t, y, n in panel.observed_cells():
            self.Y[pos[t + 1], row[k]] = y
            self.N[pos[t + 1], row[k]] = n
        self.sig = np.array([s[1] for s in starts])
        self.pi = np.array([s[2] for s in starts]) if W else None
        self.gam = {k: np.array([s[3][k] for s in starts]) for k in order[W:] if designs[k].var}
        for c, (theta, _, _, _, lphi, ll) in enumerate(starts):
            self.th[self.nodes, c] = theta
            for k, r in row.items():
                self.lp[self.nodes, r, c] = lphi[k]
                self.ll[self.nodes, r, c] = ll[k]
        self.sig_prior, self.pi_prior = pr.sigma_sq_scale, pr.pi_sq_scale
        self.walk_rows = np.array([1.0] * W + [0.0] * (S - W))[:, None]

        # colour s: the rows of its nodes, the rows of their neighbours (the
        # predecessors and one more, the last successor), and its theta
        # blocks in phase order; whether it holds node 0 (first) and node T (last)
        sizes = {1: (T + 1) // 2, 0: T // 2 + 1}
        self.colours, self.edges = {}, {}
        for s, start in ((1, 0), (0, sizes[1])):
            n, a, b = sizes[s], pos[s + 1], pos[s]
            self.colours[s] = (slice(a, a + n), slice(b, b + n + 1), slice(start, start + n))
            self.edges[s] = (s == 0, T % 2 == s)
        ends = (sizes[1], T if T % 2 == 0 else sizes[1] - 1)  # node 0's and node T's blocks
        self.wt = np.empty((2, T + 1, C))
        self.wt_ends = (ends[0], 0.5 / pr.theta0_var), (ends[1], 0.0)
        self.wg = np.empty((2, T + 1, W, C))
        var0 = np.array([0.5 / designs[k].var[0] for k in walk_ks])[:, None]
        self.wg_ends = (ends[0], var0), (ends[1], 0.0)
        self._set_weights(False)
        if W:
            self._set_weights(True)

        # block ids in phase order, and where each phase starts among them
        phases = _phase_order(T, columns, walk_ks)
        perm: list[int] = []
        at = {}
        for name, ids in phases:
            at[name] = len(perm)
            perm += ids
        # a coefficient block per non-walk column: its cells' log odds are
        # offset + coef @ gamma, the design's map written out densely
        self.coefs = []
        for i, b in enumerate(dict(phases)["coefficient"]):
            c = columns[b - T - 2]
            coef = np.zeros((len(designs[c.k].var), len(c.rows)))
            for r, (_, _, _, _, terms) in enumerate(c.rows):
                for j, v in ((c.j, 1.0),) if terms is None else terms:
                    coef[j, r] = v
            cells = np.array([pos[r[0] + 1] for r in c.rows], dtype=np.intp)
            ys, ns, offset = (np.array([r[i] for r in c.rows], dtype=float) for i in (1, 2, 3))
            self.coefs.append((at["coefficient"] + i, row[c.k], c.k, c.j, 2.0 * c.var, cells, ys,
                               ns, offset, coef))
        if W:  # the walk and ridge phases' rows by colour, and pi_sq's
            odd = sizes[1]
            self.walk_ph = {1: slice(at["walk"], at["walk"] + odd * W),
                            0: slice(at["walk"] + odd * W, at["pi_sq"])}
            self.pi_ph = at["pi_sq"]
            self.ridge_ph = {1: slice(at["ridge"], at["ridge"] + odd),
                             0: slice(at["ridge"] + odd, len(perm))}
        self.perm = np.array(perm, dtype=np.intp)
        self.ids = np.argsort(self.perm)
        self.accepted = np.zeros((len(perm), C), dtype=bool)
        self.acc = np.zeros((len(perm), C), dtype=np.int64)

    def _set_weights(self, is_pi: bool) -> None:
        """Refill theta's or the bias walks' step weights from the variance."""
        if is_pi:
            w, ends, v = self.wg, self.wg_ends, self.pi
        else:
            w, ends, v = self.wt, self.wt_ends, self.sig
        w[...] = 0.5 / v
        for side, (i, value) in enumerate(ends):
            w[side, i] = value

    def phase_major(self, a):
        """A (chains, ..., blocks) array as (..., blocks in phase order, chains)."""
        return np.ascontiguousarray(np.moveaxis(np.take(a, self.perm, axis=-1), 0, -1))

    def counts(self):
        """Accepts as (chains, blocks) in block-id order."""
        return self.acc[self.ids].T

    def sweep(self, D, log_u) -> None:
        """One sweep, phase by phase in ``_phase_order``."""
        for s in (1, 0):
            self.level(s, D, log_u)
        self.variance(False, D, log_u)
        for block in self.coefs:
            self.coefficient(block, D, log_u)
        if self.W:
            for s in (1, 0):
                self.walk(s, D, log_u)
            self.variance(True, D, log_u)
            for s in (1, 0):
                self.ridge(s, D, log_u)
        self.acc += self.accepted

    def _reflect(self, s, prop, lo, hi) -> None:
        """Reflect colour s's theta proposals into the monotone order, in
        place: into [lo, hi], and off the one bound of node 0 and of node T.
        A node whose neighbours are tied has nowhere to move: its reflection
        divides by 0 and leaves nan, whose ratio rejects."""
        first, last = self.edges[s]
        out = (prop < lo) | (prop > hi)
        if first:  # node 0: nothing below
            out[0] = prop[0] > hi[0]
        if last:  # node T: nothing above
            out[-1] = prop[-1] < lo[-1]
        if np.count_nonzero(out):
            w = hi - lo
            w2 = 2.0 * w
            r = np.mod(prop - lo, w2)
            into = lo + np.where(r <= w, r, w2 - r)
            if first:
                into[0] = 2.0 * hi[0] - prop[0]
            if last:
                into[-1] = 2.0 * lo[-1] - prop[-1]
            np.copyto(prop, into, where=out)

    def _in_order(self, s, a, prop, lo, hi) -> None:
        """Reject, in place, colour s's lanes of ``a`` whose proposal leaves
        the monotone order."""
        first, last = self.edges[s]
        ok = prop >= lo
        if first:
            ok[0] = True
        a &= ok
        ok = np.less_equal(prop, hi, out=ok)
        if last:
            ok[-1] = True
        a &= ok

    def level(self, s, D, log_u) -> None:
        """theta moves at colour s, reflected into the monotone order."""
        nodes, around, ph = self.colours[s]
        th = self.th
        cur, near = th[nodes], th[around]
        prop = cur + D[ph]
        if self.monotone:
            self._reflect(s, prop, near[:-1], near[1:])
        d = _pair_prior(cur, prop, 2.0 * near, self.wt[0, ph], self.wt[1, ph])
        x = prop[:, None] + self.lp[nodes]
        v = self.Y[nodes] * x - self.N[nodes] * np.logaddexp(0.0, x)
        lls = self.ll[nodes]
        d += _sum_in_turn(v - lls, 1)
        a = np.less(log_u[ph], d, out=self.accepted[ph])
        np.copyto(cur, prop, where=a)
        np.copyto(lls, v, where=a[:, None])

    def variance(self, is_pi: bool, D, log_u) -> None:
        """The sigma_sq or pi_sq move on the log scale."""
        T = self.T
        if is_pi:
            bid, v, prior_sq, count = self.pi_ph, self.pi, self.pi_prior, self.W * T
            g = self.lp[self.nodes, : self.W]
        else:
            bid, v, prior_sq, count = T + 1, self.sig, self.sig_prior, T
            g = self.th[self.nodes]
        steps = g[1:] - g[:-1]
        # t-major, every walk at one t side by side
        sse = _sum_in_turn((steps * steps).reshape(-1, len(v)), 0)
        # math.log and math.exp, as in the scalar sweep: numpy's SIMD loops
        # may round differently on another CPU, and these values are kept
        lcur = np.fromiter(map(math.log, v), float, len(v))
        lprop = lcur + D[bid]
        vprop = np.fromiter(map(math.exp, lprop), float, len(v))
        d = (
            (v * v - vprop * vprop) / (2.0 * prior_sq)
            + 0.5 * count * (lcur - lprop)
            + 0.5 * sse * (1.0 / v - 1.0 / vprop)
            + (lprop - lcur)
        )
        a = np.less(log_u[bid], d, out=self.accepted[bid])
        np.copyto(v, vprop, where=a)
        self._set_weights(is_pi)

    def coefficient(self, block, D, log_u) -> None:
        """One non-walk coefficient on every chain, with all the cells of its
        column, as (chains, cells)."""
        bid, r, k, j, two_var, cells, ys, ns, offset, coef = block
        gk = self.gam[k]
        cur = gk[:, j].copy()
        prop = cur + D[bid]
        d = (cur * cur - prop * prop) / two_var
        gk[:, j] = prop
        g = offset
        for i in range(len(coef)):
            g = g + coef[i] * gk[:, i, None]
        x = np.take(self.th.T, cells, axis=1) + g
        v = ys * x - ns * np.logaddexp(0.0, x)
        lps, lls = self.lp[:, r].T, self.ll[:, r].T  # (chains, rows)
        old = np.take(lls, cells, axis=1)
        d += _sum_in_turn(v - old, 1)
        a = np.less(log_u[bid], d, out=self.accepted[bid])
        gk[:, j] = np.where(a, prop, cur)
        a = a[:, None]
        lps[:, cells] = np.where(a, g, np.take(lps, cells, axis=1))
        lls[:, cells] = np.where(a, v, old)

    def walk(self, s, D, log_u) -> None:
        """Bias-walk coefficient moves at colour s, every walk survey at once."""
        nodes, around, ph = self.colours[s]
        W = self.W
        rows = self.walk_ph[s]
        shape = (nodes.stop - nodes.start, W, -1)
        lp = self.lp
        cur = lp[nodes, :W]
        prop = cur + D[rows].reshape(shape)
        d = _pair_prior(cur, prop, 2.0 * lp[around, :W], self.wg[0, ph], self.wg[1, ph])
        x = self.th[nodes, None] + prop
        v = self.Y[nodes, :W] * x - self.N[nodes, :W] * np.logaddexp(0.0, x)
        lls = self.ll[nodes, :W]
        d += v - lls
        a = np.less(log_u[rows].reshape(shape), d, out=self.accepted[rows].reshape(shape))
        np.copyto(cur, prop, where=a)
        np.copyto(lls, v, where=a)

    def ridge(self, s, D, log_u) -> None:
        """Ridge moves at colour s: theta[t] and, against it, every bias walk at t.
        The walk cells are invariant, so the ratio skips them and an accept
        refreshes them; a proposal outside the monotone order is rejected."""
        nodes, around, ph = self.colours[s]
        W = self.W
        rows = self.ridge_ph[s]
        th = self.th
        cur, near = th[nodes], th[around]
        delta = D[rows]
        prop = cur + delta
        d = _pair_prior(cur, prop, 2.0 * near, self.wt[0, ph], self.wt[1, ph])
        lp = self.lp
        lps = lp[nodes]
        lnew = lps - delta[:, None] * self.walk_rows
        d += _sum_in_turn(_pair_prior(lps[:, :W], lnew[:, :W], 2.0 * lp[around, :W],
                                      self.wg[0, ph], self.wg[1, ph]), 1)
        x = prop[:, None] + lnew
        v = self.Y[nodes] * x - self.N[nodes] * np.logaddexp(0.0, x)
        lls = self.ll[nodes]
        d += _sum_in_turn(v[:, W:] - lls[:, W:], 1)
        a = np.less(log_u[rows], d, out=self.accepted[rows])
        if self.monotone:
            self._in_order(s, a, prop, near[:-1], near[1:])
        np.copyto(cur, prop, where=a)
        a3 = a[:, None]
        np.copyto(lps, lnew, where=a3)
        np.copyto(lls, v, where=a3)


def _sample_batch(
    panel: SurveyPanel, spec: ModelSpec, settings: SamplerSettings, seeds, designs, columns
) -> _Part:
    """The chains of ``seeds``, swept together as one ``_Batch``; the
    logit-shift approximation only. Each chain draws its start and then its
    streams (``_refill``) from its own generator, so its draws do not depend
    on which chains share the batch."""
    T = panel.n_times
    rngs = [np.random.default_rng(s) for s in seeds]
    batch = _Batch(panel, spec, designs, columns,
                   [_start(panel, spec, designs, rng, None) for rng in rngs])
    names = _block_names(T, columns, batch.W > 0)
    C, B = len(rngs), len(names)
    log_scale = [[math.log(0.5)] * B for _ in rngs]
    scale_rows = [[0.5] * B for _ in rngs]
    scale = batch.phase_major(np.array(scale_rows))
    acc = batch.acc
    n_windows = 0

    window = settings.adapt_window
    burn = settings.burn_in
    thin = settings.thin
    total = burn + settings.n_draws
    kept = settings.n_kept
    nodes = batch.nodes
    out_theta = np.empty((C, kept, T + 1))
    out_sig = np.empty((C, kept))
    out_gam = [np.empty((C, kept, len(d.var))) for d in designs]
    out_pi = np.empty((C, kept)) if batch.W else None
    keep_i = 0
    frozen: list[dict[str, float]] = []
    sweep = chunk = 0
    with np.errstate(all="ignore"):  # inf and nan arise only in rejected lanes
        for it in range(total):
            if it == burn:
                frozen = [dict(zip(names, row)) for row in scale_rows]
                acc[:] = 0  # a partial window at the freeze point is dropped
            if sweep == chunk:
                normals, log_us = zip(*(_refill(rng, B) for rng in rngs))
                z = batch.phase_major(np.stack(normals))
                log_u = batch.phase_major(np.stack(log_us))
                chunk, sweep = len(z), 0
            batch.sweep(scale * z[sweep], log_u[sweep])
            sweep += 1

            if it < burn and (it + 1) % window == 0:
                n_windows += 1
                for c, counts in enumerate(batch.counts().tolist()):
                    _close_window(log_scale[c], scale_rows[c], counts, settings, n_windows)
                scale = batch.phase_major(np.array(scale_rows))
                acc[:] = 0

            if it >= burn and (it - burn) % thin == thin - 1:
                out_theta[:, keep_i] = batch.th[nodes].T
                out_sig[:, keep_i] = batch.sig
                for r, k in enumerate(batch.order):
                    if r < batch.W:
                        out_gam[k][:, keep_i] = batch.lp[nodes, r].T
                    elif k in batch.gam:
                        out_gam[k][:, keep_i] = batch.gam[k]
                if out_pi is not None:
                    out_pi[:, keep_i] = batch.pi
                keep_i += 1

    books = [_books(settings, names, counts, frozen[c], scale_rows[c])
             for c, counts in enumerate(batch.counts().tolist())]
    return _Part(out_theta, out_sig, out_gam, out_pi, books)


# Lanes (chains x time-points) from which a group of chains sweeps as one
# batch; a speed choice only, since both engines give the same draws. Batch
# time over chain-by-chain time per chain-sweep, median of 10 interleaved
# pairs of 1500 sweeps in one process on a 2-vCPU x86-64 host, Python 3.11,
# numpy 2.4 (batch faster in how many pairs). Vaccine panel (T = 48, two
# walk surveys): 1.06 and 1.05 at 98 lanes (2 chains; 2 of 10 twice); 0.84,
# 0.87 and 0.95 at 147 (3 chains; 8, 10 and 8 of 10 in three rounds); 0.62
# and 0.69 at 196 (4 chains; 10 of 10 twice). Demo panel (T = 10, anchor +
# linear + walk; 10 of 10 each): 0.84 at 99 (9 chains), 0.63 and 0.71 at
# 143, 0.59 at 154. The batch wins 9 of 10 pairs on both panels only above
# 147 lanes.
BATCH_MIN_LANES = 148


def _group_job(args) -> list[_Part]:
    """One contiguous group of a fit's chains. Given the compiled sweep's
    library, and when it loads, the group runs through it whatever its width;
    else it sweeps as one batch under the logit-shift approximation when it
    has at least BATCH_MIN_LANES lanes (chains x (T + 1)), else chain by
    chain. Each way each chain gets the same draws."""
    panel, spec, settings, seeds, designs, columns, library = args
    if library is not None:
        from ._chainlib import load

        run = load(library)
        if run is not None:
            return [_sample_compiled(panel, spec, settings, seeds, designs, columns, run)]
    if not spec.use_exact_nchg and len(seeds) * (panel.n_times + 1) >= BATCH_MIN_LANES:
        return [_sample_batch(panel, spec, settings, seeds, designs, columns)]
    return [_sample_chain(panel, spec, settings, seed, designs, columns) for seed in seeds]


def sweep_library(spec: ModelSpec) -> str | None:
    """The path of the compiled sweep's library for a fit of ``spec``, found
    in the cache or built on the first call in a process
    (``_chainlib.library``); None for an exact-kernel fit, which never loads
    it, or when it cannot be had. Call it before starting worker processes,
    so that they only load it."""
    if spec.use_exact_nchg:
        return None
    from . import _chainlib

    return _chainlib.library()


def resolve_workers(workers: int | None = None) -> int:
    """The process count to use: ``workers``, else the SURVEYSYNTH_WORKERS
    environment variable, else 1 (serial).

    Raises ValueError naming the source unless the count is an integer >= 1;
    a passed bool or float is not one.
    """
    if workers is not None:
        check_count("workers", workers, 1)
        return int(workers)
    value = os.environ.get("SURVEYSYNTH_WORKERS", "1")
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"SURVEYSYNTH_WORKERS must be an integer >= 1, got {value!r}")
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


def _stack_chains(parts: list[_Part], spec: ModelSpec, settings: SamplerSettings) -> ChainDraws:
    """One ChainDraws from the engines' parts: draws concatenated along the
    chain axis (a single part's arrays are used as they are), acceptance
    rates averaged over chains, and scales keyed chain<i>:<block>."""
    books = [b for part in parts for b in part.books]
    if len(parts) == 1:
        theta, sigma_sq, gamma, pi_sq, _ = parts[0]
    else:
        theta = np.concatenate([p.theta for p in parts])
        sigma_sq = np.concatenate([p.sigma_sq for p in parts])
        gamma = [np.concatenate(g) for g in zip(*(p.gamma for p in parts))]
        pi_sq = None if parts[0].pi_sq is None else np.concatenate([p.pi_sq for p in parts])
    acceptance = {name: float(np.mean([b[0][name] for b in books])) for name in books[0][0]}
    scales_burn: dict[str, float] = {}
    scales_final: dict[str, float] = {}
    for ci, (_, frozen, final) in enumerate(books):
        for name, v in frozen.items():
            scales_burn[f"chain{ci}:{name}"] = v
        for name, v in final.items():
            scales_final[f"chain{ci}:{name}"] = v
    return ChainDraws(
        theta=theta,
        sigma_sq=sigma_sq,
        gamma=tuple(gamma),
        pi_sq=pi_sq,
        spec=spec,
        settings=settings,
        acceptance_rates=acceptance,
        scales_end_of_burnin=scales_burn,
        scales_final=scales_final,
    )


def run_chains(
    panel: SurveyPanel,
    spec: ModelSpec,
    settings: SamplerSettings | None = None,
    workers: int | None = None,
) -> ChainDraws:
    """Run ``settings.n_chains`` independent chains and stack their draws.

    The chains are split into min(workers, n_chains) contiguous groups, one
    job each (``_group_job``, spread by ``map_jobs``). Chain seeds are spawned
    from ``settings.seed``, and a chain's draws do not depend on its group or
    on how the group is swept, so results are reproducible bit-for-bit
    regardless of ``workers``. The model is compiled once and shared by every
    chain.
    """
    if settings is None:
        settings = SamplerSettings()
    designs, columns = _validate_inputs(panel, spec)
    n = settings.n_chains
    seeds = np.random.SeedSequence(settings.seed).spawn(n)
    groups = min(resolve_workers(workers), n)
    cuts = [n * g // groups for g in range(groups + 1)]
    library = sweep_library(spec)  # found or built here, so that the workers only load it
    jobs = [(panel, spec, settings, seeds[a:b], designs, columns, library)
            for a, b in zip(cuts, cuts[1:])]
    parts = [part for group in map_jobs(_group_job, jobs, workers) for part in group]
    return _stack_chains(parts, spec, settings)


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
            j = design.own(t)
            if j is not None:
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
