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
by (accepts / window - target) / sqrt(windows closed so far). After burn-in
the same counts give the acceptance rates. Scales are snapshotted at the
freeze point and at the end so callers can check that no post-burn-in
adaptation happened.

The sweep is laid out in one place, ``_flat_schedule``, which lists its
blocks in phase order as tuples, and one driver, ``_sample``, runs it. The
driver draws each chain's start and each stretch of its streams, lays out
the chain's state as the compiled sweep's ``struct chain`` (``_chain.c``)
does, and hands each stretch to one of the two interpreters, which give the
same draws, bit for bit: ``_run_python`` reads the tuples, the compiled
sweep their packing into an int and a float array (``_pack``). The
compiled sweep runs approximate and exact fits alike. It calls libm's exp,
expm1, log1p, log and sqrt, as Python's math module does, and a copy of
CPython's own lgamma, and is compiled at ``-O2 -ffp-contract=off``, so no
multiply-add is fused. ``_run_python`` is its port on plain Python floats, under the
approximation, softplus as ``np.logaddexp(0, x)`` computes it, or the exact
kernel (``_exact_cell``, one call per cell, whose pmf ``dists`` evaluates in
the same libm terms). Which cells a block touches, and in what order, is
decided in one place. Every sum in a log ratio adds its terms in turn, first
to last: a level move's cells walks first, a ridge move's walk priors and
then its other cells, a coefficient's cells in t order, a variance's squared
steps t-major with every walk at one t side by side.
The chain keeps each observed cell's log bias odds (lp) and log-likelihood
(ll); a block evaluates the cells it touches at the proposal only, and an
accepted move copies the new values over, so ll equals a fresh evaluation
and a touched cell costs one kernel call per block. A group's draws go
into one array per parameter with a leading chain axis (``_draw_arrays``,
``_Part``), and each chain's bookkeeping into ``_books``. A chain's start
fails before the first sweep when a cell is not finite
(``InitializationError``). The likelihood module is the reference density
the sampler is tested against; the sampler does not use it.

``run_chains`` splits a fit's chains into min(workers, n_chains) contiguous
groups, one job each (``_group_job``). It first finds the compiled
sweep's library in its cache or builds it (``_chainlib.library``, once per
process), before any worker starts, so that workers only load it; then
every group runs through it. When the library cannot be had (no compiler, a
failed build, a file that will not load), a group runs through
``_run_python``. No draw depends on the route or the grouping, so both are
speed choices only. A group gives one ``_Part`` on either route, and when
one group holds every chain, its arrays are the fit's draws.

``split_stats`` scores split-chain R-hat and ESS for a whole stack of
series at once, bit for bit as ``r_hat`` and ``ess`` score one. R-hat reads
no autocovariance, so the FFT runs only over the series whose ESS is asked
for (``ess_of``). ``diagnose`` scores every parameter's R-hat in one call,
and the ESS of every parameter or only of the named ones: the now-cast's
and the simulation study's fits name theta at their last time point, the
one ESS their rate row reads. ``summarize`` scores every ESS, and adds one
call for the bias-odds rows that are not a coefficient's own series.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .core import (
    ChainDraws,
    ModelSpec,
    SummaryRow,
    SummaryTable,
    SurveyPanel,
    bias_designs,
    check_alpha,
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
            x = theta[t] + lphi[k][t]  # softplus as the sweep computes it
            ll[k][t] = y * x - n * (x + math.log1p(math.exp(-x)) if x > 0.0
                                    else math.log1p(math.exp(x)))
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


_LEVEL, _COEF, _WALK, _VAR = range(4)  # block kinds, numbered as the compiled sweep's (_chain.c)
_KIND = dict(theta=_LEVEL, sigma_sq=_VAR, coefficient=_COEF, walk=_WALK, pi_sq=_VAR, ridge=_LEVEL)


def _flat_schedule(panel: SurveyPanel, spec: ModelSpec, designs, columns, walk_ks):
    """The sweep's blocks in phase order (``_phase_order``): (runs, first).

    first holds each non-walk survey's first coefficient in the chain's flat
    gamma. runs holds one (kind, blocks) run per non-empty phase, each block
    a tuple over flat indices at = survey * R + p into the chain's lp, ll,
    nlp and nll, node t at p = t + 1 as in the chain's padded rows (R = T +
    3). This is the one layout table of the schedule. ``_run_python`` reads
    it as it is; ``_chain.c`` reads its packing (``_pack``), in which each
    block's kind comes first, then its items in turn: an int goes to ix, a
    float to fx, a list puts its length into ix and then its items, a tuple
    puts its items.
      LEVEL  (id, p, walks as [(at, weight before node 0)], counted cells as
             [(at, y, n, shift)], refreshed cells as [(at, y, n)])
      COEF   (id, its index in gam, 2 var, rows as [(p, at, y, n, offset,
             terms as [(index in gam, c)])], the rows' [at]); the log odds
             of a row with no terms are the coefficient itself
      WALK   (id, at, p, weight before node 0, observed, y, n); y and n are
             0.0 where unobserved
      VAR    (id, is_pi, each step's [at] in th or lp, prior scale)

    A level move counts the cells at its node, walks first. Under the
    logit-shift approximation a ridge move leaves its walk cells unchanged,
    so its ratio skips them and an accept refreshes them. Under the exact
    kernel it counts every cell and refreshes none, and a counted cell of one
    of its walks is read at the shifted odds (shift 1.0).
    """
    T = panel.n_times
    R = T + 3
    pr = spec.priors
    first, at = {}, 0
    for k, d in enumerate(designs):
        if k not in walk_ks:
            first[k], at = at, at + len(d.var)
    seen = {(k, t): (float(y), float(n)) for k, t, y, n in panel.observed_cells()}
    w0 = {k: float(0.5 / designs[k].var[0]) for k in walk_ks}
    surveys = walk_ks + [k for k in range(len(designs)) if k not in w0]
    here = [[k for k in surveys if (k, t) in seen] for t in range(T + 1)]
    ridge0 = T + 3 + len(columns)  # the id of joint[0]
    runs: list[tuple[int, list]] = []
    for name, ids in _phase_order(T, columns, walk_ks):
        kind, blocks = _KIND[name], []
        for b in ids:
            if kind == _LEVEL:
                t = b if name == "theta" else b - ridge0
                p = t + 1
                walks = walk_ks if name == "ridge" else []
                counted, refresh = here[t], []
                if walks and not spec.use_exact_nchg:
                    counted = [k for k in here[t] if k not in w0]
                    refresh = [k for k in here[t] if k in w0]
                blocks.append((b, p, [(k * R + p, w0[k]) for k in walks],
                               [(k * R + p, *seen[k, t], float(k in walks)) for k in counted],
                               [(k * R + p, *seen[k, t]) for k in refresh]))
            elif kind == _COEF:
                c = columns[b - T - 2]
                at0 = first[c.k]
                rows = [(t + 1, c.k * R + t + 1, y, n, offset,
                         [(at0 + i, v) for i, v in terms or ()])
                        for t, y, n, offset, terms in c.rows]
                blocks.append((b, at0 + c.j, float(2.0 * c.var), rows, [r[1] for r in rows]))
            elif kind == _WALK:
                c = columns[b - T - 2]
                cell = seen.get((c.k, c.j))
                blocks.append((b, c.k * R + c.j + 1, c.j + 1, w0[c.k], int(cell is not None),
                               *(cell or (0.0, 0.0))))
            else:  # sigma_sq's steps of theta or pi_sq's of every walk, t-major
                is_pi = int(name == "pi_sq")
                steps = ([r * R + p for p in range(2, T + 2) for r in walk_ks] if is_pi
                         else list(range(2, T + 2)))
                prior_sq = float(pr.pi_sq_scale if is_pi else pr.sigma_sq_scale)
                blocks.append((b, is_pi, steps, prior_sq))
        if blocks:
            runs.append((kind, blocks))
    return runs, first


def _pack(runs):
    """``_chain.c``'s form of the schedule ``runs``: (ix, fx), by ``_flat_schedule``'s rule."""
    ix: list[int] = []
    fx: list[float] = []

    def put(items, to_ix=ix.append, to_fx=fx.append):  # bound once: it runs per item
        for v in items:
            kind = type(v)
            if kind is int:
                to_ix(v)
            elif kind is float:
                to_fx(v)
            elif kind is tuple or kind is list:
                if kind is list:
                    to_ix(len(v))
                put(v)
            else:
                raise TypeError(f"cannot pack {v!r} of type {kind.__name__} into the schedule")

    for kind, blocks in runs:
        for block in blocks:
            put((kind, *block))
    return np.array(ix, dtype=np.int64), np.array(fx, dtype=float)


def _draw_arrays(designs, n_chains: int, settings: SamplerSettings, n_times: int, walk: bool):
    """A group's draw arrays, each (chains, kept, ...): theta, sigma_sq, one
    per survey of its coefficients (a bias walk's log odds), and pi_sq, or
    None without a bias walk."""
    C, kept = n_chains, settings.n_kept
    return (np.empty((C, kept, n_times + 1)), np.empty((C, kept)),
            [np.empty((C, kept, len(d.var))) for d in designs],
            np.empty((C, kept)) if walk else None)


def _run_python(c, it0: int, sweeps: int, normals, log_us) -> None:
    """``ss_chain_run`` of ``_chain.c`` on plain Python floats: sweeps it0 ..
    it0 + sweeps - 1 of the chain ``c`` (``_sample``), reading sweep i's steps
    and log-uniforms from row i of the stretch ``normals`` and ``log_us``,
    with the freeze, the adaptation windows and thinning. Under the
    logit-shift approximation the cell term x = theta + g, y*x -
    n*softplus(x), is written out inline, softplus as np.logaddexp(0, x)
    computes it; the exact kernel's cell is a call (``c.cell_ll``). The
    chain's state is in lists, which it updates in place."""
    th, lp, ll, nlp, nll, gam = c.th, c.lp, c.ll, c.nlp, c.nll, c.gam
    log_scale, scale, frozen, acc, counts = c.log_scale, c.scale, c.frozen, c.acc, c.counts
    # sigma_sq, pi_sq and their step weights 1 / (2 var)
    sigma_sq, pi_sq, wsig, wpi = c.var
    T, B, monotone, wt0 = c.T, c.B, c.monotone, c.wt0
    burn, thin, window, target = c.burn, c.thin, c.window, c.target
    cell_ll = c.cell_ll
    exact = cell_ll is not None
    out_theta, out_sig, out_pi = c.out_theta, c.out_sig, c.out_pi
    kept = [(lp if from_lp else gam, at, at + length, out)
            for (from_lp, at, length), out in zip(c.outs, c.out_gam)]
    exp_ = math.exp
    log1p_ = math.log1p
    log_ = math.log

    for it, z, lu in zip(range(it0, it0 + sweeps), normals.tolist(), log_us.tolist()):
        if it == burn:
            frozen[:] = scale
            acc[:] = [0] * B  # a partial window at the freeze point is dropped

        for kind, blocks in c.schedule:
            if kind == _LEVEL:
                for bid, p, walks, cells, refresh in blocks:
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
                        for a, wfirst in walks:
                            gc = lp[a]
                            gn = gc - delta
                            sg = gc + gn
                            ws += (gc - gn) * ((sg - 2.0 * lp[a - 1]) * (wpi if p > 1 else wfirst)
                                               - (2.0 * lp[a + 1] - sg) * (wpi if p <= T else 0.0))
                        d += ws
                    cs = 0.0
                    if exact:
                        for a, y, n, shift in cells:
                            v = nll[a] = cell_ll(prop, lp[a] - shift * delta, y, n)
                            cs += v - ll[a]
                    else:
                        for a, y, n, _ in cells:
                            x = prop + lp[a]
                            v = y * x - n * (x + log1p_(exp_(-x)) if x > 0.0 else log1p_(exp_(x)))
                            nll[a] = v
                            cs += v - ll[a]
                    d += cs
                    if lu[bid] < d:
                        th[p] = prop
                        for a, _, _, _ in cells:
                            ll[a] = nll[a]
                        if walks:
                            for a, _ in walks:
                                lp[a] -= delta
                            for a, y, n in refresh:
                                x = prop + lp[a]
                                ll[a] = y * x - n * (x + log1p_(exp_(-x)) if x > 0.0
                                                     else log1p_(exp_(x)))
                        acc[bid] += 1

            elif kind == _COEF:  # propose gamma[j], add its prior term, then
                # re-evaluate each cell in its column at offset + sum of c * gamma
                for bid, gj, two_var, rows, ats in blocks:
                    cur = gam[gj]
                    prop = cur + scale[bid] * z[bid]
                    d = (cur * cur - prop * prop) / two_var
                    gam[gj] = prop
                    cs = 0.0
                    for p, a, y, n, g, terms in rows:  # g starts as the row's offset
                        if not terms:
                            g = prop
                        for gi, cf in terms:
                            g = g + cf * gam[gi]
                        if exact:
                            v = cell_ll(th[p], g, y, n)
                        else:
                            x = th[p] + g
                            v = y * x - n * (x + log1p_(exp_(-x)) if x > 0.0 else log1p_(exp_(x)))
                        nlp[a] = g
                        nll[a] = v
                        cs += v - ll[a]
                    d += cs
                    if lu[bid] < d:
                        for a in ats:
                            lp[a] = nlp[a]
                            ll[a] = nll[a]
                        acc[bid] += 1
                    else:
                        gam[gj] = cur

            elif kind == _WALK:
                for bid, a, p, wfirst, observed, y, n in blocks:
                    cur = lp[a]
                    prop = cur + scale[bid] * z[bid]
                    s = cur + prop
                    d = (cur - prop) * ((s - 2.0 * lp[a - 1]) * (wpi if p > 1 else wfirst)
                                        - (2.0 * lp[a + 1] - s) * (wpi if p <= T else 0.0))
                    if observed:
                        if exact:
                            v = cell_ll(th[p], prop, y, n)
                        else:
                            x = th[p] + prop
                            v = y * x - n * (x + log1p_(exp_(-x)) if x > 0.0 else log1p_(exp_(x)))
                        d += v - ll[a]
                    if lu[bid] < d:
                        lp[a] = prop
                        if observed:
                            ll[a] = v
                        acc[bid] += 1

            else:  # sigma_sq or pi_sq, on the log scale against its walk steps
                for bid, is_pi, steps, prior_sq in blocks:
                    g = lp if is_pi else th
                    v = pi_sq if is_pi else sigma_sq
                    sse = 0.0
                    for a in steps:
                        dd = g[a] - g[a - 1]
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
            counts[1] += 1
            root = math.sqrt(counts[1])
            for b in range(B):
                log_scale[b] += (acc[b] / window - target) / root
                scale[b] = exp_(log_scale[b])
                acc[b] = 0

        if it >= burn and (it - burn) % thin == thin - 1:
            i = counts[0]
            counts[0] += 1
            out_theta[i] = th[1 : T + 2]
            out_sig[i] = sigma_sq
            for src, lo, hi, out in kept:
                out[i] = src[lo:hi]
            if out_pi is not None:
                out_pi[i] = pi_sq

    c.var[:] = (sigma_sq, pi_sq, wsig, wpi)


def _sample(
    panel: SurveyPanel, spec: ModelSpec, settings: SamplerSettings, seeds, designs, columns, run
) -> _Part:
    """The chains of ``seeds`` one by one, each writing its draws into its
    row of the group's arrays (``_draw_arrays``). A chain draws its start
    (``_start``) and each stretch of its streams (``_refill``), lays out its
    state as ``struct chain`` of ``_chain.c`` does, and hands each stretch to
    ``run``: the compiled sweep (``_chainlib.load``) or, when ``run`` is
    None, ``_run_python``. Both read one schedule (``_flat_schedule``), so
    the draws and bookkeeping are the same either way, bit for bit. Every
    buffer is made here and dropped with the fit."""
    T, K = panel.n_times, panel.n_surveys
    R = T + 3
    walk_ks = [k for k, d in enumerate(designs) if None in d.var]
    names = _block_names(T, columns, bool(walk_ks))
    B = len(names)
    runs, first = _flat_schedule(panel, spec, designs, columns, walk_ks)
    out_theta, out_sig, out_gam, out_pi = _draw_arrays(designs, len(seeds), settings, T,
                                                       bool(walk_ks))
    # a kept survey's draws: its row of lp (a walk) or its coefficients in gam
    kept_ks = [k for k, d in enumerate(designs) if d.var]
    outs = np.array([(1, k * R + 1, T + 1) if k in walk_ks else (0, first[k], len(designs[k].var))
                     for k in kept_ks], dtype=np.int64)
    cell_ll = _exact_cell(panel.population) if spec.use_exact_nchg else None
    fixed = dict(T=T, B=B, monotone=spec.monotone_walk, burn=settings.burn_in,
                 thin=settings.thin, window=settings.adapt_window,
                 wt0=0.5 / spec.priors.theta0_var, target=settings.target_accept)
    if run is None:
        chain = SimpleNamespace(**fixed, schedule=runs, cell_ll=cell_ll, outs=outs.tolist())
    else:
        from ._chainlib import Chain

        ix, fx = _pack(runs)
        out_gam_at = np.empty(len(kept_ks), dtype=np.intp)
        # an exact cell's window is at most its n + 1 counts
        win = np.empty(1 + max((int(n) for *_, n in panel.observed_cells()), default=0))
        chain = Chain(**fixed, n_ix=len(ix), n_out=len(kept_ks), ix=ix.ctypes.data,
                      fx=fx.ctypes.data, outs=outs.ctypes.data, out_gam=out_gam_at.ctypes.data,
                      population=panel.population, exact=spec.use_exact_nchg,
                      win=win.ctypes.data)
    total = settings.burn_in + settings.n_draws
    books = []
    for c, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        theta, sigma_sq, pi_sq, gam, lphi, ll0 = _start(panel, spec, designs, rng, cell_ll)
        # a survey's row of lp, ll, nlp and nll is T + 3 long: node t at t + 1,
        # padded with 0 (a bias walk's prior mean before node 0); th is padded
        # with theta0_mean before node 0 and 0 after node T
        state = dict(th=[spec.priors.theta0_mean, *theta, 0.0],
                     lp=[v for row in lphi for v in (0.0, *row, 0.0)],
                     ll=[v for row in ll0 for v in (0.0, *row, 0.0)],
                     nlp=[0.0] * (K * R), nll=[0.0] * (K * R),
                     gam=[v for k in first for v in gam[k]],
                     var=[sigma_sq, pi_sq or 0.0, 0.5 / sigma_sq, 0.5 / pi_sq if pi_sq else 0.0],
                     log_scale=[math.log(0.5)] * B, scale=[0.5] * B, frozen=[0.0] * B,
                     acc=[0] * B, counts=[0, 0])  # counts: draws kept, windows closed
        outs_c = dict(out_theta=out_theta[c], out_sig=out_sig[c],
                      out_pi=None if out_pi is None else out_pi[c])
        if run is None:
            vars(chain).update(state, **outs_c, out_gam=[out_gam[k][c] for k in kept_ks])
        else:
            state = {name: np.array(v, dtype=np.int64 if name in ("acc", "counts") else float)
                     for name, v in state.items()}
            out_gam_at[:] = [out_gam[k][c].ctypes.data for k in kept_ks]
            for field, a in {**state, **outs_c}.items():
                setattr(chain, field, None if a is None else a.ctypes.data)
        it = 0
        while it < total:
            normals, log_us = (np.ascontiguousarray(a, dtype=float) for a in _refill(rng, B))
            if normals.ndim != 2 or normals.shape[1] != B or log_us.shape != normals.shape:
                raise ValueError(f"a stretch of streams must be two (sweeps, {B}) arrays")
            n = min(len(normals), total - it)
            if run is None:
                _run_python(chain, it, n, normals, log_us)
            else:
                run(chain, it, n, normals.ctypes.data, log_us.ctypes.data)
            it += n
        acc, frozen, scale = (np.asarray(state[name]).tolist()
                              for name in ("acc", "frozen", "scale"))
        books.append(_books(settings, names, acc, dict(zip(names, frozen)), scale))
    return _Part(out_theta, out_sig, out_gam, out_pi, books)


def _group_job(args) -> _Part:
    """One contiguous group of a fit's chains: through the compiled sweep
    when its library is given and loads, else through ``_run_python``. Each
    way each chain gets the same draws, and the group gives one ``_Part``."""
    panel, spec, settings, seeds, designs, columns, library = args
    run = None
    if library is not None:
        from ._chainlib import load

        run = load(library)
    return _sample(panel, spec, settings, seeds, designs, columns, run)


def sweep_library() -> str | None:
    """The path of the compiled sweep's library, found in the cache or built
    on the first call in a process (``_chainlib.library``); None when it
    cannot be had. Call it before starting worker processes, so that they
    only load it."""
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

    The one place that starts worker processes. Each many-fit workload maps
    its fits once (``analysis.nowcast_series`` its t*, the ``simstudy`` grid
    its reps), and each of those fits runs its chains serially, so no pool
    nests; ``run_chains`` maps chain groups only for a single fit. Results
    come back in job order, so they do not depend on the worker count when
    every job seeds itself.
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
    names = list(books[0][0])
    rates = np.array([[b[0][name] for b in books] for name in names])  # (blocks, chains)
    acceptance = dict(zip(names, rates.mean(axis=1).tolist()))
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
    library = sweep_library()  # found or built here, so that the workers only load it
    jobs = [(panel, spec, settings, seeds[a:b], designs, columns, library)
            for a, b in zip(cuts, cuts[1:])]
    parts = map_jobs(_group_job, jobs, groups)
    return _stack_chains(parts, spec, settings)


# ---------------------------------------------------------------------------
# convergence diagnostics


def split_stats(series, ess_of=None) -> tuple[np.ndarray, np.ndarray]:
    """Split-chain R-hat and ESS of every series in a stack, as two arrays.

    ``series`` is a (P, chains, draws) array or a list of P equal-shaped
    (chains, draws) arrays. Each series is split into half-chains and scored
    exactly as ``r_hat`` and ``ess`` score it alone, bit for bit: every
    reduction runs along the same axis in the same order, and the FFT is one
    batched call over the half-chains. R-hat reads no autocovariance, so
    ``ess_of``, the indices of the series whose ESS is wanted (None: every
    series), limits the FFT to those; the other ESS entries are NaN. Series
    are taken in chunks of at most about 2**15 floats per stacked array (the
    FFT's, for a series whose ESS is wanted), which bounds the working memory.
    """
    P = len(series)
    chains, draws = np.shape(series[0])
    n = draws // 2
    if n < 1:
        raise ValueError("need at least 2 draws per chain")
    m = 2 * chains
    coef = (n - 1) / n
    nfft = 1 << (2 * n - 1).bit_length()
    want = np.ones(P, dtype=bool)
    if ess_of is not None:
        want[:] = False
        want[list(ess_of)] = True
    rh = np.empty(P)
    es = np.full(P, np.nan)
    for rows, with_ess in ((np.flatnonzero(~want), False), (np.flatnonzero(want), True)):
        step = max(1, _STACK_FLOATS // (m * (nfft if with_ess else n)))
        for lo in range(0, len(rows), step):
            at = rows[lo : lo + step]
            x = np.asarray([series[i] for i in at], dtype=float)
            halves = np.concatenate([x[:, :, :n], x[:, :, n : 2 * n]], axis=1)
            means = halves.mean(axis=2)
            within = halves.var(axis=2, ddof=1).mean(axis=1)
            between = means.var(axis=1, ddof=1)
            var_plus = coef * within + between
            with np.errstate(divide="ignore", invalid="ignore"):
                rh[at] = np.where(
                    within == 0.0,
                    np.where(between == 0.0, 1.0, _INF),
                    np.sqrt(var_plus / within),
                )
            if with_ess:
                es[at] = _geyer_ess(halves, means, within, var_plus, nfft)
    return rh, es


def _geyer_ess(halves, means, within, var_plus, nfft: int) -> np.ndarray:
    """The ESS half of ``split_stats`` for a stacked chunk of half-chains."""
    p, m, n = halves.shape
    total = float(m * n)
    with np.errstate(divide="ignore", invalid="ignore"):
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
    return np.where((var_plus > 0.0) & np.isfinite(var_plus), fitted, total)


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
    """Per-parameter split-chain statistics plus an overall verdict.

    ``r_hat`` holds every parameter; ``ess`` only the ones ``diagnose`` was
    asked for (every parameter by default).
    """

    r_hat: dict[str, float]
    ess: dict[str, float]
    converged: bool


def diagnose(draws: ChainDraws, threshold: float = 1.1, ess_of=None) -> Diagnostics:
    """Split-chain R-hat of every parameter, and converged when each is
    finite and at most ``threshold``. ESS is computed only for the names in
    ``ess_of`` (None: every parameter), in one stacked ``split_stats`` pass;
    each value equals the one the full pass gives, bit for bit."""
    series = draws.param_series()
    names = list(series)
    rows = range(len(names)) if ess_of is None else sorted({names.index(k) for k in ess_of})
    rh, es = split_stats(list(series.values()), rows)
    rh_map = dict(zip(names, rh.tolist()))
    converged = all(math.isfinite(v) and v <= threshold for v in rh_map.values())
    return Diagnostics(r_hat=rh_map, ess={names[i]: float(es[i]) for i in rows},
                       converged=converged)


def _summary_row(name, survey, t, values, alpha: float, stats) -> SummaryRow:
    """The median and equal-tailed (1 - alpha) interval of ``values``, with stats (R-hat, ESS)."""
    lo, med, hi = np.quantile(values, [alpha / 2.0, 0.5, 1.0 - alpha / 2.0])
    return SummaryRow(name=name, survey=survey, t=t, median=float(med), lower=float(lo),
                      upper=float(hi), r_hat=stats[0], ess=stats[1])


def rate_row(draws: ChainDraws, t: int, alpha: float, diag: Diagnostics) -> SummaryRow:
    """The posterior population rate at t as a "rate" row: inv_logit of
    theta[t] over every chain's draws, with theta[t]'s R-hat and ESS from
    ``diag``. The one place a rate row is built (``summarize``, the
    now-cast's fits, the simulation study's estimate)."""
    key = f"theta[{t}]"
    return _summary_row("rate", None, t, inv_logit(draws.theta[:, :, t].ravel()), alpha,
                        (diag.r_hat[key], diag.ess[key]))


def summarize(draws: ChainDraws, alpha: float = 0.05, transform: str = "rate") -> SummaryTable:
    """Posterior summary table with equal-tailed (1 - alpha) intervals.

    transform="rate" reports the latent series as population rates in (0, 1)
    (``rate_row``); "natural" leaves it on the logit scale. Bias odds rows
    (one per modeled survey and time-point) and variance rows are always on
    their own scale.
    """
    if transform not in ("rate", "natural"):
        raise ValueError(f"unknown transform {transform!r}")
    check_alpha(alpha)
    diag = diagnose(draws)
    stats = {name: (diag.r_hat[name], diag.ess[name]) for name in diag.r_hat}
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
        rows.append(_summary_row(name, survey, t, values, alpha, stats[key]))

    for t in range(1, T + 1):
        if transform == "rate":
            rows.append(rate_row(draws, t, alpha, diag))
        else:
            add("theta", None, t, draws.theta[:, :, t].ravel(), f"theta[{t}]")
    for (k, t), key in phi_keys.items():
        add("phi", k, t, np.exp(designs[k].log_phi(coefs[k], t).ravel()), key)
    add("sigma_sq", None, None, draws.sigma_sq.ravel(), "sigma_sq")
    if draws.pi_sq is not None:
        add("pi_sq", None, None, draws.pi_sq.ravel(), "pi_sq")
    return SummaryTable(alpha=alpha, rows=rows, converged=diag.converged)
