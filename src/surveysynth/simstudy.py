"""Truth-model x fitted-model simulation grid.

Each cell draws truths from the narrowed priors, generates panels, fits one
bias model (or the anchor survey alone), and scores the squared error of
the posterior median rate at the final time-point. Replication seeds are
derived from (truth kind, panel length, replication index) only, so every
fit kind sees identical datasets and scheduling order cannot matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import BiasModelSpec, LatentState, ModelSpec, PriorSpec, SurveyPanel
from .datagen import GenDesign, draw_parameters, generate_panel
from .dists import inv_logit
from .mcmc import InitializationError, SamplerSettings, diagnose, run_chains

TRUTH_KINDS = ("constant", "linear", "walk")
FIT_KINDS = ("constant", "linear", "walk", "unbiased-only")

# two chains kept short: the grid runs hundreds of fits
DEFAULT_STUDY_SETTINGS = SamplerSettings(
    n_chains=2, burn_in=3000, n_draws=4500, thin=1, seed=0
)


def study_design(
    truth_kind: str,
    n_times: int,
    *,
    n_anchor: int = 100,
    n_biased: int = 1000,
    population: int = 10_000_000,
) -> GenDesign:
    """One small unbiased survey plus two biased ones of the given kind."""
    if truth_kind not in TRUTH_KINDS:
        raise ValueError(f"unknown truth kind {truth_kind!r}, expected one of {TRUTH_KINDS}")
    plan = np.empty((3, n_times))
    plan[0, :] = float(n_anchor)
    plan[1:, :] = float(n_biased)
    return GenDesign(
        n_plan=plan,
        population=population,
        bias=(
            BiasModelSpec.anchor(),
            BiasModelSpec(kind=truth_kind),
            BiasModelSpec(kind=truth_kind),
        ),
        prior_regime="narrowed",
    )


def _rep_seeds(seed: int, truth_kind: str, n_times: int, rep: int):
    root = np.random.SeedSequence(
        entropy=seed, spawn_key=(TRUTH_KINDS.index(truth_kind), n_times, rep)
    )
    truth_seq, panel_seq, fit_seq = root.spawn(3)
    return truth_seq, panel_seq, int(fit_seq.generate_state(1, dtype=np.uint64)[0])


def rep_dataset(
    seed: int,
    truth_kind: str,
    n_times: int,
    rep: int,
    *,
    n_anchor: int = 100,
    n_biased: int = 1000,
    population: int = 10_000_000,
) -> tuple[LatentState, SurveyPanel]:
    """The (truth, panel) pair a replication fits; independent of fit kind."""
    design = study_design(
        truth_kind,
        n_times,
        n_anchor=n_anchor,
        n_biased=n_biased,
        population=population,
    )
    truth_seq, panel_seq, _ = _rep_seeds(seed, truth_kind, n_times, rep)
    truth = draw_parameters(design, np.random.default_rng(truth_seq))
    panel, _ = generate_panel(truth, design, np.random.default_rng(panel_seq))
    return truth, panel


@dataclass(frozen=True)
class RepRecord:
    """Score of one replication.

    A fit whose chains cannot start (``InitializationError``) is kept as a
    failed replication: ``sq_error`` is nan and ``converged`` is False.
    """

    truth_kind: str
    fit_kind: str
    n_times: int
    rep: int
    sq_error: float
    converged: bool


@dataclass(frozen=True)
class CellResult:
    """Aggregate of one grid cell over its converged replications."""

    truth_kind: str
    fit_kind: str
    n_times: int
    n_reps: int
    mse: float
    mcse: float | None
    ci95: tuple[float, float] | None
    failures: int

    @classmethod
    def from_records(cls, records) -> "CellResult":
        recs = list(records)
        if not recs:
            raise ValueError("no records to aggregate")
        cells = {(r.truth_kind, r.fit_kind, r.n_times) for r in recs}
        if len(cells) != 1:
            raise ValueError(f"records span multiple cells: {sorted(cells)}")
        truth_kind, fit_kind, n_times = recs[0].truth_kind, recs[0].fit_kind, recs[0].n_times
        kept = [r.sq_error for r in recs if r.converged]
        failures = len(recs) - len(kept)
        if not kept:
            mse, mcse, ci95 = math.nan, None, None
        else:
            mse = float(np.mean(kept))
            if len(kept) >= 2:
                mcse = float(np.std(kept, ddof=1) / math.sqrt(len(kept)))
                ci95 = (mse - 1.96 * mcse, mse + 1.96 * mcse)
            else:
                mcse, ci95 = None, None
        return cls(
            truth_kind=truth_kind,
            fit_kind=fit_kind,
            n_times=n_times,
            n_reps=len(recs),
            mse=mse,
            mcse=mcse,
            ci95=ci95,
            failures=failures,
        )


def _fit_spec(fit_kind: str) -> ModelSpec:
    if fit_kind == "unbiased-only":
        bias = (BiasModelSpec.anchor(),)
    else:
        bias = (
            BiasModelSpec.anchor(),
            BiasModelSpec(kind=fit_kind),
            BiasModelSpec(kind=fit_kind),
        )
    return ModelSpec(bias=bias, priors=PriorSpec.narrowed())


def _run_rep(
    truth_kind: str,
    fit_kind: str,
    n_times: int,
    rep: int,
    settings: SamplerSettings,
    seed: int,
    sizes: dict,
) -> RepRecord:
    truth, panel = rep_dataset(seed, truth_kind, n_times, rep, **sizes)
    _, _, fit_seed = _rep_seeds(seed, truth_kind, n_times, rep)
    run_settings = replace(settings, seed=fit_seed)
    if fit_kind == "unbiased-only":
        panel = panel.subset_surveys([0])
    cell = dict(truth_kind=truth_kind, fit_kind=fit_kind, n_times=n_times, rep=rep)
    try:
        draws = run_chains(panel, _fit_spec(fit_kind), run_settings)
    except InitializationError:
        return RepRecord(**cell, sq_error=math.nan, converged=False)
    est = float(np.quantile(inv_logit(draws.theta[:, :, n_times].ravel()), 0.5))
    true_rate = float(inv_logit(truth.theta[n_times]))
    return RepRecord(**cell, sq_error=(est - true_rate) ** 2, converged=diagnose(draws).converged)


def run_cell(
    truth_kind: str,
    fit_kind: str,
    n_times: int,
    n_reps: int,
    settings: SamplerSettings | None = None,
    seed: int = 0,
    *,
    n_anchor: int = 100,
    n_biased: int = 1000,
    population: int = 10_000_000,
) -> tuple[CellResult, list[RepRecord]]:
    if truth_kind not in TRUTH_KINDS:
        raise ValueError(f"unknown truth kind {truth_kind!r}, expected one of {TRUTH_KINDS}")
    if fit_kind not in FIT_KINDS:
        raise ValueError(f"unknown fit kind {fit_kind!r}, expected one of {FIT_KINDS}")
    if n_reps < 1:
        raise ValueError(f"n_reps must be at least 1, got {n_reps}")
    if settings is None:
        settings = DEFAULT_STUDY_SETTINGS
    sizes = dict(n_anchor=n_anchor, n_biased=n_biased, population=population)
    records = [
        _run_rep(truth_kind, fit_kind, n_times, rep, settings, seed, sizes)
        for rep in range(n_reps)
    ]
    return CellResult.from_records(records), records


def run_grid(
    n_times_list=(5, 10, 15),
    n_reps: int = 100,
    settings: SamplerSettings | None = None,
    seed: int = 0,
    *,
    n_anchor: int = 100,
    n_biased: int = 1000,
    population: int = 10_000_000,
) -> tuple[list[CellResult], list[RepRecord]]:
    """Every truth x fit combination at every panel length."""
    results: list[CellResult] = []
    records: list[RepRecord] = []
    for n_times in n_times_list:
        for truth_kind in TRUTH_KINDS:
            for fit_kind in FIT_KINDS:
                cell, recs = run_cell(
                    truth_kind,
                    fit_kind,
                    n_times,
                    n_reps,
                    settings,
                    seed,
                    n_anchor=n_anchor,
                    n_biased=n_biased,
                    population=population,
                )
                results.append(cell)
                records.extend(recs)
    return results, records
