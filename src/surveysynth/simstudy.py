"""Truth-model x fitted-model simulation grid.

Each cell draws truths from the narrowed priors, generates panels, fits one
bias model (or the anchor survey alone), and scores the squared error of
the posterior median rate at the final time-point. Replication seeds are
derived from (truth kind, panel length, replication index) only, so every
fit kind sees identical datasets and scheduling order cannot matter.

The study is many independent fits. ``run_grid`` and ``run_cell`` list one
job per (T, truth, fit, rep) and map the list once with ``mcmc.map_jobs``,
as ``analysis.nowcast_series`` maps its t*; each fit then runs its chains
serially, so no pool nests and the records do not depend on the worker
count (``SURVEYSYNTH_WORKERS``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import BiasModelSpec, LatentState, ModelSpec, PriorSpec, SurveyPanel, check_count
from .datagen import GenDesign, draw_parameters, generate_panel
from .dists import inv_logit
from .mcmc import (InitializationError, SamplerSettings, diagnose, map_jobs, rate_row, run_chains,
                   sweep_library)

TRUTH_KINDS = ("constant", "linear", "walk")
FIT_KINDS = ("constant", "linear", "walk", "unbiased-only")

# two chains kept short: the grid runs hundreds of fits
DEFAULT_STUDY_SETTINGS = SamplerSettings(
    n_chains=2, burn_in=3000, n_draws=4500, thin=1, seed=0
)


@dataclass(frozen=True)
class StudyConfig:
    """The study's grid (panel lengths, replications per cell) and its
    sizes: the unbiased survey's, each biased survey's and the population's."""

    n_times: tuple[int, ...] = (5, 10, 15)
    n_reps: int = 100
    n_anchor: int = 100
    n_biased: int = 1000
    population: int = 10_000_000

    def __post_init__(self):
        for t in self.n_times:
            check_count("study.n_times entry", t, 1)
        if not self.n_times or len(set(self.n_times)) < len(self.n_times):
            raise ValueError(
                f"study.n_times must list distinct panel lengths, got {self.n_times!r}"
            )
        for name in ("n_reps", "n_anchor", "n_biased", "population"):
            check_count(f"study.{name}", getattr(self, name), 1)


def study_design(truth_kind: str, n_times: int, study: StudyConfig = StudyConfig()) -> GenDesign:
    """One small unbiased survey plus two biased ones of the given kind."""
    if truth_kind not in TRUTH_KINDS:
        raise ValueError(f"unknown truth kind {truth_kind!r}, expected one of {TRUTH_KINDS}")
    plan = np.empty((3, n_times))
    plan[0, :] = float(study.n_anchor)
    plan[1:, :] = float(study.n_biased)
    return GenDesign(
        n_plan=plan,
        population=study.population,
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
    seed: int, truth_kind: str, n_times: int, rep: int, study: StudyConfig = StudyConfig()
) -> tuple[LatentState, SurveyPanel]:
    """The (truth, panel) pair a replication fits; independent of fit kind."""
    design = study_design(truth_kind, n_times, study)
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


def _run_rep(job) -> RepRecord:
    # run_chains, diagnose and rep_dataset are looked up in this module's
    # globals at call time, so that a caller may wrap them here
    n_times, truth_kind, fit_kind, rep, settings, seed, study = job
    truth, panel = rep_dataset(seed, truth_kind, n_times, rep, study)
    _, _, fit_seed = _rep_seeds(seed, truth_kind, n_times, rep)
    run_settings = replace(settings, seed=fit_seed)
    if fit_kind == "unbiased-only":
        panel = panel.subset_surveys([0])
    cell = dict(truth_kind=truth_kind, fit_kind=fit_kind, n_times=n_times, rep=rep)
    try:
        draws = run_chains(panel, _fit_spec(fit_kind), run_settings, workers=1)
    except InitializationError:
        return RepRecord(**cell, sq_error=math.nan, converged=False)
    diag = diagnose(draws, ess_of=(f"theta[{n_times}]",))  # all rate_row reads
    est = rate_row(draws, n_times, 0.05, diag).median  # the median does not depend on alpha
    true_rate = float(inv_logit(truth.theta[n_times]))
    return RepRecord(**cell, sq_error=(est - true_rate) ** 2, converged=diag.converged)


def _run_cells(study: StudyConfig, truth_kinds, fit_kinds, settings, seed):
    """Every rep of every (T, truth, fit) cell, T-major, in one map: the
    cells' results and their records, in that order."""
    if settings is None:
        settings = DEFAULT_STUDY_SETTINGS
    sweep_library()  # before the workers start, so that they only load it
    jobs = [
        (*cell, rep, settings, seed, study)
        for cell in itertools.product(study.n_times, truth_kinds, fit_kinds)
        for rep in range(study.n_reps)
    ]
    records = map_jobs(_run_rep, jobs)
    n = study.n_reps
    results = [CellResult.from_records(records[i : i + n]) for i in range(0, len(records), n)]
    return results, records


def run_cell(
    truth_kind: str,
    fit_kind: str,
    n_times: int,
    n_reps: int,
    settings: SamplerSettings | None = None,
    seed: int = 0,
    *,
    study: StudyConfig = StudyConfig(),
) -> tuple[CellResult, list[RepRecord]]:
    """One truth x fit cell at one panel length, with ``study``'s sizes.

    Its ``n_reps`` fits are one map over ``SURVEYSYNTH_WORKERS`` processes
    (see the module docstring).
    """
    if truth_kind not in TRUTH_KINDS:
        raise ValueError(f"unknown truth kind {truth_kind!r}, expected one of {TRUTH_KINDS}")
    if fit_kind not in FIT_KINDS:
        raise ValueError(f"unknown fit kind {fit_kind!r}, expected one of {FIT_KINDS}")
    study = replace(study, n_times=(n_times,), n_reps=n_reps)
    results, records = _run_cells(study, (truth_kind,), (fit_kind,), settings, seed)
    return results[0], records


def run_grid(
    study: StudyConfig = StudyConfig(),
    settings: SamplerSettings | None = None,
    seed: int = 0,
) -> tuple[list[CellResult], list[RepRecord]]:
    """Every truth x fit combination at every panel length of ``study``.

    All of the study's fits are one map over ``SURVEYSYNTH_WORKERS``
    processes (see the module docstring); cells come T-major, then by truth
    and fit kind, and records by cell, then rep.
    """
    return _run_cells(study, TRUTH_KINDS, FIT_KINDS, settings, seed)
