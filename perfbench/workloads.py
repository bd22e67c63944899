"""The four benchmark workloads.

Each workload has a set-up (``build``), one timed unit (``run``) that calls
the program through public functions only, with ``workers=1``, and a check
of that unit's outputs (``check``). Sampler sizes are fixed here so that a
faster program runs more units in the same time, not different units.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from surveysynth import analysis, config, datagen, io, mcmc, simstudy
from surveysynth.core import BiasModelSpec, ModelSpec
from surveysynth.dists import NchgParams, nchg_logpmf

from tracing import Patches

# Micro sizes of the exact kernel: sample size n from a population of 10n
# with 3n positives at odds 1.7, evaluated near the mode.
MICRO_LOGPMF_N = (100, 1_000, 10_000, 100_000)
MICRO_SAMPLE_N = (1_000, 100_000)
KERNEL_TOL = 1e-6  # absolute, against scipy; agreement is about 2e-8 today


def micro_params(n: int) -> tuple[int, NchgParams]:
    return round(0.42 * n), NchgParams(m1=3 * n, m2=7 * n, n=n, phi=1.7)


def bulk_ess(x) -> float:
    """Bulk effective sample size of a (chains, draws) array.

    Rank-normalized split chains with Geyer's initial monotone sequence, as
    in Vehtari et al. 2021 (arXiv:1903.08008). Computed here rather than by
    the program, so a change to the program's own estimator does not move
    the metric.
    """
    from scipy.stats import rankdata  # imported late: scipy.stats is not part of set-up

    x = np.asarray(x, dtype=float)
    half = x.shape[1] // 2
    split = np.concatenate([x[:, :half], x[:, half : 2 * half]], axis=0)
    m, n = split.shape
    z = ndtri((rankdata(split, method="average").reshape(split.shape) - 0.375) / (m * n + 0.25))
    means = z.mean(axis=1)
    within = z.var(axis=1, ddof=1).mean()
    var_plus = (n - 1) / n * within + means.var(ddof=1)
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(z - means[:, None], nfft, axis=1)
    acov = np.fft.irfft(f.real**2 + f.imag**2, nfft, axis=1)[:, :n] / n
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    tau, prev = -1.0, math.inf
    for k in range(0, n - 1, 2):
        pair = rho[k] + rho[k + 1]
        if pair < 0.0:
            break
        prev = min(pair, prev)
        tau += 2.0 * prev
    return m * n / max(tau, 1e-12)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _model_doc(spec: ModelSpec) -> dict:
    """The ``model`` section of a fit config that reads back as ``spec``."""
    return {
        "bias": [{"kind": b.kind} for b in spec.bias],
        "priors": dataclasses.asdict(spec.priors),
        "monotone_walk": spec.monotone_walk,
        "center_time": spec.center_time,
        "use_exact_nchg": spec.use_exact_nchg,
    }


def _rate_row_problems(rows, n_times: int) -> list[str]:
    problems = []
    if sorted(r.t for r in rows) != list(range(1, n_times + 1)):
        problems.append(f"rate rows cover t={sorted(r.t for r in rows)}, expected 1..{n_times}")
    problems += [
        f"rate row t={r.t} violates 0 < lower <= median <= upper < 1"
        for r in rows
        if not 0.0 < r.lower <= r.median <= r.upper < 1.0
    ]
    return problems


@contextlib.contextmanager
def _capture_last_theta(module):
    """Keep θ at the last time point of every fit that ``module`` runs.

    ``nowcast_series`` and ``run_cell`` return no draws, so the ESS of their
    fits is read from the ``run_chains`` they call. If a later version stops
    calling it, the capture comes back short and the check says so.
    """
    cols: list[np.ndarray] = []

    def make(orig):
        def wrapper(*args, **kwargs):
            draws = orig(*args, **kwargs)
            cols.append(np.array(draws.theta[:, :, -1]))
            return draws

        return wrapper

    with Patches() as patches:
        patches.wrap(module, "run_chains", make)
        yield cols


@dataclasses.dataclass
class Outcome:
    attempted: int  # operations (fits) the unit attempted
    failed: int  # of those, raised or failed a check
    digest: str  # sha256 of the unit's output file
    problems: list[str]
    ess_data: object = None  # what ``ess_per_unit`` pools; not written out
    op_walls: dict | None = None  # seconds per named operation, when timed apart


class Workload:
    name = ""
    ops = 1  # fits per unit, counted as failed when the unit raises
    repeat_first = True  # unit 1 reruns unit 0's seed: a determinism check

    def __init__(self, workdir: Path, tracer):
        self.workdir = workdir
        self.tracer = tracer

    def build(self) -> None:
        """Make the inputs; timed as set-up, repeated for a median."""

    def run(self, seed: int):
        raise NotImplementedError

    def check(self, out) -> Outcome:
        raise NotImplementedError

    def ess_per_unit(self, data: list) -> float:
        """ESS that one unit yields, from the ``ess_data`` of passing units
        with distinct seeds."""
        raise NotImplementedError

    def wall_s(self, outcomes: list[Outcome], walls: list[float]) -> float:
        """Wall time of one unit: the median over the run's units."""
        return statistics.median(walls)

    def run_checks(self) -> list[str]:
        """Checks made once per run, outside any unit."""
        return []

    def probes(self) -> dict[str, float]:
        """Extra per-layer timings of the traced run, in seconds."""
        return {}


class _CliFit(Workload):
    """``surveysynth fit``: read_panel, fit_full, write_summary."""

    sampler: dict = {}

    def inputs(self):
        raise NotImplementedError

    def build(self) -> None:
        panel, spec = self.inputs()
        self.panel_path = self.workdir / "panel.csv"
        self.config_path = self.workdir / "fit.json"
        self.summary_path = self.workdir / "summary.csv"
        self.n_saved = 0
        io.write_panel(panel, self.panel_path)
        doc = {"seed": 0, "sampler": self.sampler, "model": _model_doc(spec)}
        self.config_path.write_text(json.dumps(doc))
        if config.RunConfig.from_file(self.config_path).model != spec:
            raise RuntimeError("fit config does not read back as the workload's model")
        self.spec = spec

    def run(self, seed: int):
        tr = self.tracer
        with tr.span("io.read_panel"):
            panel = io.read_panel(self.panel_path)
        cfg = config.RunConfig.from_file(self.config_path)
        settings = dataclasses.replace(cfg.sampler, seed=seed)
        with tr.span("analysis.fit_full"):
            fit = analysis.fit_full(panel, cfg.model, settings, workers=1)
        with tr.span("io.write_summary"):
            io.write_summary(fit.table, self.summary_path)
        return fit

    def check(self, fit) -> Outcome:
        with self.tracer.span("io.read_summary"):
            back = io.read_summary(self.summary_path)
        rows = fit.table.rows_named("rate")
        T = fit.draws.n_times
        problems = _rate_row_problems(rows, T) + self.table_problems(fit)
        if back != fit.table:
            problems.append("summary.csv does not read back equal through io.read_summary")
        # kept on disk so that peak RSS does not grow with the number of units
        theta_path = self.workdir / f"theta-{self.n_saved}.npy"
        self.n_saved += 1
        np.save(theta_path, fit.draws.theta[:, :, 1:])
        return Outcome(1, int(bool(problems)), _digest(self.summary_path), problems, theta_path)

    def ess_per_unit(self, data: list) -> float:
        # every unit fits the same panel, so their chains pool into one estimate
        theta = np.concatenate([np.load(p) for p in data], axis=0)
        return min(bulk_ess(theta[:, :, t]) for t in range(theta.shape[2])) / len(data)

    def table_problems(self, fit) -> list[str]:
        return []


class VaccineFit(_CliFit):
    """One long fit: the 4-chain sweep with walk-bias and ridge blocks."""

    name = "vaccine-fit"
    sampler = {"n_chains": 4, "burn_in": 500, "n_draws": 1000, "thin": 1}

    def inputs(self):
        self.bundle = vaccine_bundle(self.tracer)
        return self.bundle.panel, self.bundle.design.model_spec()

    def table_problems(self, fit) -> list[str]:
        problems = []
        medians = [fit.table.row("rate", t=t).median for t in range(1, fit.draws.n_times + 1)]
        if any(b < a for a, b in zip(medians, medians[1:])):
            problems.append("rate medians decrease under a monotone walk")
        bench = analysis.BenchmarkSeries(
            rates=self.bundle.benchmark_rates, margins=self.bundle.benchmark_margin
        )
        cov = analysis.coverage_vs_benchmark(fit.table, bench)
        if cov.total != 46 or cov.hits < 44:
            problems.append(f"benchmark overlap {cov.hits}/{cov.total}, need >= 44/46")
        return problems

    def probes(self) -> dict[str, float]:
        b = self.bundle
        records = analysis.panel_to_records(b.panel, b.dates)
        with self.tracer.span("analysis.align_dates") as rec:
            aligned = analysis.align_dates(
                records, "weekly-online", population=b.panel.population, survey_order=b.panel.labels
            )
        if aligned.panel != b.panel:
            raise RuntimeError("align_dates does not reproduce the bundled panel")
        return {
            "analysis.align_dates.s": rec["end"] - rec["start"],
            "io.summary.bytes": float(self.summary_path.stat().st_size),
        }


class ExactDemo(_CliFit):
    """The demo panel under the exact kernel: nchg_logpmf does the work."""

    name = "exact-demo"
    sampler = {"n_chains": 1, "burn_in": 40, "n_draws": 80, "thin": 1, "adapt_window": 10}

    def inputs(self):
        spec = ModelSpec(
            bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="linear"), BiasModelSpec(kind="linear")),
            use_exact_nchg=True,
        )
        return datagen.demo_panel(), spec

    def run_checks(self) -> list[str]:
        from scipy.stats import nchypergeom_fisher

        problems = []
        for n in MICRO_LOGPMF_N:
            y, p = micro_params(n)
            ours = float(nchg_logpmf(y, p))
            ref = float(nchypergeom_fisher.logpmf(y, p.m1 + p.m2, p.m1, p.n, p.phi))
            if not abs(ours - ref) <= KERNEL_TOL:
                problems.append(f"nchg_logpmf at n={n}: {ours!r} vs scipy {ref!r}")
        return problems


class Nowcast(Workload):
    """``surveysynth nowcast``: one fit per t* = 1..48 over one shared panel."""

    name = "nowcast"
    sampler = {"n_chains": 2, "burn_in": 100, "n_draws": 100, "thin": 1, "adapt_window": 20}

    def build(self) -> None:
        self.bundle = vaccine_bundle(self.tracer)
        self.panel_path = self.workdir / "panel.csv"
        self.out_path = self.workdir / "nowcast.csv"
        io.write_panel(self.bundle.panel, self.panel_path)
        self.spec = self.bundle.design.model_spec()
        self.ops = self.bundle.panel.n_times

    def run(self, seed: int):
        tr = self.tracer
        settings = mcmc.SamplerSettings(seed=seed, **self.sampler)
        with tr.span("io.read_panel"):
            panel = io.read_panel(self.panel_path)
        with _capture_last_theta(analysis) as cols, tr.span("analysis.nowcast_series"):
            result = analysis.nowcast_series(panel, self.spec, settings, workers=1)
        with tr.span("io.write_summary"):
            io.write_summary(result.table, self.out_path)
        return result, cols

    def check(self, out) -> Outcome:
        result, cols = out
        T = self.ops
        rows = result.table.rows_named("rate")
        bad = set(result.failures) | {
            r.t for r in rows if not 0.0 < r.lower <= r.median <= r.upper < 1.0
        }
        problems = [f"now-cast failed or out of bounds at t*={t}" for t in sorted(bad)]
        if not bad:
            problems += _rate_row_problems(rows, T)
        if len(cols) != T:
            problems.append(f"ESS capture saw {len(cols)} fits, expected {T}")
        failed = max(len(bad), int(bool(problems)))
        return Outcome(T, failed, _digest(self.out_path), problems, cols)

    def ess_per_unit(self, data: list) -> float:
        # the fit at t* sees the same data in every unit: pool its chains
        per_t = zip(*data)
        return sum(bulk_ess(np.concatenate(cols, axis=0)) for cols in per_t) / len(data)


class StudyGrid(Workload):
    """``simstudy.run_grid`` at T=5, cell by cell: dozens of tiny fits."""

    name = "study-grid"
    n_times = 5
    n_reps = 1
    ops = len(simstudy.TRUTH_KINDS) * len(simstudy.FIT_KINDS) * n_reps
    # a unit takes ~40% of a run and its ESS depends on its datasets, so
    # every unit draws new ones
    repeat_first = False

    def run(self, seed: int):
        records, failed_cells, cell_walls = [], [], {}
        with _capture_last_theta(simstudy) as cols:
            for truth in simstudy.TRUTH_KINDS:
                for fit_kind in simstudy.FIT_KINDS:
                    before = len(cols)
                    t0 = time.perf_counter()
                    try:
                        with self.tracer.span("simstudy.run_cell"):
                            _, recs = simstudy.run_cell(
                                truth, fit_kind, self.n_times, self.n_reps,
                                simstudy.DEFAULT_STUDY_SETTINGS, seed,
                            )
                    except mcmc.InitializationError as e:
                        # one failed rep aborts its cell; count the cell's reps as failed
                        del cols[before:]
                        failed_cells.append(f"{truth}/{fit_kind}: {e}")
                        continue
                    cell_walls[f"{truth}/{fit_kind}"] = time.perf_counter() - t0
                    records.extend(recs)
        path = self.workdir / "reps.csv"
        io.write_rep_records(records, path)
        return records, failed_cells, cols, path, cell_walls

    def check(self, out) -> Outcome:
        records, failed_cells, cols, path, cell_walls = out
        problems = [f"cell aborted: {c}" for c in failed_cells]
        bad = [r for r in records if not math.isfinite(r.sq_error)]
        problems += [f"rep {r.truth_kind}/{r.fit_kind}#{r.rep} has sq_error {r.sq_error}" for r in bad]
        if len(cols) != len(records):
            problems.append(f"ESS capture saw {len(cols)} fits, expected {len(records)}")
        failed = len(failed_cells) * self.n_reps + len(bad)
        if problems and not failed:
            failed = 1
        ess = sum(bulk_ess(c) for c in cols)
        return Outcome(self.ops, failed, _digest(path), problems, ess, cell_walls)

    def wall_s(self, outcomes: list[Outcome], walls: list[float]) -> float:
        """One grid pass, assembled from each cell's median time over the units.

        A run holds only three or four passes. The host has slow spells of a
        few seconds; a spell slows a few cells of one pass, and the per-cell
        median drops it where the median of whole passes cannot.
        """
        cells = [o.op_walls for o in outcomes if o.op_walls]
        names = {name for c in cells for name in c}
        return sum(statistics.median(c[n] for c in cells if n in c) for n in names)

    def ess_per_unit(self, data: list) -> float:
        # each unit draws its own datasets, so fits do not pool across units
        return float(np.mean(data))


def vaccine_bundle(tracer):
    """A freshly generated vaccine bundle (the function caches its result)."""
    cache_clear = getattr(datagen.vaccine_shaped_bundle, "cache_clear", None)
    if cache_clear is not None:
        cache_clear()
    with tracer.span("datagen.vaccine_shaped_bundle"):
        return datagen.vaccine_shaped_bundle()


WORKLOADS = {w.name: w for w in (VaccineFit, Nowcast, StudyGrid, ExactDemo)}
