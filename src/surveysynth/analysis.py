"""Applied pipeline on top of the sampler: date alignment, full fits,
rolling nowcasts, and headline comparisons between two fitted series
(interval-width ratios, benchmark coverage, effective-sample-size gains).
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .core import (
    ModelSpec,
    SummaryRow,
    SummaryTable,
    SurveyPanel,
    check_alpha,
    check_count,
    detect_saturated_cells,
)
from .mcmc import (
    ChainDraws,
    InitializationError,
    SamplerSettings,
    diagnose,
    map_jobs,
    rate_row,
    run_chains,
    summarize,
    sweep_library,
)

ALIGN_WINDOW_DAYS = 6  # a record on day d is eligible for grid date g when g <= d <= g+6


@dataclass(frozen=True)
class DatedRecord:
    """One survey release: counts attached to a calendar date, pre-alignment."""

    survey: str
    date: datetime.date
    y: int
    n: int

    def __post_init__(self):
        if not isinstance(self.date, datetime.date) or isinstance(self.date, datetime.datetime):
            raise ValueError(f"date must be a datetime.date, got {self.date!r}")
        check_count("y", self.y, 0)
        check_count("n", self.n, 1)
        if self.y > self.n:
            raise ValueError(f"need 0 <= y <= n with n >= 1, got y={self.y}, n={self.n}")
        object.__setattr__(self, "y", int(self.y))
        object.__setattr__(self, "n", int(self.n))


@dataclass(frozen=True)
class BenchmarkSeries:
    """External reference rates to score a fitted series against.

    rates is indexed by time 1..T (NaN where the benchmark is unavailable);
    margins gives the half-width of the plausibility band around each rate.
    """

    rates: np.ndarray
    margins: np.ndarray | float = 0.05

    def __post_init__(self):
        rates = np.asarray(self.rates, dtype=float)
        if rates.ndim != 1 or rates.size == 0:
            raise ValueError("rates must be a non-empty 1-d array")
        seen = rates[np.isfinite(rates)]
        if np.any((seen <= 0.0) | (seen >= 1.0)):
            raise ValueError("benchmark rates must lie strictly inside (0, 1)")
        margins = np.broadcast_to(np.asarray(self.margins, dtype=float), rates.shape).copy()
        if np.any(~np.isfinite(margins) | (margins < 0.0)):
            raise ValueError("margins must be finite and non-negative")
        rates.flags.writeable = False
        margins.flags.writeable = False
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "margins", margins)

    @property
    def n_times(self) -> int:
        return int(self.rates.size)


@dataclass(frozen=True)
class AlignResult:
    panel: SurveyPanel
    dates: tuple[datetime.date, ...]
    dropped: tuple[str, ...]


def align_dates(
    records,
    benchmark_label: str,
    *,
    population: int,
    survey_order: tuple[str, ...] | None = None,
) -> AlignResult:
    """Place dated records on the time grid defined by one survey's dates.

    The benchmark survey's (unique) dates become t=1..T and its records map
    straight to their own dates. Every other record is eligible for grid
    date g when it falls in [g, g+6 days]; windows are filled in grid order,
    each keeping the earliest eligible record of its survey and dropping the
    rest of that window. Records eligible for no window are dropped too;
    both kinds are listed in ``dropped`` with a note.
    """
    records = list(records)
    by_survey: dict[str, list[DatedRecord]] = {}
    for r in records:
        by_survey.setdefault(r.survey, []).append(r)
    if benchmark_label not in by_survey:
        raise ValueError(f"no records for benchmark survey {benchmark_label!r}")
    bench = sorted(by_survey[benchmark_label], key=lambda r: r.date)
    dates = tuple(r.date for r in bench)
    for a, b in zip(dates, dates[1:]):
        if b <= a:
            raise ValueError(f"benchmark dates must be distinct: {a} repeats")

    labels = [benchmark_label] + [s for s in dict.fromkeys(r.survey for r in records) if s != benchmark_label]
    if survey_order is not None:
        if set(survey_order) != set(labels) or len(survey_order) != len(labels):
            raise ValueError(
                f"survey_order {tuple(survey_order)} does not cover the surveys present {tuple(labels)}"
            )
        labels = list(survey_order)

    n_times = len(dates)
    y = np.full((len(labels), n_times), np.nan)
    n = np.full((len(labels), n_times), np.nan)
    dropped: list[str] = []
    window = datetime.timedelta(days=ALIGN_WINDOW_DAYS)
    for k, label in enumerate(labels):
        pool = sorted(by_survey[label], key=lambda r: r.date)
        if label == benchmark_label:
            for t, r in enumerate(pool):
                y[k, t] = r.y
                n[k, t] = r.n
            continue
        taken = [False] * len(pool)
        for t, grid_date in enumerate(dates):
            winner = None
            for i, r in enumerate(pool):
                if taken[i] or r.date < grid_date:
                    continue
                if r.date > grid_date + window:
                    break  # pool is sorted; nothing later fits this window
                if winner is None:
                    winner = i
                    y[k, t] = r.y
                    n[k, t] = r.n
                else:
                    dropped.append(
                        f"{label} record on {r.date.isoformat()} dropped: an "
                        f"earlier record fills the {grid_date.isoformat()} window"
                    )
                taken[i] = True
        dropped.extend(
            f"{label} record on {r.date.isoformat()} aligned to no date on the grid"
            for i, r in enumerate(pool)
            if not taken[i]
        )

    panel = SurveyPanel(y=y, n=n, population=population, labels=tuple(labels))
    return AlignResult(panel=panel, dates=dates, dropped=tuple(dropped))


def panel_to_records(panel: SurveyPanel, dates) -> list[DatedRecord]:
    """Flatten an aligned panel back into dated records (observed cells only)."""
    dates = tuple(dates)
    if len(dates) != panel.n_times:
        raise ValueError(f"got {len(dates)} dates for {panel.n_times} time points")
    out = []
    for k, label in enumerate(panel.labels):
        for t in range(panel.n_times):
            if np.isfinite(panel.n[k, t]):
                out.append(
                    DatedRecord(survey=label, date=dates[t], y=int(panel.y[k, t]), n=int(panel.n[k, t]))
                )
    return out


# ---------------------------------------------------------------------------
# fitting wrappers


@dataclass(frozen=True)
class FitResult:
    table: SummaryTable
    draws: ChainDraws
    saturated_cells: list[tuple[int, int]]


def fit_full(
    panel: SurveyPanel,
    spec: ModelSpec,
    settings: SamplerSettings | None = None,
    *,
    alpha: float = 0.05,
    workers: int | None = None,
) -> FitResult:
    """Fit the synthesis model to a whole panel and summarize it."""
    check_alpha(alpha)  # before any fit
    if not panel.observed.any():
        raise ValueError("no observed cells")
    draws = run_chains(panel, spec, settings, workers=workers)
    table = summarize(draws, alpha=alpha)
    return FitResult(table=table, draws=draws, saturated_cells=detect_saturated_cells(panel, spec))


@dataclass(frozen=True)
class NowcastResult:
    """Rolling real-time estimates: the rate row at each t* uses data up to t* only.

    failures lists the t* whose chains could not start (no row), unconverged
    the t* whose fit did not pass the R-hat check.
    """

    table: SummaryTable
    failures: tuple[int, ...]
    unconverged: tuple[int, ...]


def _nowcast_job(args):
    panel, spec, settings, t_star, alpha = args
    sub = panel.up_to(t_star)
    try:
        draws = run_chains(sub, spec, settings, workers=1)
    except InitializationError:
        return t_star, None, True
    diag = diagnose(draws, ess_of=(f"theta[{t_star}]",))  # all rate_row reads
    return t_star, rate_row(draws, t_star, alpha, diag), diag.converged


def nowcast_series(
    panel: SurveyPanel,
    spec: ModelSpec,
    settings: SamplerSettings | None = None,
    *,
    alpha: float = 0.05,
    workers: int | None = None,
) -> NowcastResult:
    """Refit on panel.up_to(t*) for every t*, one independent job each.

    The per-t* jobs are spread over processes as ``run_chains`` spreads
    chains (``mcmc.map_jobs``; each fit then runs its chains serially); the
    result is identical either way because every job seeds from settings
    alone.
    """
    check_alpha(alpha)  # before any fit
    sweep_library()  # before the workers start, so that they only load it
    jobs = [
        (panel, spec, settings, t_star, alpha) for t_star in range(1, panel.n_times + 1)
    ]
    outcomes = map_jobs(_nowcast_job, jobs, workers)
    rows = [row for _, row, _ in outcomes if row is not None]
    failures = tuple(t for t, row, _ in outcomes if row is None)
    unconverged = tuple(t for t, _, conv in outcomes if not conv)
    table = SummaryTable(alpha=alpha, rows=rows, converged=not unconverged)
    return NowcastResult(table=table, failures=failures, unconverged=unconverged)


# ---------------------------------------------------------------------------
# comparisons between two fitted series


def _rate_rows_by_t(table: SummaryTable) -> dict[int, SummaryRow]:
    return {r.t: r for r in table.rows_named("rate") if r.t is not None and r.t >= 1}


def _paired_times(baseline, method, restrict_to) -> list[int]:
    ts = set(_rate_rows_by_t(baseline)) & set(_rate_rows_by_t(method))
    if restrict_to is not None:
        ts &= {int(t) for t in restrict_to}
    return sorted(ts)


@dataclass(frozen=True)
class RatioReport:
    """Per-time baseline-to-method interval width ratios (>1 favors method)."""

    t: np.ndarray
    ratio: np.ndarray
    mean: float
    median: float
    flagged: tuple[int, ...]


def ci_width_ratio(
    baseline: SummaryTable,
    method: SummaryTable,
    restrict_to=None,
) -> RatioReport:
    base_rows = _rate_rows_by_t(baseline)
    meth_rows = _rate_rows_by_t(method)
    flagged, ts, ratios = [], [], []
    for t in _paired_times(baseline, method, restrict_to):
        if meth_rows[t].width <= 0.0:
            flagged.append(t)
            continue
        ts.append(t)
        ratios.append(base_rows[t].width / meth_rows[t].width)
    ratio = np.asarray(ratios)
    mean = float(np.mean(ratio)) if ratio.size else math.nan
    median = float(np.median(ratio)) if ratio.size else math.nan
    return RatioReport(
        t=np.asarray(ts, dtype=int), ratio=ratio, mean=mean, median=median, flagged=tuple(flagged)
    )


@dataclass(frozen=True)
class CoverageResult:
    hits: int
    total: int
    fraction: float


def coverage_vs_benchmark(method: SummaryTable, benchmark: BenchmarkSeries) -> CoverageResult:
    """Count time points whose credible interval overlaps the benchmark band.

    The band at t is rate +- margin; touching endpoints count as coverage.
    Times with no benchmark value (NaN) or no fitted row are skipped.
    """
    rows = _rate_rows_by_t(method)
    hits = total = 0
    for t in range(1, benchmark.n_times + 1):
        rate = benchmark.rates[t - 1]
        if not math.isfinite(rate) or t not in rows:
            continue
        total += 1
        band_lo = rate - benchmark.margins[t - 1]
        band_hi = rate + benchmark.margins[t - 1]
        if rows[t].lower <= band_hi and rows[t].upper >= band_lo:
            hits += 1
    fraction = hits / total if total else math.nan
    return CoverageResult(hits=hits, total=total, fraction=fraction)


@dataclass(frozen=True)
class NiidReport:
    """Classical sample sizes a simple random sample would need to match each
    interval, for a baseline series and a method series on shared time points.

    n_iid at a point is z^2 * p*(1-p) / MOE^2 with p the posterior median and
    MOE the credible half-width. n_iid_literal is the ratio-scaled variant
    z^2 * p*(1-p) / (R * MOE), computed from the baseline row; it is kept as a
    labeled comparison column, not used for the gain.
    """

    t: np.ndarray
    p_hat_baseline: np.ndarray
    moe_baseline: np.ndarray
    p_hat_method: np.ndarray
    moe_method: np.ndarray
    ratio: np.ndarray
    n_iid_baseline: np.ndarray
    n_iid_method: np.ndarray
    n_iid_literal: np.ndarray
    gain: np.ndarray
    mean_gain: float
    median_gain: float
    z: float
    alpha: float
    flagged: tuple[int, ...]


def n_iid_gain(
    baseline: SummaryTable,
    method: SummaryTable,
    alpha: float = 0.05,
    restrict_to=None,
) -> NiidReport:
    z = float(special.ndtri(1.0 - alpha / 2.0))
    base_rows = _rate_rows_by_t(baseline)
    meth_rows = _rate_rows_by_t(method)
    cols: dict[str, list[float]] = {k: [] for k in (
        "t", "pb", "mb", "pm", "mm", "ratio", "nb", "nm", "lit", "gain")}
    flagged: list[int] = []
    for t in _paired_times(baseline, method, restrict_to):
        b, m = base_rows[t], meth_rows[t]
        pb, pm = b.median, m.median
        moe_b, moe_m = b.width / 2.0, m.width / 2.0
        degenerate = (
            pb <= 0.0 or pb >= 1.0 or pm <= 0.0 or pm >= 1.0 or moe_b <= 0.0 or moe_m <= 0.0
        )
        if degenerate:
            flagged.append(t)
            continue
        ratio = b.width / m.width
        nb = z * z * pb * (1.0 - pb) / moe_b**2
        nm = z * z * pm * (1.0 - pm) / moe_m**2
        cols["t"].append(t)
        cols["pb"].append(pb)
        cols["mb"].append(moe_b)
        cols["pm"].append(pm)
        cols["mm"].append(moe_m)
        cols["ratio"].append(ratio)
        cols["nb"].append(nb)
        cols["nm"].append(nm)
        cols["lit"].append(z * z * pb * (1.0 - pb) / (ratio * moe_b))
        cols["gain"].append(nm - nb)
    gain = np.asarray(cols["gain"])
    return NiidReport(
        t=np.asarray(cols["t"], dtype=int),
        p_hat_baseline=np.asarray(cols["pb"]),
        moe_baseline=np.asarray(cols["mb"]),
        p_hat_method=np.asarray(cols["pm"]),
        moe_method=np.asarray(cols["mm"]),
        ratio=np.asarray(cols["ratio"]),
        n_iid_baseline=np.asarray(cols["nb"]),
        n_iid_method=np.asarray(cols["nm"]),
        n_iid_literal=np.asarray(cols["lit"]),
        gain=gain,
        mean_gain=float(np.mean(gain)) if gain.size else math.nan,
        median_gain=float(np.median(gain)) if gain.size else math.nan,
        z=z,
        alpha=alpha,
        flagged=tuple(flagged),
    )
