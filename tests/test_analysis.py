import dataclasses
import datetime
import math

import numpy as np
import pytest
from scipy import special

from surveysynth.analysis import (
    BenchmarkSeries,
    DatedRecord,
    align_dates,
    ci_width_ratio,
    coverage_vs_benchmark,
    fit_full,
    n_iid_gain,
    nowcast_series,
    panel_to_records,
)
from surveysynth.core import (
    BiasModelSpec,
    ModelSpec,
    SummaryRow,
    SummaryTable,
    SurveyPanel,
)
from surveysynth.datagen import vaccine_shaped_bundle
from surveysynth import analysis, mcmc
from surveysynth.mcmc import SamplerSettings

QUICK = SamplerSettings(n_chains=2, burn_in=400, n_draws=600, thin=3, seed=19)

D = datetime.date


def rec(survey, date, y=10, n=100):
    return DatedRecord(survey=survey, date=date, y=y, n=n)


def bench_records():
    return [
        rec("g", D(2021, 3, 1), 5),
        rec("g", D(2021, 3, 8), 6),
        rec("g", D(2021, 3, 15), 7),
    ]


# ---------------------------------------------------------------------------
# record and benchmark types


def test_dated_record_validation():
    with pytest.raises(ValueError):
        DatedRecord(survey="a", date=D(2021, 1, 1), y=5, n=4)
    with pytest.raises(ValueError):
        DatedRecord(survey="a", date=D(2021, 1, 1), y=-1, n=4)
    with pytest.raises(ValueError):
        DatedRecord(survey="a", date="2021-01-01", y=1, n=4)


@pytest.mark.parametrize("y, n",
                         [(3.7, 10), (True, 10), (3, 10.0), (3, True), (np.float64(3.0), 10)])
def test_dated_record_counts_must_be_integers(y, n):
    with pytest.raises(ValueError, match="must be an integer"):
        DatedRecord(survey="a", date=D(2021, 1, 1), y=y, n=n)
    r = DatedRecord(survey="a", date=D(2021, 1, 1), y=np.int64(3), n=np.int64(10))
    assert (r.y, r.n) == (3, 10) and type(r.y) is int and type(r.n) is int


def test_benchmark_series_validation():
    b = BenchmarkSeries(rates=[0.1, np.nan, 0.3])
    assert b.n_times == 3
    assert b.margins.tolist() == [0.05] * 3
    custom = BenchmarkSeries(rates=[0.1], margins=[0.02])
    assert custom.margins.tolist() == [0.02]
    with pytest.raises(ValueError):
        BenchmarkSeries(rates=[1.2])
    with pytest.raises(ValueError):
        BenchmarkSeries(rates=[0.5], margins=[-0.01])


# ---------------------------------------------------------------------------
# date alignment


def test_align_dates_window_rule():
    records = bench_records() + [
        rec("a", D(2021, 3, 4), 11),   # 3 days after first grid date
        rec("a", D(2021, 3, 14), 12),  # 6 days after second: inclusive edge
        rec("a", D(2021, 3, 15), 13),  # exactly on the third
        rec("a", D(2021, 2, 28), 14),  # before any window
        rec("a", D(2021, 3, 22), 15),  # beyond the last window
    ]
    out = align_dates(records, "g", population=10_000)
    assert out.panel.labels == ("g", "a")
    assert out.dates == (D(2021, 3, 1), D(2021, 3, 8), D(2021, 3, 15))
    assert out.panel.y[0].tolist() == [5.0, 6.0, 7.0]
    assert out.panel.y[1].tolist() == [11.0, 12.0, 13.0]
    assert len(out.dropped) == 2
    assert any("2021-02-28" in w for w in out.dropped)
    assert any("2021-03-22" in w for w in out.dropped)


def test_align_dates_earliest_wins_in_window():
    records = bench_records() + [
        rec("a", D(2021, 3, 2), 21),
        rec("a", D(2021, 3, 4), 22),  # same window; loses and matches nothing else
    ]
    out = align_dates(records, "g", population=10_000)
    assert out.panel.y[1].tolist()[0] == 21.0
    assert np.isnan(out.panel.y[1, 1]) and np.isnan(out.panel.y[1, 2])
    assert len(out.dropped) == 1


def test_align_dates_same_window_losers_are_dropped():
    # grid dates 3 days apart, so the windows overlap: the later record sits
    # in both, but losing the first window drops it outright
    records = [
        rec("g", D(2021, 3, 1), 5),
        rec("g", D(2021, 3, 4), 6),
        rec("a", D(2021, 3, 2), 31),
        rec("a", D(2021, 3, 4), 32),
    ]
    out = align_dates(records, "g", population=10_000)
    assert out.panel.y[1].tolist()[0] == 31.0
    assert np.isnan(out.panel.y[1, 1])
    assert len(out.dropped) == 1
    assert "2021-03-04" in out.dropped[0] and "2021-03-01 window" in out.dropped[0]


def test_align_dates_overlapping_windows_keep_benchmark_intact():
    # benchmark records are the grid; they are never window-dropped even
    # when their own dates fall inside an earlier window
    records = [
        rec("g", D(2021, 3, 1), 5),
        rec("g", D(2021, 3, 4), 6),
        rec("g", D(2021, 3, 7), 7),
    ]
    out = align_dates(records, "g", population=10_000)
    assert out.panel.y[0].tolist() == [5.0, 6.0, 7.0]
    assert out.dropped == ()


def test_align_dates_errors():
    with pytest.raises(ValueError):
        align_dates(bench_records(), "missing-survey", population=100)
    dup = bench_records() + [rec("g", D(2021, 3, 8), 9)]
    with pytest.raises(ValueError):
        align_dates(dup, "g", population=100)


def test_align_dates_survey_order_override():
    records = bench_records() + [rec("a", D(2021, 3, 2))]
    out = align_dates(records, "g", population=10_000, survey_order=("a", "g"))
    assert out.panel.labels == ("a", "g")
    with pytest.raises(ValueError):
        align_dates(records, "g", population=10_000, survey_order=("a",))


def test_align_roundtrip_on_bundle():
    bundle = vaccine_shaped_bundle()
    records = panel_to_records(bundle.panel, bundle.dates)
    out = align_dates(
        records,
        "weekly-online",
        population=bundle.panel.population,
        survey_order=bundle.panel.labels,
    )
    assert out.panel == bundle.panel
    assert out.dropped == ()
    assert out.dates == bundle.dates


# ---------------------------------------------------------------------------
# fitting wrappers


def anchor_only_panel(y, n):
    arr = np.asarray(y, float)[None, :]
    return SurveyPanel(
        y=arr,
        n=np.asarray(n, float)[None, :],
        population=10_000,
        labels=("anchor",),
    )


def test_fit_full_smoke_and_determinism():
    panel = anchor_only_panel([9.0, 18.0, 30.0], [100.0] * 3)
    spec = ModelSpec(bias=(BiasModelSpec.anchor(),))
    fit = fit_full(panel, spec, QUICK)
    assert fit.saturated_cells == []
    assert {r.t for r in fit.table.rows_named("rate")} == {1, 2, 3}
    again = fit_full(panel, spec, QUICK)
    assert again.table.rows == fit.table.rows


def test_fit_full_rejects_empty_panel():
    panel = anchor_only_panel([np.nan], [np.nan])
    spec = ModelSpec(bias=(BiasModelSpec.anchor(),))
    with pytest.raises(ValueError, match="no observed cells"):
        fit_full(panel, spec, QUICK)


def test_fit_full_reports_saturated_cells():
    panel = SurveyPanel(
        y=np.array([[9.0, 18.0], [200.0, 180.0]]),
        n=np.array([[100.0, 100.0], [200.0, 200.0]]),
        population=10_000,
        labels=("anchor", "online"),
    )
    spec = ModelSpec(bias=(BiasModelSpec.anchor(), BiasModelSpec(kind="constant")))
    fit = fit_full(panel, spec, QUICK)
    assert fit.saturated_cells == [(1, 1)]


def test_nowcast_series_rows_and_missing_anchor_widens():
    panel = anchor_only_panel([np.nan, 20.0, 30.0], [np.nan, 100.0, 100.0])
    spec = ModelSpec(bias=(BiasModelSpec.anchor(),))
    out = nowcast_series(panel, spec, QUICK)
    assert out.failures == ()
    rows = out.table.rows_named("rate")
    assert [r.t for r in rows] == [1, 2, 3]
    assert rows[0].width > 2.0 * rows[2].width  # t=1 has no data yet


def test_nowcast_lists_the_fits_that_did_not_converge(monkeypatch):
    real = analysis.diagnose

    def fails_at_two(draws, **kwargs):  # the fit at t* = 2 reads as unconverged
        diag = real(draws, **kwargs)
        return dataclasses.replace(diag, converged=diag.converged and draws.n_times != 2)

    monkeypatch.setattr(analysis, "diagnose", fails_at_two)
    panel = anchor_only_panel([10.0, 20.0, 30.0], [100.0] * 3)
    out = nowcast_series(panel, ModelSpec(bias=(BiasModelSpec.anchor(),)), QUICK, workers=1)
    assert out.unconverged == (2,) and out.failures == ()
    assert out.table.converged is False
    monkeypatch.setattr(analysis, "diagnose", real)
    assert nowcast_series(panel, ModelSpec(bias=(BiasModelSpec.anchor(),)), QUICK).unconverged == ()


def test_nowcast_calls_its_hooks_once_per_fit_and_scores_one_ess(count_calls, fft_rows):
    # a benchmark times each fit by wrapping analysis.run_chains and
    # analysis.diagnose; a fit's rate row reads the ESS of theta[t*] only
    bundle = vaccine_shaped_bundle()
    calls = count_calls(analysis, "run_chains", "diagnose")
    settings = SamplerSettings(n_chains=2, burn_in=20, n_draws=20, thin=1, adapt_window=10,
                               seed=3)
    out = nowcast_series(bundle.panel, bundle.design.model_spec(), settings, workers=1)
    T = bundle.panel.n_times
    assert T == 48 and out.failures == ()
    assert calls == {"run_chains": T, "diagnose": T}
    assert fft_rows == [1] * T


def test_nowcast_workers_do_not_change_results():
    panel = anchor_only_panel([10.0, 20.0], [100.0, 100.0])
    spec = ModelSpec(bias=(BiasModelSpec.anchor(),))
    serial = nowcast_series(panel, spec, QUICK)
    parallel = nowcast_series(panel, spec, QUICK, workers=2)
    assert parallel.table.rows == serial.table.rows
    assert parallel.failures == serial.failures
    assert parallel.unconverged == serial.unconverged


def test_nowcast_honours_workers_variable(monkeypatch):
    pools = []

    class RecordingPool(mcmc.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kw):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers, **kw)

    monkeypatch.setattr(mcmc, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setenv("SURVEYSYNTH_WORKERS", "2")
    panel = anchor_only_panel([10.0, 20.0], [100.0, 100.0])
    spec = ModelSpec(bias=(BiasModelSpec.anchor(),))
    from_env = nowcast_series(panel, spec, QUICK)
    assert pools == [2]
    serial = nowcast_series(panel, spec, QUICK, workers=1)
    assert pools == [2]
    assert from_env.table == serial.table
    assert from_env.failures == serial.failures


def test_nowcast_widths_at_least_full_fit_on_average():
    panel = anchor_only_panel([12.0, 18.0, 24.0, 30.0], [100.0] * 4)
    spec = ModelSpec(bias=(BiasModelSpec.anchor(),))
    now = nowcast_series(panel, spec, QUICK).table.rows_named("rate")
    full = fit_full(panel, spec, QUICK).table.rows_named("rate")
    full_by_t = {r.t: r for r in full}
    now_widths = [r.width for r in now]
    matched = [full_by_t[r.t].width for r in now]
    assert np.mean(now_widths) >= np.mean(matched)


def test_nowcast_final_point_matches_full_fit():
    panel = anchor_only_panel([10.0, 20.0, 30.0], [100.0] * 3)
    spec = ModelSpec(bias=(BiasModelSpec.anchor(),))
    settings = SamplerSettings(n_chains=2, burn_in=1500, n_draws=4000, thin=2, seed=23)
    now = nowcast_series(panel, spec, settings).table.row("rate", t=3)
    full = fit_full(panel, spec, settings).table.row("rate", t=3)
    assert now.median == pytest.approx(full.median, abs=0.03)


# ---------------------------------------------------------------------------
# interval comparisons (hand-built tables)


def rate_row(t, median, half_width, name="rate"):
    return SummaryRow(
        name=name, survey=None, t=t, median=median,
        lower=median - half_width, upper=median + half_width,
    )


def table_of(rows, alpha=0.05):
    return SummaryTable(alpha=alpha, rows=list(rows))


def test_ci_width_ratio_identity_and_values():
    base = table_of([rate_row(1, 0.5, 0.10), rate_row(2, 0.5, 0.08)])
    same = ci_width_ratio(base, base)
    assert same.ratio.tolist() == [1.0, 1.0]
    assert same.mean == 1.0 and same.median == 1.0
    method = table_of([rate_row(1, 0.5, 0.05), rate_row(2, 0.5, 0.02)])
    out = ci_width_ratio(base, method)
    assert out.t.tolist() == [1, 2]
    assert out.ratio == pytest.approx([2.0, 4.0], rel=1e-12)
    assert out.mean == pytest.approx(3.0, rel=1e-12)
    assert out.median == pytest.approx(3.0, rel=1e-12)


def test_ci_width_ratio_restriction_and_flags():
    base = table_of([rate_row(1, 0.5, 0.1), rate_row(2, 0.5, 0.1), rate_row(3, 0.5, 0.1)])
    method = table_of([rate_row(1, 0.5, 0.05), rate_row(2, 0.5, 0.0), rate_row(4, 0.5, 0.1)])
    out = ci_width_ratio(base, method, restrict_to=(1, 2, 3))
    assert out.t.tolist() == [1]  # 2 flagged, 3 absent from method, 4 excluded
    assert out.flagged == (2,)
    assert out.mean == pytest.approx(2.0, rel=1e-12)


def test_coverage_rules():
    table = table_of(
        [rate_row(1, 0.20, 0.05), rate_row(2, 0.20, 0.05), rate_row(3, 0.5, 0.01)]
    )
    bench = BenchmarkSeries(rates=[0.30, 0.32, np.nan], margins=[0.05, 0.05, 0.05])
    out = coverage_vs_benchmark(table, bench)
    # t=1: interval (.15,.25) touches band (.25,.35) exactly; t=2 misses; t=3 no benchmark
    assert (out.hits, out.total) == (1, 2)
    assert out.fraction == 0.5
    wider = BenchmarkSeries(rates=[0.30, 0.32, np.nan], margins=[0.10, 0.10, 0.10])
    better = coverage_vs_benchmark(table, wider)
    assert better.hits >= out.hits  # coverage monotone in margin


def test_n_iid_closed_form():
    base = table_of([rate_row(1, 0.5, 0.098)])
    out = n_iid_gain(base, base, alpha=0.05)
    z = special.ndtri(0.975)
    assert out.z == z
    expect = z * z * 0.25 / 0.098**2
    assert out.n_iid_baseline[0] == pytest.approx(expect, rel=1e-12)
    assert out.n_iid_baseline[0] == pytest.approx(100.0, abs=0.05)
    assert out.gain.tolist() == [0.0]
    assert out.mean_gain == 0.0 and out.median_gain == 0.0


def test_n_iid_monotone_in_width():
    base = table_of([rate_row(1, 0.5, 0.10)])
    narrow = table_of([rate_row(1, 0.5, 0.05)])
    out = n_iid_gain(base, narrow)
    assert out.ratio[0] == pytest.approx(2.0, rel=1e-12)
    assert out.n_iid_method[0] == pytest.approx(4.0 * out.n_iid_baseline[0], rel=1e-12)
    assert out.gain[0] > 0
    # the published ratio-scaled variant is reported alongside, distinct value
    z2pq = out.z**2 * 0.25
    assert out.n_iid_literal[0] == pytest.approx(z2pq / (out.ratio[0] * out.moe_baseline[0]), rel=1e-12)


def test_n_iid_flags_degenerate_rates():
    base = table_of([rate_row(1, 0.0, 0.01), rate_row(2, 0.4, 0.05)])
    method = table_of([rate_row(1, 0.1, 0.01), rate_row(2, 0.4, 0.04)])
    out = n_iid_gain(base, method)
    assert out.flagged == (1,)
    assert out.t.tolist() == [2]


@pytest.mark.parametrize("alpha", [-0.1, 0.0, 1.0, 1.5, math.nan])
def test_alpha_is_checked_before_any_work(monkeypatch, alpha):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the sampler ran")

    monkeypatch.setattr(analysis, "run_chains", must_not_run)
    monkeypatch.setattr(analysis, "map_jobs", must_not_run)
    panel = SurveyPanel(y=np.array([[9.0, 18.0]]), n=np.array([[100.0, 100.0]]),
                        population=10_000, labels=("a",))
    spec = ModelSpec(bias=(BiasModelSpec.anchor(),))
    for fit in (fit_full, nowcast_series):
        with pytest.raises(ValueError, match="alpha must lie in"):
            fit(panel, spec, SamplerSettings.desk(), alpha=alpha)
