import math

import numpy as np
import pytest

from surveysynth import io, mcmc, simstudy
from surveysynth.mcmc import InitializationError, SamplerSettings
from surveysynth.simstudy import (
    FIT_KINDS,
    TRUTH_KINDS,
    CellResult,
    RepRecord,
    StudyConfig,
    rep_dataset,
    run_cell,
    run_grid,
    study_design,
)

TINY = SamplerSettings(n_chains=2, burn_in=300, n_draws=450, thin=3, seed=0)


def test_kind_catalogues():
    assert TRUTH_KINDS == ("constant", "linear", "walk")
    assert FIT_KINDS == ("constant", "linear", "walk", "unbiased-only")


def test_study_design_shape():
    d = study_design("linear", n_times=4)
    assert (d.n_surveys, d.n_times) == (3, 4)
    assert tuple(b.kind for b in d.bias) == ("known", "linear", "linear")
    assert d.prior_regime == "narrowed"
    assert d.n_plan[0].tolist() == [100.0] * 4
    assert d.n_plan[1].tolist() == [1000.0] * 4
    assert d.population == 10_000_000
    with pytest.raises(ValueError):
        study_design("quadratic", n_times=4)


def test_rep_dataset_deterministic():
    t1, p1 = rep_dataset(7, "walk", n_times=3, rep=2)
    t2, p2 = rep_dataset(7, "walk", n_times=3, rep=2)
    assert t1 == t2
    assert p1 == p2


def test_rep_dataset_varies_by_rep_and_cell():
    _, base = rep_dataset(7, "walk", n_times=3, rep=2)
    _, other_rep = rep_dataset(7, "walk", n_times=3, rep=3)
    _, other_truth = rep_dataset(7, "linear", n_times=3, rep=2)
    _, other_seed = rep_dataset(8, "walk", n_times=3, rep=2)
    assert base != other_rep
    assert base != other_truth
    assert base != other_seed


# ---------------------------------------------------------------------------
# aggregation


def records_of(errors, flags, fit_kind="constant"):
    return [
        RepRecord(
            truth_kind="constant",
            fit_kind=fit_kind,
            n_times=2,
            rep=i,
            sq_error=e,
            converged=c,
        )
        for i, (e, c) in enumerate(zip(errors, flags))
    ]


def test_from_records_matches_plain_mean_and_sd():
    errs = [0.01, 0.04, 0.09, 0.25]
    recs = records_of(errs, [True, True, True, False])
    cell = CellResult.from_records(recs)
    kept = errs[:3]
    assert cell.mse == float(np.mean(kept))
    assert cell.mcse == float(np.std(kept, ddof=1) / math.sqrt(3))
    assert cell.ci95 == (cell.mse - 1.96 * cell.mcse, cell.mse + 1.96 * cell.mcse)
    assert cell.failures == 1
    assert cell.n_reps == 4


def test_from_records_single_converged_rep():
    cell = CellResult.from_records(records_of([0.04], [True]))
    assert cell.mse == 0.04
    assert cell.mcse is None and cell.ci95 is None


def test_from_records_all_failed():
    cell = CellResult.from_records(records_of([0.04, 0.01], [False, False]))
    assert math.isnan(cell.mse)
    assert cell.failures == 2


def test_from_records_rejects_mixed_cells():
    recs = records_of([0.01], [True]) + records_of([0.02], [True], fit_kind="walk")
    with pytest.raises(ValueError):
        CellResult.from_records(recs)
    with pytest.raises(ValueError):
        CellResult.from_records([])


# ---------------------------------------------------------------------------
# running cells


def test_run_cell_smoke_and_deterministic():
    cell, records = run_cell(
        "constant", "constant", n_times=2, n_reps=2, settings=TINY, seed=3
    )
    assert cell.n_reps == 2
    assert len(records) == 2
    assert [r.rep for r in records] == [0, 1]
    for r in records:
        assert math.isfinite(r.sq_error) and r.sq_error >= 0.0
    again, records2 = run_cell(
        "constant", "constant", n_times=2, n_reps=2, settings=TINY, seed=3
    )
    assert [r.sq_error for r in records2] == [r.sq_error for r in records]
    assert again == cell


def test_run_cell_calls_its_hooks_once_per_fit_and_scores_one_ess(count_calls, fft_rows):
    # a benchmark times each fit by wrapping these three in simstudy's
    # globals; a rep's estimate reads the ESS of theta[T] only
    calls = count_calls(simstudy, "run_chains", "diagnose", "rep_dataset")
    _, records = run_cell("walk", "walk", n_times=2, n_reps=3, settings=TINY, seed=3)
    assert all(math.isfinite(r.sq_error) for r in records)
    assert calls == {"run_chains": 3, "diagnose": 3, "rep_dataset": 3}
    assert fft_rows == [1] * 3


def test_run_cell_unbiased_only_ignores_biased_surveys():
    cell, records = run_cell(
        "walk", "unbiased-only", n_times=2, n_reps=1, settings=TINY, seed=4
    )
    assert cell.fit_kind == "unbiased-only"
    assert len(records) == 1


def test_run_cell_validates_kinds():
    with pytest.raises(ValueError):
        run_cell("quadratic", "constant", n_times=2, n_reps=1, settings=TINY, seed=0)
    with pytest.raises(ValueError):
        run_cell("constant", "anchor", n_times=2, n_reps=1, settings=TINY, seed=0)
    with pytest.raises(ValueError):
        run_cell("constant", "constant", n_times=2, n_reps=0, settings=TINY, seed=0)


def test_run_cell_records_a_rep_whose_chains_cannot_start(monkeypatch, tmp_path):
    fit = simstudy.run_chains
    calls = []

    def second_fails(panel, spec, settings, *args, **kw):
        calls.append(settings.seed)
        if len(calls) == 2:
            raise InitializationError("lik[1]")
        return fit(panel, spec, settings, *args, **kw)

    monkeypatch.setattr(simstudy, "run_chains", second_fails)
    cell, records = run_cell("constant", "constant", n_times=2, n_reps=3, settings=TINY, seed=3)
    assert len(calls) == 3
    assert [r.rep for r in records] == [0, 1, 2]
    failed = records[1]
    assert math.isnan(failed.sq_error) and failed.converged is False
    assert all(math.isfinite(r.sq_error) for r in (records[0], records[2]))
    assert cell.n_reps == 3
    assert cell.failures == 1 + sum(not r.converged for r in (records[0], records[2]))

    path = tmp_path / "rep_errors.csv"
    io.write_rep_records(records, path)
    back = io.read_rep_records(path)
    assert math.isnan(back[1].sq_error) and back[1].converged is False
    assert back[0] == records[0] and back[2] == records[2]
    assert CellResult.from_records(back) == cell


def test_run_grid_row_count():
    results, records = run_grid(StudyConfig(n_times=(2,), n_reps=1), settings=TINY, seed=5)
    assert len(results) == len(TRUTH_KINDS) * len(FIT_KINDS)
    assert len(records) == len(results)
    combos = {(c.truth_kind, c.fit_kind, c.n_times) for c in results}
    assert len(combos) == len(results)
    assert all(c.n_times == 2 for c in results)


def test_run_grid_workers_do_not_change_results(monkeypatch, tmp_path):
    study = StudyConfig(n_times=(2,), n_reps=2)
    written = []
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("SURVEYSYNTH_WORKERS", workers)
        results, records = run_grid(study, TINY, seed=5)
        io.write_sim_results(results, tmp_path / "results.csv")
        io.write_rep_records(records, tmp_path / "rep_errors.csv")
        written.append(((tmp_path / "results.csv").read_bytes(),
                        (tmp_path / "rep_errors.csv").read_bytes()))
    assert written[1] == written[0] and written[2] == written[0]


def test_run_grid_maps_its_fits_once(monkeypatch):
    pools = []

    class RecordingPool(mcmc.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kw):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers, **kw)

    monkeypatch.setattr(mcmc, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setenv("SURVEYSYNTH_WORKERS", "2")
    _, records = run_grid(StudyConfig(n_times=(2,), n_reps=1), TINY, seed=5)
    assert len(records) == len(TRUTH_KINDS) * len(FIT_KINDS)
    assert pools == [2]
