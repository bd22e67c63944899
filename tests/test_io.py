import datetime
import math

import numpy as np
import pytest

from surveysynth import io
from surveysynth.analysis import BenchmarkSeries, DatedRecord, NiidReport, RatioReport
from surveysynth.core import SummaryRow, SummaryTable, SurveyPanel
from surveysynth.datagen import demo_panel, vaccine_shaped_bundle
from surveysynth.simstudy import CellResult, RepRecord

D = datetime.date


# ---------------------------------------------------------------------------
# panel CSV


def test_panel_roundtrip_exact(tmp_path, demo_panel):
    path = tmp_path / "panel.csv"
    io.write_panel(demo_panel, path)
    back = io.read_panel(path)
    assert back == demo_panel


def test_panel_roundtrip_with_missing_cells_and_trailing_time(tmp_path):
    y = np.array([[np.nan, 4.0, np.nan], [7.0, np.nan, np.nan]])
    n = np.array([[np.nan, 10.0, np.nan], [20.0, np.nan, np.nan]])
    panel = SurveyPanel(y=y, n=n, population=500, labels=("a", "b"))
    path = tmp_path / "panel.csv"
    io.write_panel(panel, path)
    back = io.read_panel(path)
    assert back == panel
    assert back.n_times == 3  # t=3 has no rows but is declared in the header


def test_panel_write_is_byte_deterministic(tmp_path, demo_panel):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    io.write_panel(demo_panel, p1)
    io.write_panel(demo_panel, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_panel_file_shape(tmp_path, demo_panel):
    path = tmp_path / "panel.csv"
    io.write_panel(demo_panel, path)
    lines = path.read_text().splitlines()
    metas = [l for l in lines if l.startswith("#")]
    assert any("population=10000" in m for m in metas)
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "survey,t,y,n"
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == int(np.sum(demo_panel.observed))


def test_panel_reader_rejects_unknown_survey_and_bad_meta(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(
        "# meta: population=100\n# meta: n_times=2\n# meta: surveys=a\n"
        "survey,t,y,n\nzzz,1,1,2\n"
    )
    with pytest.raises(ValueError, match="zzz"):
        io.read_panel(path)
    path.write_text("survey,t,y,n\na,1,1,2\n")
    with pytest.raises(ValueError, match="meta"):
        io.read_panel(path)


def test_panel_reader_rejects_duplicate_cells(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(
        "# meta: population=100\n# meta: n_times=2\n# meta: surveys=a,b\n"
        "survey,t,y,n\na,1,1,2\nb,1,1,2\na,2,1,2\na,1,2,2\n"
    )
    with pytest.raises(ValueError, match="duplicate row for survey 'a' at t=1"):
        io.read_panel(path)


def test_panel_reader_rejects_duplicate_labels(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(
        "# meta: population=100\n# meta: n_times=1\n# meta: surveys=a,a\n"
        "survey,t,y,n\na,1,1,2\n"
    )
    with pytest.raises(ValueError, match="duplicate survey label 'a'"):
        io.read_panel(path)


def test_panel_label_with_comma_rejected(tmp_path):
    panel = SurveyPanel(
        y=np.array([[1.0]]), n=np.array([[2.0]]), population=10, labels=("a,b",)
    )
    with pytest.raises(ValueError, match="comma"):
        io.write_panel(panel, tmp_path / "p.csv")


# ---------------------------------------------------------------------------
# dated records and benchmark CSVs


def test_dated_records_roundtrip(tmp_path):
    recs = [
        DatedRecord("anchor", D(2021, 1, 4), 9, 100),
        DatedRecord("weekly", D(2021, 1, 5), 120, 1000),
    ]
    path = tmp_path / "records.csv"
    io.write_dated_records(recs, path)
    assert io.read_dated_records(path) == recs
    text = path.read_text().splitlines()
    assert text[0] == "survey,date,y,n"
    assert text[1] == "anchor,2021-01-04,9,100"


def test_benchmark_roundtrip_with_gaps(tmp_path):
    bench = BenchmarkSeries(rates=[0.1, np.nan, 0.3], margins=[0.05, 0.05, 0.02])
    path = tmp_path / "bench.csv"
    io.write_benchmark(bench, path)
    back = io.read_benchmark(path)
    assert back.rates == pytest.approx(bench.rates, nan_ok=True)
    assert back.margins.tolist() == bench.margins.tolist()
    assert path.read_text().splitlines()[0] == "t,rate,margin"


def test_benchmark_reader_rejects_duplicate_times(tmp_path):
    path = tmp_path / "bench.csv"
    path.write_text("t,rate,margin\n1,0.1,0.05\n2,0.2,0.05\n1,0.3,0.05\n")
    with pytest.raises(ValueError, match="duplicate row for t=1"):
        io.read_benchmark(path)


# ---------------------------------------------------------------------------
# summary tables


def summary_fixture():
    rows = [
        SummaryRow("rate", None, 0, 0.5, 0.4, 0.6, None, None),
        SummaryRow("rate", None, 1, 0.52, 0.41, 0.61, 1.01, 1900.5),
        SummaryRow("phi", 1, 1, 2.0, 1.5, 3.0, 1.005, 800.0),
        SummaryRow("sigma_sq", None, None, 0.01, 0.001, 0.1, 1.0, 1000.0),
    ]
    return SummaryTable(alpha=0.05, rows=rows, converged=True)


def test_summary_roundtrip(tmp_path):
    table = summary_fixture()
    path = tmp_path / "summary.csv"
    io.write_summary(table, path)
    back = io.read_summary(path)
    assert back.alpha == table.alpha
    assert back.converged is True
    assert back.rows == table.rows


def test_summary_roundtrip_unknown_convergence(tmp_path):
    table = summary_fixture()
    table.converged = None
    path = tmp_path / "summary.csv"
    io.write_summary(table, path)
    assert io.read_summary(path).converged is None


# ---------------------------------------------------------------------------
# simulation study outputs


def test_sim_results_roundtrip(tmp_path):
    results = [
        CellResult("walk", "constant", 5, 3, 2.5e-3, 1e-4, (2.3e-3, 2.7e-3), 1),
        CellResult("constant", "unbiased-only", 5, 2, float("nan"), None, None, 2),
    ]
    path = tmp_path / "results.csv"
    io.write_sim_results(results, path)
    back = io.read_sim_results(path)
    assert back[0] == results[0]
    assert back[1].mcse is None and back[1].ci95 is None
    assert math.isnan(back[1].mse)
    assert back[1].failures == 2


def test_rep_records_roundtrip(tmp_path):
    records = [
        RepRecord("walk", "walk", 5, 0, 1.2e-3, True),
        RepRecord("walk", "walk", 5, 1, 4.5e-2, False),
    ]
    path = tmp_path / "reps.csv"
    io.write_rep_records(records, path)
    assert io.read_rep_records(path) == records


# ---------------------------------------------------------------------------
# truth sidecar


def test_truth_roundtrip(tmp_path):
    theta = np.array([-1.0, -0.5, 0.0])
    phi = np.array([[1.0, 1.0], [2.0, 2.5]])
    positives = np.array([40, 55])
    path = tmp_path / "truth.csv"
    io.write_truth(path, theta=theta, phi=phi, positives=positives, sigma_sq=0.04, pi_sq=0.01)
    back = io.read_truth(path)
    assert back.theta.tolist() == theta.tolist()
    assert back.phi.tolist() == phi.tolist()
    assert back.positives.tolist() == positives.tolist()
    assert back.sigma_sq == 0.04
    assert back.pi_sq == 0.01


def test_truth_roundtrip_without_bias_walk_variance(tmp_path):
    path = tmp_path / "truth.csv"
    io.write_truth(
        path,
        theta=np.array([0.0, 0.1]),
        phi=np.array([[1.0]]),
        positives=np.array([3]),
        sigma_sq=0.5,
        pi_sq=None,
    )
    assert io.read_truth(path).pi_sq is None


# ---------------------------------------------------------------------------
# report outputs


def test_ratio_report_roundtrip(tmp_path):
    report = RatioReport(
        t=np.array([1, 2, 4]), ratio=np.array([1.5, 2.0, 2.5]),
        mean=2.0, median=2.0, flagged=(3,),
    )
    path = tmp_path / "ratios.csv"
    io.write_ratio_report(report, path)
    back = io.read_ratio_report(path)
    assert back.t.tolist() == [1, 2, 4]
    assert back.ratio.tolist() == [1.5, 2.0, 2.5]
    assert back.mean == 2.0 and back.median == 2.0
    assert back.flagged == (3,)


def test_niid_report_roundtrip(tmp_path):
    ones = np.array([1.0, 2.0])
    report = NiidReport(
        t=np.array([1, 2]),
        p_hat_baseline=ones * 0.1, moe_baseline=ones * 0.01,
        p_hat_method=ones * 0.11, moe_method=ones * 0.005,
        ratio=ones, n_iid_baseline=ones * 100, n_iid_method=ones * 400,
        n_iid_literal=ones * 50, gain=ones * 300,
        mean_gain=450.0, median_gain=450.0, z=1.96, alpha=0.05, flagged=(),
    )
    path = tmp_path / "niid.csv"
    io.write_niid_report(report, path)
    back = io.read_niid_report(path)
    array_fields = (
        "t", "p_hat_baseline", "moe_baseline", "p_hat_method", "moe_method",
        "ratio", "n_iid_baseline", "n_iid_method", "n_iid_literal", "gain",
    )
    for name in array_fields:
        assert getattr(back, name).tolist() == getattr(report, name).tolist(), name
    assert (back.mean_gain, back.median_gain) == (report.mean_gain, report.median_gain)
    assert (back.z, back.alpha, back.flagged) == (report.z, report.alpha, report.flagged)


def test_vaccine_bundle_files_roundtrip(tmp_path):
    bundle = vaccine_shaped_bundle()
    ppath = tmp_path / "panel.csv"
    io.write_panel(bundle.panel, ppath)
    assert io.read_panel(ppath) == bundle.panel
    bench = BenchmarkSeries(rates=bundle.benchmark_rates, margins=bundle.benchmark_margin)
    bpath = tmp_path / "bench.csv"
    io.write_benchmark(bench, bpath)
    back = io.read_benchmark(bpath)
    assert back.rates == pytest.approx(bench.rates, nan_ok=True)
