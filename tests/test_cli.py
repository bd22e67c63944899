import datetime
import json

import numpy as np
import pytest

from surveysynth import io
from surveysynth.analysis import BenchmarkSeries, DatedRecord
from surveysynth.cli import main
from surveysynth.config import ConfigError, RunConfig
from surveysynth.core import SummaryRow, SummaryTable, SurveyPanel


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


QUICK_SAMPLER = {"n_chains": 2, "burn_in": 400, "n_draws": 600, "thin": 3}


# ---------------------------------------------------------------------------
# simulate


def simulate_cfg(tmp_path):
    return write_cfg(
        tmp_path,
        {
            "seed": 9,
            "generate": {
                "n_plan": [[100, 100, 100], [1000, 0, 1000]],
                "population": 50_000,
                "bias": [{"kind": "known"}, {"kind": "constant"}],
                "prior_regime": "narrowed",
                "labels": ["anchor", "online"],
            },
        },
    )


def test_simulate_writes_panel_and_truth(tmp_path, capsys):
    cfg = simulate_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    panel = io.read_panel(out / "panel.csv")
    assert panel.labels == ("anchor", "online")
    assert panel.n_times == 3
    assert np.isnan(panel.n[1, 1])  # planned skip
    truth = io.read_truth(out / "truth.csv")
    assert truth.theta.size == 4
    assert truth.phi.shape == (2, 3)
    assert (truth.phi[0] == 1.0).all()
    assert truth.positives.size == 3
    assert "panel.csv" in capsys.readouterr().out


def test_simulate_deterministic_files(tmp_path):
    cfg = simulate_cfg(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", cfg, "--out", str(out1)])
    main(["simulate", "--config", cfg, "--out", str(out2)])
    assert (out1 / "panel.csv").read_bytes() == (out2 / "panel.csv").read_bytes()
    assert (out1 / "truth.csv").read_bytes() == (out2 / "truth.csv").read_bytes()
    out3 = tmp_path / "c"
    main(["simulate", "--config", cfg, "--seed", "10", "--out", str(out3)])
    assert (out1 / "panel.csv").read_bytes() != (out3 / "panel.csv").read_bytes()


def test_simulate_requires_generate_section(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"seed": 1})
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 3
    assert "error: bad-config" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fit / nowcast


def demo_panel_file(tmp_path, demo_panel):
    path = tmp_path / "panel.csv"
    io.write_panel(demo_panel, path)
    return str(path)


def fit_cfg(tmp_path):
    return write_cfg(
        tmp_path,
        {
            "seed": 5,
            "sampler": QUICK_SAMPLER,
            "model": {
                "bias": [{"kind": "known"}, {"kind": "linear"}, {"kind": "linear"}]
            },
        },
    )


def test_fit_demo_panel_writes_ten_rate_rows(tmp_path, demo_panel, capsys):
    panel = demo_panel_file(tmp_path, demo_panel)
    out = tmp_path / "out"
    code = main(["fit", "--panel", panel, "--config", fit_cfg(tmp_path), "--out", str(out)])
    assert code == 0
    table = io.read_summary(out / "summary.csv")
    rate_rows = table.rows_named("rate")
    assert len(rate_rows) == 10
    assert [r.t for r in rate_rows] == list(range(1, 11))
    assert all(0.0 < r.lower <= r.median <= r.upper < 1.0 for r in rate_rows)
    stdout = capsys.readouterr().out
    assert "summary.csv" in stdout


def test_fit_byte_deterministic(tmp_path, demo_panel):
    panel = demo_panel_file(tmp_path, demo_panel)
    cfg = fit_cfg(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["fit", "--panel", panel, "--config", cfg, "--out", str(out1)])
    main(["fit", "--panel", panel, "--config", cfg, "--out", str(out2)])
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()


def test_fit_defaults_to_all_known_bias(tmp_path, capsys):
    panel = SurveyPanel(
        y=np.array([[10.0, 20.0]]), n=np.array([[100.0, 100.0]]),
        population=10_000, labels=("anchor",),
    )
    path = tmp_path / "p.csv"
    io.write_panel(panel, path)
    cfg = write_cfg(tmp_path, {"sampler": QUICK_SAMPLER})
    out = tmp_path / "out"
    code = main(["fit", "--panel", str(path), "--config", cfg, "--out", str(out)])
    assert code == 0
    assert len(io.read_summary(out / "summary.csv").rows_named("rate")) == 2


def test_fit_bias_flag_overrides(tmp_path, demo_panel):
    panel = demo_panel_file(tmp_path, demo_panel)
    cfg = fit_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(
        ["fit", "--panel", panel, "--config", cfg, "--out", str(out),
         "--bias", "survey2=constant", "--bias", "2=constant"]
    )
    assert code == 0
    table = io.read_summary(out / "summary.csv")
    # constant bias still yields per-time odds rows for both modeled surveys
    assert len(table.rows_named("phi", survey=1)) == 10
    assert len(table.rows_named("phi", survey=2)) == 10


def test_fit_error_categories(tmp_path, demo_panel, capsys):
    out = str(tmp_path / "out")
    code = main(["fit", "--panel", str(tmp_path / "absent.csv"), "--out", out])
    assert code == 4
    assert "error: unreadable-input" in capsys.readouterr().err

    panel = demo_panel_file(tmp_path, demo_panel)
    bad_cfg = write_cfg(tmp_path, {"zzz": 1}, "bad.json")
    code = main(["fit", "--panel", panel, "--config", bad_cfg, "--out", out])
    assert code == 3
    assert "error: bad-config" in capsys.readouterr().err

    bad_kind = write_cfg(tmp_path, {"model": {"bias": [{"kind": "anchor"}]}}, "kind.json")
    code = main(["fit", "--panel", panel, "--config", bad_kind, "--out", out])
    assert code == 3
    assert "error: bad-config" in capsys.readouterr().err

    # JSON booleans where the config takes numbers
    for name, model in [
        ("prior", {"bias": [{"kind": "known"}], "priors": {"theta0_var": True}}),
        ("phi", {"bias": [{"kind": "known", "fixed_phi": [True, 1]}]}),
    ]:
        bool_cfg = write_cfg(tmp_path, {"model": model}, f"{name}.json")
        code = main(["fit", "--panel", panel, "--config", bool_cfg, "--out", out])
        assert code == 3
        assert "error: bad-config" in capsys.readouterr().err

    short_cfg = write_cfg(
        tmp_path, {"sampler": QUICK_SAMPLER, "model": {"bias": [{"kind": "known"}]}},
        "short.json",
    )
    code = main(["fit", "--panel", panel, "--config", short_cfg, "--out", out])
    assert code == 5
    assert "error: invalid-panel" in capsys.readouterr().err

    code = main(["fit", "--panel", panel, "--config", fit_cfg(tmp_path), "--out", out,
                 "--bias", "nonsense"])
    assert code == 3
    code = main(["fit", "--panel", panel, "--config", fit_cfg(tmp_path), "--out", out,
                 "--bias", "zzz=constant"])
    assert code == 3


@pytest.mark.parametrize("command", ["fit", "nowcast"])
@pytest.mark.parametrize("alpha", ["0", "1", "1.5", "-0.1", "nan"])
def test_bad_alpha_fails_before_sampling(tmp_path, demo_panel, capsys, monkeypatch, command, alpha):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the sampler ran")

    monkeypatch.setattr("surveysynth.cli.fit_full", must_not_run)
    monkeypatch.setattr("surveysynth.cli.nowcast_series", must_not_run)
    out = tmp_path / "out"
    code = main([command, "--panel", demo_panel_file(tmp_path, demo_panel),
                 "--config", fit_cfg(tmp_path), "--out", str(out), "--alpha", alpha])
    assert code == 3
    assert "error: bad-config: --alpha" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "nowcast"])
@pytest.mark.parametrize(
    "env, flag, named",
    [("abc", [], "SURVEYSYNTH_WORKERS"), ("0", [], "SURVEYSYNTH_WORKERS"),
     (None, ["--workers", "0"], "workers")],
)
def test_bad_worker_count_fails_before_sampling(
    tmp_path, demo_panel, capsys, monkeypatch, command, env, flag, named
):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the sampler ran")

    monkeypatch.setattr("surveysynth.cli.fit_full", must_not_run)
    monkeypatch.setattr("surveysynth.cli.nowcast_series", must_not_run)
    if env is None:
        monkeypatch.delenv("SURVEYSYNTH_WORKERS", raising=False)
    else:
        monkeypatch.setenv("SURVEYSYNTH_WORKERS", env)
    out = tmp_path / "out"
    code = main([command, "--panel", demo_panel_file(tmp_path, demo_panel),
                 "--config", fit_cfg(tmp_path), "--out", str(out), *flag])
    assert code == 3
    err = capsys.readouterr().err
    assert f"error: bad-config: {named} must be an integer >= 1" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "nowcast", "sim-study"])
def test_out_naming_a_file_fails_before_sampling(tmp_path, demo_panel, capsys, monkeypatch, command):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the sampler ran")

    for name in ("fit_full", "nowcast_series", "run_grid"):
        monkeypatch.setattr(f"surveysynth.cli.{name}", must_not_run)
    inputs = [] if command == "sim-study" else [
        "--panel", demo_panel_file(tmp_path, demo_panel), "--config", fit_cfg(tmp_path)]
    taken = tmp_path / "taken"
    taken.write_text("keep")
    # the file itself, and a directory that would have to be made under it
    for out in (taken, taken / "out"):
        code = main([command, *inputs, "--out", str(out)])
        assert code == 3
        assert "error: bad-config: --out" in capsys.readouterr().err
    assert taken.read_text() == "keep"


@pytest.mark.parametrize("value", ["abc", "0"])
def test_sim_study_bad_worker_count_fails_before_drawing(tmp_path, capsys, monkeypatch, value):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr("surveysynth.cli.run_grid", must_not_run)
    monkeypatch.setenv("SURVEYSYNTH_WORKERS", value)
    out = tmp_path / "out"
    assert main(["sim-study", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "error: bad-config: SURVEYSYNTH_WORKERS must be an integer >= 1" in err
    assert not out.exists()


@pytest.mark.parametrize("sampler", [{"n_draws": 5, "thin": 5}, {"n_draws": 11, "thin": 3}])
def test_too_few_kept_draws_fail_before_sampling(tmp_path, demo_panel, capsys, monkeypatch, sampler):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the sampler ran")

    monkeypatch.setattr("surveysynth.cli.fit_full", must_not_run)
    cfg = write_cfg(tmp_path, {"sampler": sampler, "model": {"bias": [{"kind": "known"}] * 3}})
    out = tmp_path / "out"
    code = main(["fit", "--panel", demo_panel_file(tmp_path, demo_panel), "--config", cfg,
                 "--out", str(out)])
    assert code == 3
    assert "at least 4 are needed" in capsys.readouterr().err
    assert not out.exists()


_FIT_MODEL = {"bias": [{"kind": "known"}] * 3}


@pytest.mark.parametrize(
    "command, doc, flag",
    [
        ("fit", {"sampler": {**QUICK_SAMPLER, "burn_in": 10.5}, "model": _FIT_MODEL}, []),
        ("fit", {"sampler": {**QUICK_SAMPLER, "seed": 1.5}, "model": _FIT_MODEL}, []),
        ("fit", {"seed": 1.5, "sampler": QUICK_SAMPLER, "model": _FIT_MODEL}, []),
        ("fit", {"sampler": QUICK_SAMPLER, "model": _FIT_MODEL}, ["--seed", "-1"]),
        ("nowcast", {"sampler": {**QUICK_SAMPLER, "n_chains": True}, "model": _FIT_MODEL}, []),
        ("nowcast", {"sampler": {**QUICK_SAMPLER, "thin": 3.0}, "model": _FIT_MODEL}, []),
        ("sim-study", {"study": {"n_times": [2], "n_reps": 1.5}}, []),
        ("sim-study", {"study": {"n_times": [2.5], "n_reps": 1}}, []),
        ("sim-study", {"seed": 1.5, "study": {"n_times": [2], "n_reps": 1}}, []),
        ("sim-study", {"study": {"n_times": [2], "n_reps": 1}}, ["--seed", "-1"]),
        ("simulate", {"generate": {"n_plan": [[100]], "population": 1000,
                                   "bias": [{"kind": "known"}]}}, ["--seed", "-1"]),
        ("simulate", {"generate": {"n_plan": [[100]], "population": 50_000.7,
                                   "bias": [{"kind": "known"}]}}, []),
        ("fit", {"version": 1.5, "sampler": QUICK_SAMPLER, "model": _FIT_MODEL}, []),
        # a section that is not a JSON object
        ("fit", {"sampler": [], "model": _FIT_MODEL}, []),
        ("fit", {"sampler": QUICK_SAMPLER, "model": {**_FIT_MODEL, "priors": []}}, []),
        ("sim-study", {"study": []}, []),
        ("simulate", {"generate": {"n_plan": [[100]], "population": 1000,
                                   "bias": [{"kind": "known"}], "priors": []}}, []),
        # a key that takes a list but holds no JSON array
        ("fit", {"sampler": QUICK_SAMPLER, "model": {"bias": "walk"}}, []),
        ("nowcast", {"sampler": QUICK_SAMPLER,
                     "model": {"bias": [{"kind": "known", "fixed_phi": "12"}] * 3}}, []),
        ("sim-study", {"study": {"n_times": 2, "n_reps": 1}}, []),
        ("simulate", {"generate": {"n_plan": [[100]], "population": 1000,
                                   "bias": [{"kind": "known"}], "labels": "a"}}, []),
    ],
)
def test_bad_counts_and_seeds_fail_before_any_work(
    tmp_path, demo_panel, capsys, monkeypatch, command, doc, flag
):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the sampler ran")

    for name in ("fit_full", "nowcast_series", "run_grid", "draw_parameters"):
        monkeypatch.setattr(f"surveysynth.cli.{name}", must_not_run)
    out = tmp_path / "out"
    args = [command, "--config", write_cfg(tmp_path, doc), "--out", str(out), *flag]
    if command in ("fit", "nowcast"):
        args += ["--panel", demo_panel_file(tmp_path, demo_panel)]
    assert main(args) == 3
    assert "error: bad-config:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "n_plan, message",
    [
        ("ab", "generate.n_plan must be a JSON array, got 'ab'"),
        ({"a": 1}, "generate.n_plan must be a JSON array, got {'a': 1}"),
        ([100, 100], "generate.n_plan[0] must be a JSON array, got 100"),
        ([[1, "x"]], "generate.n_plan[0] must hold numbers, got 'x'"),
        ([[100], [True]], "generate.n_plan[1] must hold numbers, got True"),
        ([[1, 2], [3]], "generate.n_plan rows must be of one length, got [2, 1]"),
    ],
    ids=["string", "object", "flat", "text-cell", "bool-cell", "ragged"],
)
def test_n_plan_errors_name_the_key(tmp_path, capsys, n_plan, message):
    doc = {"generate": {"n_plan": n_plan, "population": 1000, "bias": [{"kind": "known"}]}}
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_dict(doc)
    assert str(exc.value) == message
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 3
    assert f"error: bad-config: {message}" in capsys.readouterr().err
    assert not out.exists()


PANEL_HEAD = "# meta: population=1000\n# meta: n_times=2\n# meta: surveys={}\nsurvey,t,y,n\n"


@pytest.mark.parametrize("row", ["a,1,3,inf", "a,1,inf,10", "a,1,-inf,10"])
def test_fit_reports_an_infinite_count_as_an_invalid_panel(tmp_path, capsys, row):
    path = tmp_path / "p.csv"
    path.write_text(PANEL_HEAD.format("a") + row + "\na,2,4,10\n")
    out = tmp_path / "out"
    code = main(["fit", "--panel", str(path), "--out", str(out)])
    assert code == 5
    err = capsys.readouterr().err
    assert "error: invalid-panel:" in err and "must be finite" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_fit_rejects_duplicate_survey_labels(tmp_path, capsys):
    # every row would land in the second 'a', leaving the first one empty
    path = tmp_path / "p.csv"
    path.write_text(PANEL_HEAD.format("a,a") + "a,1,3,10\na,2,4,10\n")
    out = tmp_path / "out"
    code = main(["fit", "--panel", str(path), "--out", str(out)])
    assert code == 4
    assert "error: unreadable-input:" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_duplicate_survey_labels(tmp_path, capsys):
    with open(simulate_cfg(tmp_path)) as f:
        doc = json.load(f)
    doc["generate"]["labels"] = ["a", "a"]
    out = tmp_path / "out"
    code = main(["simulate", "--config", write_cfg(tmp_path, doc, "dup.json"), "--out", str(out)])
    assert code == 3
    assert "duplicate survey label 'a'" in capsys.readouterr().err
    assert not out.exists()


def test_fit_with_impossible_start_cell_is_a_run_failure(tmp_path, capsys):
    # log phi = 690.8 puts the known survey's exact cells outside the odds
    # the kernel can represent: the chain cannot start
    panel = SurveyPanel(
        y=np.array([[9.0, 18.0], [66.0, 48.0]]), n=np.array([[100.0, 100.0], [1000.0, 1000.0]]),
        population=10_000, labels=("anchor", "known"),
    )
    path = tmp_path / "p.csv"
    io.write_panel(panel, path)
    cfg = write_cfg(tmp_path, {"sampler": {**QUICK_SAMPLER, "n_chains": 1}, "model": {
        "bias": [{"kind": "known"}, {"kind": "known", "fixed_phi": [1e300, 1e300]}]}})
    out = tmp_path / "out"
    code = main(["fit", "--panel", str(path), "--config", cfg, "--out", str(out), "--exact-nchg"])
    assert code == 6
    err = capsys.readouterr().err
    assert "error: run-failure:" in err and "lik[1]" in err
    assert not out.exists()


def test_nowcast_cli(tmp_path, capsys):
    panel = SurveyPanel(
        y=np.array([[10.0, 20.0]]), n=np.array([[100.0, 100.0]]),
        population=10_000, labels=("anchor",),
    )
    path = tmp_path / "p.csv"
    io.write_panel(panel, path)
    cfg = write_cfg(tmp_path, {"sampler": QUICK_SAMPLER})
    out = tmp_path / "out"
    code = main(["nowcast", "--panel", str(path), "--config", cfg, "--out", str(out)])
    assert code == 0
    table = io.read_summary(out / "nowcast.csv")
    assert [r.t for r in table.rows_named("rate")] == [1, 2]
    stdout = capsys.readouterr().out
    assert "failures: none" in stdout
    assert "unconverged: " in stdout
    assert "unconverged" not in (out / "nowcast.csv").read_text()


# ---------------------------------------------------------------------------
# align


def test_align_cli(tmp_path, capsys):
    records = [
        DatedRecord("g", datetime.date(2021, 3, 1), 5, 100),
        DatedRecord("g", datetime.date(2021, 3, 8), 6, 100),
        DatedRecord("a", datetime.date(2021, 3, 2), 50, 400),
        DatedRecord("a", datetime.date(2021, 2, 1), 7, 10),
    ]
    rec_path = tmp_path / "records.csv"
    io.write_dated_records(records, rec_path)
    out = tmp_path / "out"
    code = main(
        ["align", "--records", str(rec_path), "--benchmark-label", "g",
         "--population", "100000", "--out", str(out)]
    )
    assert code == 0
    panel = io.read_panel(out / "panel.csv")
    assert panel.labels == ("g", "a")
    assert panel.y[1].tolist()[0] == 50.0
    stdout = capsys.readouterr().out
    assert "dropped" in stdout and "2021-02-01" in stdout

    code = main(
        ["align", "--records", str(rec_path), "--benchmark-label", "zzz",
         "--population", "100000", "--out", str(out)]
    )
    assert code == 5


# ---------------------------------------------------------------------------
# sim-study


def test_sim_study_cli(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {
            "seed": 0,
            "sampler": {"n_chains": 2, "burn_in": 250, "n_draws": 400, "thin": 2},
            "study": {"n_times": [2], "n_reps": 1},
        },
    )
    out = tmp_path / "out"
    code = main(["sim-study", "--config", cfg, "--out", str(out)])
    assert code == 0
    results = io.read_sim_results(out / "results.csv")
    assert len(results) == 12  # 3 truths x 4 fit kinds x 1 panel length
    records = io.read_rep_records(out / "rep_errors.csv")
    assert len(records) == 12
    out2 = tmp_path / "out2"
    main(["sim-study", "--config", cfg, "--out", str(out2)])
    assert (out / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


# ---------------------------------------------------------------------------
# report


def rate_row(t, median, half_width):
    return SummaryRow(
        name="rate", survey=None, t=t, median=median,
        lower=median - half_width, upper=median + half_width,
    )


def test_report_cli(tmp_path, capsys):
    base = SummaryTable(
        alpha=0.05, rows=[rate_row(1, 0.5, 0.10), rate_row(2, 0.5, 0.08)], converged=True
    )
    method = SummaryTable(
        alpha=0.05, rows=[rate_row(1, 0.5, 0.05), rate_row(2, 0.5, 0.04)], converged=True
    )
    bpath, mpath = tmp_path / "base.csv", tmp_path / "method.csv"
    io.write_summary(base, bpath)
    io.write_summary(method, mpath)
    bench = BenchmarkSeries(rates=[0.52, 0.9])
    io.write_benchmark(bench, tmp_path / "bench.csv")
    out = tmp_path / "out"
    code = main(
        ["report", "--baseline", str(bpath), "--method", str(mpath),
         "--benchmark", str(tmp_path / "bench.csv"), "--out", str(out)]
    )
    assert code == 0
    ratios = io.read_ratio_report(out / "ratios.csv")
    assert ratios.ratio == pytest.approx([2.0, 2.0])
    niid = io.read_niid_report(out / "niid.csv")
    assert niid.t.tolist() == [1, 2]
    assert niid.gain[0] > 0
    stdout = capsys.readouterr().out
    assert "coverage" in stdout and "1/2" in stdout


def test_report_rejects_bad_alpha(tmp_path, capsys):
    table = SummaryTable(alpha=0.05, rows=[rate_row(1, 0.5, 0.10)], converged=True)
    path = tmp_path / "s.csv"
    io.write_summary(table, path)
    out = tmp_path / "out"
    code = main(["report", "--baseline", str(path), "--method", str(path),
                 "--out", str(out), "--alpha", "2"])
    assert code == 3
    assert "error: bad-config: --alpha" in capsys.readouterr().err
    assert not out.exists()


def test_report_restrict(tmp_path):
    base = SummaryTable(
        alpha=0.05, rows=[rate_row(1, 0.5, 0.10), rate_row(2, 0.5, 0.08)], converged=True
    )
    bpath = tmp_path / "base.csv"
    io.write_summary(base, bpath)
    out = tmp_path / "out"
    code = main(
        ["report", "--baseline", str(bpath), "--method", str(bpath),
         "--restrict", "2", "--out", str(out)]
    )
    assert code == 0
    assert io.read_ratio_report(out / "ratios.csv").t.tolist() == [2]


@pytest.mark.parametrize("restrict", ["1,a", "2,", "x"])
def test_report_restrict_must_be_time_points(tmp_path, capsys, restrict):
    table = SummaryTable(alpha=0.05, rows=[rate_row(1, 0.5, 0.10)], converged=True)
    path = tmp_path / "s.csv"
    io.write_summary(table, path)
    out = tmp_path / "out"
    code = main(["report", "--baseline", str(path), "--method", str(path),
                 "--restrict", restrict, "--out", str(out)])
    assert code == 3
    assert "error: bad-config: --restrict" in capsys.readouterr().err
    assert not out.exists()


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["fit"])  # missing required flags
    assert exc.value.code == 2
