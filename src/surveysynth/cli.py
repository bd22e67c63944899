"""Command-line front end.

Subcommands: simulate, fit, nowcast, sim-study, align, report. Every run is
fully determined by its inputs and seed, including output bytes. Failures
print ``error: <category>: <message>`` to stderr and exit nonzero with a
category-specific code (see EXIT_CODES).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import io
from .analysis import (
    align_dates,
    ci_width_ratio,
    coverage_vs_benchmark,
    fit_full,
    n_iid_gain,
    nowcast_series,
)
from .config import ConfigError, RunConfig
from .core import BiasModelSpec, ModelSpec, SurveyPanel, bias_designs, check_alpha
from .datagen import draw_parameters, generate_panel
from .mcmc import InitializationError, SamplerSettings, resolve_workers
from .simstudy import StudyConfig, run_grid

EXIT_CODES = {
    "bad-config": 3,
    "unreadable-input": 4,
    "invalid-panel": 5,
    "run-failure": 6,
}


class CliError(Exception):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None) is None:
        return RunConfig.from_dict({})
    try:
        return RunConfig.from_file(args.config)
    except ConfigError as e:
        raise CliError("bad-config", str(e)) from e
    except OSError as e:
        raise CliError("unreadable-input", f"cannot read config: {e}") from e


def _read_input(reader, path, what: str):
    try:
        return reader(path)
    except OSError as e:
        raise CliError("unreadable-input", f"cannot read {what}: {e}") from e
    except ValueError as e:
        raise CliError("unreadable-input", f"bad {what} {path}: {e}") from e


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_out(out: str) -> None:
    """--out must name a directory, or a path whose nearest existing
    ancestor is one, so that ``_out_dir`` can make it after the work."""
    for path in (Path(out), *Path(out).parents):
        if path.exists():
            if not path.is_dir():
                raise CliError("bad-config", f"--out {out}: {path} is not a directory")
            return


def _check_alpha(alpha: float) -> None:
    try:
        check_alpha(alpha)
    except ValueError as e:
        raise CliError("bad-config", f"--{e}") from e


def _check_workers(workers: int | None) -> int:
    try:
        return resolve_workers(workers)
    except ValueError as e:
        raise CliError("bad-config", str(e)) from e


def _seed(cfg: RunConfig, args) -> int:
    """--seed when given, else the configured seed."""
    if args.seed is None:
        return cfg.seed
    if args.seed < 0:
        raise CliError("bad-config", f"--seed must be non-negative, got {args.seed}")
    return args.seed


def _resolve_settings(cfg: RunConfig, args) -> SamplerSettings:
    settings = cfg.sampler
    scale = getattr(args, "scale", None)
    if scale is not None:
        settings = SamplerSettings.desk() if scale == "desk" else SamplerSettings()
        settings = dataclasses.replace(settings, seed=cfg.seed)
    if args.seed is not None:
        settings = dataclasses.replace(settings, seed=_seed(cfg, args))
    return settings


def _survey_index(panel: SurveyPanel, token: str) -> int:
    if token in panel.labels:
        return panel.labels.index(token)
    try:
        k = int(token)
    except ValueError:
        raise CliError("bad-config", f"--bias survey {token!r} is neither a label nor an index")
    if not 0 <= k < panel.n_surveys:
        raise CliError("bad-config", f"--bias survey index {k} out of range 0..{panel.n_surveys - 1}")
    return k


def _resolve_spec(cfg: RunConfig, args, panel: SurveyPanel) -> ModelSpec:
    base = cfg.model
    if base is None:
        base = ModelSpec(bias=tuple(BiasModelSpec.anchor() for _ in panel.labels))
    if len(base.bias) != panel.n_surveys:
        raise CliError(
            "invalid-panel",
            f"model has {len(base.bias)} bias entries for a {panel.n_surveys}-survey panel",
        )
    bias = list(base.bias)
    for entry in args.bias or ():
        survey, sep, kind = entry.partition("=")
        if not sep or not kind:
            raise CliError("bad-config", f"--bias must look like SURVEY=KIND, got {entry!r}")
        try:
            bias[_survey_index(panel, survey)] = BiasModelSpec(kind=kind)
        except ValueError as e:
            raise CliError("bad-config", str(e)) from e
    try:
        return dataclasses.replace(
            base,
            bias=tuple(bias),
            monotone_walk=base.monotone_walk or args.monotone,
            use_exact_nchg=base.use_exact_nchg or args.exact_nchg,
        )
    except ValueError as e:
        raise CliError("invalid-panel", str(e)) from e


def _print_rate_rows(table) -> None:
    pct = round((1.0 - table.alpha) * 100)
    print(f"rate trajectory (median [{pct}% interval]):")
    for row in table.rows_named("rate"):
        print(f"  t={row.t:>3}  {row.median:.4f} [{row.lower:.4f}, {row.upper:.4f}]")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    if cfg.generate is None:
        raise CliError("bad-config", "simulate needs a 'generate' section in the config")
    design = cfg.generate
    seed = _seed(cfg, args)
    out = _out_dir(args)
    truth_seq, panel_seq = np.random.SeedSequence(seed).spawn(2)
    truth = draw_parameters(design, np.random.default_rng(truth_seq))
    panel, positives = generate_panel(truth, design, np.random.default_rng(panel_seq))
    designs = bias_designs(design.model_spec(), panel.n_times)
    phi = np.array(
        [[math.exp(d.log_phi(g, t)) for t in range(1, panel.n_times + 1)]
         for d, g in zip(designs, truth.gamma)]
    )
    io.write_panel(panel, out / "panel.csv")
    io.write_truth(
        out / "truth.csv",
        theta=truth.theta, phi=phi, positives=positives,
        sigma_sq=truth.sigma_sq, pi_sq=truth.pi_sq,
    )
    observed = int(np.sum(panel.observed))
    print(f"simulate: {panel.n_surveys} surveys x {panel.n_times} time-points, seed {seed}")
    print(f"observed cells: {observed}")
    print(f"wrote {out / 'panel.csv'}")
    print(f"wrote {out / 'truth.csv'}")
    return 0


def _describe_spec(panel: SurveyPanel, spec: ModelSpec) -> str:
    return " ".join(f"{label}={b.kind}" for label, b in zip(panel.labels, spec.bias))


def _run_on_panel(args, workload):
    """What ``fit`` and ``nowcast`` share: check --alpha and the worker count,
    load the config, read the panel, resolve the model and sampler, and run
    ``workload(panel, spec, settings, alpha=..., workers=...)``, a failed
    start as run-failure and a rejected fit as invalid-panel. Returns
    (panel, spec, the workload's result)."""
    _check_alpha(args.alpha)
    workers = _check_workers(args.workers)
    cfg = _load_config(args)
    panel = _read_input(io.read_panel, args.panel, "panel")
    spec = _resolve_spec(cfg, args, panel)
    settings = _resolve_settings(cfg, args)
    try:
        return panel, spec, workload(panel, spec, settings, alpha=args.alpha, workers=workers)
    except InitializationError as e:
        raise CliError("run-failure", str(e)) from e
    except ValueError as e:
        raise CliError("invalid-panel", str(e)) from e


def _cmd_fit(args) -> int:
    panel, spec, result = _run_on_panel(args, fit_full)
    out = _out_dir(args)
    io.write_summary(result.table, out / "summary.csv")
    print(f"fit: {panel.n_surveys} surveys x {panel.n_times} time-points, "
          f"population {panel.population}")
    print(f"bias kinds: {_describe_spec(panel, spec)}")
    print(f"converged: {result.table.converged}")
    if result.saturated_cells:
        cells = ", ".join(f"{panel.labels[k]}@t={t}" for k, t in result.saturated_cells)
        print(f"saturated cells (bias weakly identified there): {cells}")
    else:
        print("saturated cells: none")
    _print_rate_rows(result.table)
    print(f"wrote {out / 'summary.csv'}")
    return 0


def _cmd_nowcast(args) -> int:
    panel, spec, result = _run_on_panel(args, nowcast_series)
    out = _out_dir(args)
    io.write_summary(result.table, out / "nowcast.csv")
    print(f"nowcast: {panel.n_times} rolling fits, bias kinds {_describe_spec(panel, spec)}")
    for label, ts in (("failures", result.failures), ("unconverged", result.unconverged)):
        print(f"{label}: {', '.join(str(t) for t in ts) if ts else 'none'}")
    _print_rate_rows(result.table)
    print(f"wrote {out / 'nowcast.csv'}")
    return 0


def _cmd_align(args) -> int:
    records = _read_input(io.read_dated_records, args.records, "records")
    order = tuple(args.order.split(",")) if args.order else None
    try:
        result = align_dates(
            records, args.benchmark_label, population=args.population, survey_order=order
        )
    except ValueError as e:
        raise CliError("invalid-panel", str(e)) from e
    out = _out_dir(args)
    io.write_panel(result.panel, out / "panel.csv")
    print(f"align: {result.panel.n_surveys} surveys on a {result.panel.n_times}-point grid "
          f"({result.dates[0].isoformat()} .. {result.dates[-1].isoformat()})")
    print(f"dropped {len(result.dropped)} record(s)")
    for warning in result.dropped:
        print(f"  {warning}")
    print(f"wrote {out / 'panel.csv'}")
    return 0


def _cmd_sim_study(args) -> int:
    cfg = _load_config(args)
    study = cfg.study if cfg.study is not None else StudyConfig()
    settings = cfg.study_settings()
    seed = _seed(cfg, args)
    _check_workers(None)  # the study maps its fits over SURVEYSYNTH_WORKERS processes
    results, records = run_grid(study, settings, seed)
    out = _out_dir(args)
    io.write_sim_results(results, out / "results.csv")
    io.write_rep_records(records, out / "rep_errors.csv")
    print(f"sim-study: {len(results)} cells, {study.n_reps} replication(s) each")
    for r in results:
        mcse = "n/a" if r.mcse is None else f"{r.mcse:.2e}"
        print(f"  T={r.n_times:>2} truth={r.truth_kind:<8} fit={r.fit_kind:<13} "
              f"mse={r.mse:.3e} mcse={mcse} failures={r.failures}")
    print(f"wrote {out / 'results.csv'}")
    print(f"wrote {out / 'rep_errors.csv'}")
    return 0


def _cmd_report(args) -> int:
    _check_alpha(args.alpha)
    restrict = None
    if args.restrict:
        try:
            restrict = tuple(int(t) for t in args.restrict.split(","))
        except ValueError:
            raise CliError("bad-config", f"--restrict must list time-points, got {args.restrict!r}")
    baseline = _read_input(io.read_summary, args.baseline, "baseline summary")
    method = _read_input(io.read_summary, args.method, "method summary")
    ratios = ci_width_ratio(baseline, method, restrict_to=restrict)
    niid = n_iid_gain(baseline, method, alpha=args.alpha, restrict_to=restrict)
    out = _out_dir(args)
    io.write_ratio_report(ratios, out / "ratios.csv")
    io.write_niid_report(niid, out / "niid.csv")
    print(f"interval width ratio (baseline/method): mean {ratios.mean:.3f}, "
          f"median {ratios.median:.3f} over {ratios.t.size} time-point(s)")
    print(f"classical-sample-size gain: mean {niid.mean_gain:.1f}, median {niid.median_gain:.1f}")
    if args.benchmark:
        bench = _read_input(io.read_benchmark, args.benchmark, "benchmark")
        cov = coverage_vs_benchmark(method, bench)
        print(f"coverage vs benchmark: {cov.hits}/{cov.total} ({cov.fraction:.1%})")
    print(f"wrote {out / 'ratios.csv'}")
    print(f"wrote {out / 'niid.csv'}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surveysynth",
        description="Combine unbiased and biased surveys into one population-rate series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--seed", type=int, help="override the configured seed")
        p.add_argument("--out", required=True, help="output directory")

    def fit_like(p):
        common(p)
        p.add_argument("--panel", required=True, help="panel CSV (survey,t,y,n)")
        p.add_argument("--scale", choices=("desk", "paper"),
                       help="sampler preset; overrides the config sampler section")
        p.add_argument("--bias", action="append", metavar="SURVEY=KIND",
                       help="override one survey's bias kind (label or index)")
        p.add_argument("--monotone", action="store_true",
                       help="restrict the latent walk to non-decreasing steps")
        p.add_argument("--exact-nchg", action="store_true",
                       help="use the exact biased-count likelihood instead of the logit-shift approximation")
        p.add_argument("--alpha", type=float, default=0.05, help="two-sided tail mass")
        p.add_argument("--workers", type=int, help="parallel worker processes")

    sim = sub.add_parser("simulate", help="draw a synthetic panel plus truth sidecar")
    common(sim)
    sim.set_defaults(func=_cmd_simulate)

    fit = sub.add_parser("fit", help="full posterior fit on a panel")
    fit_like(fit)
    fit.set_defaults(func=_cmd_fit)

    now = sub.add_parser("nowcast", help="rolling fits using data up to each time-point")
    fit_like(now)
    now.set_defaults(func=_cmd_nowcast)

    aln = sub.add_parser("align", help="place dated survey records on a benchmark date grid")
    common(aln)
    aln.add_argument("--records", required=True, help="dated records CSV (survey,date,y,n)")
    aln.add_argument("--benchmark-label", required=True, help="survey whose dates define the grid")
    aln.add_argument("--population", type=int, required=True)
    aln.add_argument("--order", help="comma-separated survey order for the output panel")
    aln.set_defaults(func=_cmd_align)

    study = sub.add_parser("sim-study", help="truth-by-fit simulation grid")
    common(study)
    study.set_defaults(func=_cmd_sim_study)

    rep = sub.add_parser("report", help="compare two stored summaries (ratios, coverage, n_iid)")
    common(rep)
    rep.add_argument("--baseline", required=True, help="baseline summary CSV")
    rep.add_argument("--method", required=True, help="method summary CSV")
    rep.add_argument("--benchmark", help="benchmark CSV (t,rate,margin)")
    rep.add_argument("--restrict", help="comma-separated time-points to compare on")
    rep.add_argument("--alpha", type=float, default=0.05)
    rep.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except CliError as e:
        print(f"error: {e.category}: {e}", file=sys.stderr)
        return EXIT_CODES[e.category]


if __name__ == "__main__":
    sys.exit(main())
