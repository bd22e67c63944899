"""CSV serialization for everything the pipeline consumes or emits.

One format family: optional leading ``# meta: key=value`` lines, then a
header row, then data rows. Floats are written with repr (the shortest
round-tripping form), so writing the same in-memory values twice produces
byte-identical files, and every reader restores the writer's values exactly.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass

import numpy as np

from .analysis import BenchmarkSeries, DatedRecord, NiidReport, RatioReport
from .core import SummaryRow, SummaryTable, SurveyPanel
from .simstudy import CellResult, RepRecord

_META = "# meta: "


def _fmt(v) -> str:
    return repr(float(v))


def _fmt_count(v) -> str:
    f = float(v)
    if not math.isfinite(f) or f != math.floor(f):
        raise ValueError(f"expected an integer count, got {v!r}")
    return str(int(f))


def _safe_label(label: str) -> str:
    if "," in label or "\n" in label:
        raise ValueError(f"survey label {label!r} may not contain a comma or newline")
    return label


def _fmt_bool(v: bool | None) -> str:
    return "unknown" if v is None else ("true" if v else "false")


def _parse_bool(s: str) -> bool | None:
    return {"true": True, "false": False, "unknown": None}[s]


def _opt(v, fmt=_fmt) -> str:
    return "" if v is None else fmt(v)


def _parse_opt(s: str, parse=float):
    return None if s == "" else parse(s)


def _write(path, meta: dict[str, str], header: tuple[str, ...], rows) -> None:
    lines = [f"{_META}{k}={v}" for k, v in meta.items()]
    lines.append(",".join(header))
    lines.extend(",".join(r) for r in rows)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _read(path, header: tuple[str, ...]) -> tuple[dict[str, str], list[list[str]]]:
    meta: dict[str, str] = {}
    body: list[str] = []
    with open(path) as fh:
        for line in fh.read().splitlines():
            if line.startswith("#"):
                if line.startswith(_META):
                    key, _, value = line[len(_META):].partition("=")
                    meta[key.strip()] = value
                continue
            if line:
                body.append(line)
    rows = list(csv.reader(body))
    if not rows or tuple(rows[0]) != header:
        raise ValueError(f"{path}: expected header {','.join(header)}")
    return meta, rows[1:]


def _require_meta(meta: dict[str, str], keys: tuple[str, ...], path) -> None:
    missing = [k for k in keys if k not in meta]
    if missing:
        raise ValueError(f"{path}: missing meta line(s): {', '.join(missing)}")


# ---------------------------------------------------------------------------
# panels

_PANEL_HEADER = ("survey", "t", "y", "n")


def write_panel(panel: SurveyPanel, path) -> None:
    """Observed cells only; missing cells are simply absent from the file."""
    labels = [_safe_label(l) for l in panel.labels]
    meta = {
        "population": str(panel.population),
        "n_times": str(panel.n_times),
        "surveys": ",".join(labels),
    }
    rows = []
    for k, label in enumerate(labels):
        for t in range(panel.n_times):
            if np.isfinite(panel.n[k, t]) or np.isfinite(panel.y[k, t]):
                rows.append(
                    [label, str(t + 1), _fmt_count(panel.y[k, t]), _fmt_count(panel.n[k, t])]
                )
    _write(path, meta, _PANEL_HEADER, rows)


def read_panel(path) -> SurveyPanel:
    meta, rows = _read(path, _PANEL_HEADER)
    _require_meta(meta, ("population", "n_times", "surveys"), path)
    labels = tuple(meta["surveys"].split(","))
    n_times = int(meta["n_times"])
    index = {label: k for k, label in enumerate(labels)}
    y = np.full((len(labels), n_times), np.nan)
    n = np.full((len(labels), n_times), np.nan)
    seen: set[tuple[str, int]] = set()
    for survey, t_s, y_s, n_s in rows:
        if survey not in index:
            raise ValueError(f"{path}: survey {survey!r} not listed in the surveys meta line")
        t = int(t_s)
        if not 1 <= t <= n_times:
            raise ValueError(f"{path}: time {t} outside 1..{n_times}")
        if (survey, t) in seen:
            raise ValueError(f"{path}: duplicate row for survey {survey!r} at t={t}")
        seen.add((survey, t))
        y[index[survey], t - 1] = float(y_s)
        n[index[survey], t - 1] = float(n_s)
    return SurveyPanel(y=y, n=n, population=int(meta["population"]), labels=labels)


# ---------------------------------------------------------------------------
# dated records and benchmarks

_RECORDS_HEADER = ("survey", "date", "y", "n")


def write_dated_records(records, path) -> None:
    rows = [
        [_safe_label(r.survey), r.date.isoformat(), str(r.y), str(r.n)] for r in records
    ]
    _write(path, {}, _RECORDS_HEADER, rows)


def read_dated_records(path) -> list[DatedRecord]:
    _, rows = _read(path, _RECORDS_HEADER)
    return [
        DatedRecord(survey=s, date=datetime.date.fromisoformat(d), y=int(y), n=int(n))
        for s, d, y, n in rows
    ]


_BENCHMARK_HEADER = ("t", "rate", "margin")


def write_benchmark(benchmark: BenchmarkSeries, path) -> None:
    rows = [
        [str(t + 1), _fmt(benchmark.rates[t]), _fmt(benchmark.margins[t])]
        for t in range(benchmark.n_times)
    ]
    _write(path, {}, _BENCHMARK_HEADER, rows)


def read_benchmark(path) -> BenchmarkSeries:
    _, rows = _read(path, _BENCHMARK_HEADER)
    by_t: dict[int, tuple[float, float]] = {}
    for t_s, rate, margin in rows:
        t = int(t_s)
        if t in by_t:
            raise ValueError(f"{path}: duplicate row for t={t}")
        by_t[t] = (float(rate), float(margin))
    n_times = max(by_t) if by_t else 0
    if sorted(by_t) != list(range(1, n_times + 1)):
        raise ValueError(f"{path}: benchmark rows must cover t=1..{n_times} exactly")
    rates = np.array([by_t[t][0] for t in range(1, n_times + 1)])
    margins = np.array([by_t[t][1] for t in range(1, n_times + 1)])
    return BenchmarkSeries(rates=rates, margins=margins)


# ---------------------------------------------------------------------------
# posterior summaries

_SUMMARY_HEADER = ("name", "survey", "t", "median", "lower", "upper", "r_hat", "ess")


def write_summary(table: SummaryTable, path) -> None:
    meta = {"alpha": _fmt(table.alpha), "converged": _fmt_bool(table.converged)}
    rows = [
        [
            row.name,
            _opt(row.survey, lambda v: str(int(v))),
            _opt(row.t, lambda v: str(int(v))),
            _fmt(row.median),
            _fmt(row.lower),
            _fmt(row.upper),
            _opt(row.r_hat),
            _opt(row.ess),
        ]
        for row in table.rows
    ]
    _write(path, meta, _SUMMARY_HEADER, rows)


def read_summary(path) -> SummaryTable:
    meta, rows = _read(path, _SUMMARY_HEADER)
    _require_meta(meta, ("alpha", "converged"), path)
    parsed = [
        SummaryRow(
            name=name,
            survey=_parse_opt(survey, int),
            t=_parse_opt(t, int),
            median=float(median),
            lower=float(lower),
            upper=float(upper),
            r_hat=_parse_opt(r_hat),
            ess=_parse_opt(ess),
        )
        for name, survey, t, median, lower, upper, r_hat, ess in rows
    ]
    return SummaryTable(
        alpha=float(meta["alpha"]), rows=parsed, converged=_parse_bool(meta["converged"])
    )


# ---------------------------------------------------------------------------
# simulation study outputs

_RESULTS_HEADER = (
    "truth_kind", "fit_kind", "n_times", "n_reps",
    "mse", "mcse", "ci95_lower", "ci95_upper", "failures",
)


def write_sim_results(results, path) -> None:
    rows = []
    for r in results:
        ci_lo, ci_hi = ("", "") if r.ci95 is None else (_fmt(r.ci95[0]), _fmt(r.ci95[1]))
        rows.append(
            [
                r.truth_kind, r.fit_kind, str(r.n_times), str(r.n_reps),
                _fmt(r.mse), _opt(r.mcse), ci_lo, ci_hi, str(r.failures),
            ]
        )
    _write(path, {}, _RESULTS_HEADER, rows)


def read_sim_results(path) -> list[CellResult]:
    _, rows = _read(path, _RESULTS_HEADER)
    out = []
    for truth, fit, n_times, n_reps, mse, mcse, ci_lo, ci_hi, failures in rows:
        ci95 = None if ci_lo == "" else (float(ci_lo), float(ci_hi))
        out.append(
            CellResult(
                truth_kind=truth, fit_kind=fit, n_times=int(n_times), n_reps=int(n_reps),
                mse=float(mse), mcse=_parse_opt(mcse), ci95=ci95, failures=int(failures),
            )
        )
    return out


_REPS_HEADER = ("truth_kind", "fit_kind", "n_times", "rep", "sq_error", "converged")


def write_rep_records(records, path) -> None:
    rows = [
        [r.truth_kind, r.fit_kind, str(r.n_times), str(r.rep), _fmt(r.sq_error), _fmt_bool(r.converged)]
        for r in records
    ]
    _write(path, {}, _REPS_HEADER, rows)


def read_rep_records(path) -> list[RepRecord]:
    _, rows = _read(path, _REPS_HEADER)
    return [
        RepRecord(
            truth_kind=truth, fit_kind=fit, n_times=int(n_times), rep=int(rep),
            sq_error=float(sq_error), converged=bool(_parse_bool(converged)),
        )
        for truth, fit, n_times, rep, sq_error, converged in rows
    ]


# ---------------------------------------------------------------------------
# generator truth sidecar (for scoring simulated panels)


@dataclass(frozen=True)
class TruthRecord:
    theta: np.ndarray       # logit rates, t=0..T
    phi: np.ndarray         # bias odds grid, (surveys, T)
    positives: np.ndarray   # realized positive counts, t=1..T
    sigma_sq: float
    pi_sq: float | None


_TRUTH_HEADER = ("kind", "survey", "t", "value")


def write_truth(path, *, theta, phi, positives, sigma_sq, pi_sq) -> None:
    meta = {"sigma_sq": _fmt(sigma_sq)}
    if pi_sq is not None:
        meta["pi_sq"] = _fmt(pi_sq)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    positives = np.asarray(positives)
    rows = [["theta", "", str(t), _fmt(theta[t])] for t in range(theta.size)]
    for k in range(phi.shape[0]):
        rows.extend(["phi", str(k), str(t + 1), _fmt(phi[k, t])] for t in range(phi.shape[1]))
    rows.extend(
        ["positives", "", str(t + 1), _fmt_count(positives[t])] for t in range(positives.size)
    )
    _write(path, meta, _TRUTH_HEADER, rows)


def read_truth(path) -> TruthRecord:
    meta, rows = _read(path, _TRUTH_HEADER)
    _require_meta(meta, ("sigma_sq",), path)
    theta_vals: dict[int, float] = {}
    phi_vals: dict[tuple[int, int], float] = {}
    pos_vals: dict[int, int] = {}
    for kind, survey, t_s, value in rows:
        t = int(t_s)
        if kind == "theta":
            theta_vals[t] = float(value)
        elif kind == "phi":
            phi_vals[(int(survey), t)] = float(value)
        elif kind == "positives":
            pos_vals[t] = int(value)
        else:
            raise ValueError(f"{path}: unknown truth row kind {kind!r}")
    theta = np.array([theta_vals[t] for t in sorted(theta_vals)])
    n_surveys = 1 + max(k for k, _ in phi_vals)
    n_times = max(t for _, t in phi_vals)
    phi = np.array([[phi_vals[(k, t)] for t in range(1, n_times + 1)] for k in range(n_surveys)])
    positives = np.array([pos_vals[t] for t in sorted(pos_vals)], dtype=np.int64)
    pi_sq = float(meta["pi_sq"]) if "pi_sq" in meta else None
    return TruthRecord(
        theta=theta, phi=phi, positives=positives,
        sigma_sq=float(meta["sigma_sq"]), pi_sq=pi_sq,
    )


# ---------------------------------------------------------------------------
# report outputs

_RATIO_HEADER = ("t", "ratio")


def write_ratio_report(report: RatioReport, path) -> None:
    meta = {
        "mean": _fmt(report.mean),
        "median": _fmt(report.median),
        "flagged": ",".join(str(int(t)) for t in report.flagged),
    }
    rows = [[str(int(t)), _fmt(r)] for t, r in zip(report.t, report.ratio)]
    _write(path, meta, _RATIO_HEADER, rows)


def read_ratio_report(path) -> RatioReport:
    meta, rows = _read(path, _RATIO_HEADER)
    _require_meta(meta, ("mean", "median", "flagged"), path)
    flagged = tuple(int(v) for v in meta["flagged"].split(",") if v)
    t = np.array([int(r[0]) for r in rows], dtype=int)
    ratio = np.array([float(r[1]) for r in rows])
    return RatioReport(
        t=t, ratio=ratio, mean=float(meta["mean"]), median=float(meta["median"]), flagged=flagged
    )


_NIID_HEADER = (
    "t", "p_hat_baseline", "moe_baseline", "p_hat_method", "moe_method", "ratio",
    "n_iid_baseline", "n_iid_method", "n_iid_literal_ratio_scaled", "gain",
)
_NIID_FIELDS = (
    "t", "p_hat_baseline", "moe_baseline", "p_hat_method", "moe_method", "ratio",
    "n_iid_baseline", "n_iid_method", "n_iid_literal", "gain",
)


def write_niid_report(report: NiidReport, path) -> None:
    meta = {
        "z": _fmt(report.z),
        "alpha": _fmt(report.alpha),
        "mean_gain": _fmt(report.mean_gain),
        "median_gain": _fmt(report.median_gain),
        "flagged": ",".join(str(int(t)) for t in report.flagged),
    }
    columns = [getattr(report, f) for f in _NIID_FIELDS]
    rows = [
        [str(int(vals[0]))] + [_fmt(v) for v in vals[1:]] for vals in zip(*columns)
    ]
    _write(path, meta, _NIID_HEADER, rows)


def read_niid_report(path) -> NiidReport:
    meta, rows = _read(path, _NIID_HEADER)
    _require_meta(meta, ("z", "alpha", "mean_gain", "median_gain", "flagged"), path)
    cols = list(zip(*rows)) if rows else [[] for _ in _NIID_FIELDS]
    arrays = {
        name: np.array([float(v) for v in col])
        for name, col in zip(_NIID_FIELDS, cols)
    }
    arrays["t"] = arrays["t"].astype(int)
    return NiidReport(
        **arrays,
        mean_gain=float(meta["mean_gain"]),
        median_gain=float(meta["median_gain"]),
        z=float(meta["z"]),
        alpha=float(meta["alpha"]),
        flagged=tuple(int(v) for v in meta["flagged"].split(",") if v),
    )
