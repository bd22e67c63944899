"""Benchmark of surveysynth, measured from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of vaccine-fit, nowcast, study-grid, exact-demo; ``all`` runs
each in a fresh process. Run from the root of a source checkout: the
package is imported from ``src/``. The process builds the workload's inputs
three times (set-up, median reported), then runs timed units back to back
for about S seconds (at least two), checking each unit's outputs. Unit 1
repeats unit 0's seed (except on study-grid), so the two output files must
hash the same. See README.md for the metrics.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` units after the first run with spans around the program's
public calls, and the last line reports the per-layer metrics. Spans and
the environment are written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

T_START = time.perf_counter()  # set-up is timed from here

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
NAMES = ("vaccine-fit", "nowcast", "study-grid", "exact-demo")
SETUP_REPEATS = 3
BLOCK_FAMILIES = ("theta", "sigma_sq", "gamma", "pi_sq", "joint")


def import_program():
    """Import surveysynth from this checkout's ``src``, or return None."""
    sys.dont_write_bytecode = True  # every run compiles alike; nothing left behind
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import surveysynth
    except ImportError as e:
        print(f"perfbench: cannot import surveysynth from {ROOT / 'src'}: {e}", file=sys.stderr)
        return None
    if not Path(surveysynth.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: surveysynth imported from {surveysynth.__file__}, not this checkout",
              file=sys.stderr)
        return None
    return surveysynth


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(inherited_workers) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "SURVEYSYNTH_WORKERS_inherited": inherited_workers,
        "SURVEYSYNTH_WORKERS": os.environ.get("SURVEYSYNTH_WORKERS"),
    }


def unit_seed(seed: int, i: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def install_layer_spans(tracer, patches) -> None:
    """Spans around the public calls the program makes into each layer."""
    from surveysynth import analysis, likelihood, mcmc, simstudy
    from tracing import spanned

    def on_draws(d):
        tracer.sample("chain_iters", d.n_chains * (d.settings.burn_in + d.settings.n_draws))
        tracer.sample("accept", dict(d.acceptance_rates))
        tracer.last_draws = d

    def on_diagnostics(dg):
        tracer.sample("diagnostics", (list(dg.ess.values()), list(dg.r_hat.values()), dg.converged))

    for module in (analysis, simstudy):
        patches.wrap(module, "run_chains", spanned(tracer, "mcmc.run_chains", on_draws))
    for module in (mcmc, analysis, simstudy):
        patches.wrap(module, "diagnose", spanned(tracer, "mcmc.diagnose", on_diagnostics))
    patches.wrap(analysis, "summarize", spanned(tracer, "mcmc.summarize"))
    patches.wrap(likelihood, "log_posterior", spanned(tracer, "likelihood.log_posterior"))
    patches.wrap(mcmc, "validate_panel", spanned(tracer, "core.validate_panel"))
    patches.wrap(simstudy, "rep_dataset", spanned(tracer, "simstudy.rep_dataset"))


def family(block: str) -> str:
    return block.split("[", 1)[0]


def per_layer(tracer, units: list[str], walls: list[float], seed: int) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, from the traced units."""
    import numpy as np

    from surveysynth import mcmc
    from surveysynth.dists import nchg_logpmf, nchg_sample
    from tracing import time_calls
    from workloads import MICRO_LOGPMF_N, MICRO_SAMPLE_N, micro_params

    samples = {k: [v for u, v in vs if u in units] for k, vs in tracer.samples.items()}
    iters = sum(samples.get("chain_iters", []))
    run_chains_s = tracer.unit_totals("mcmc.run_chains", units)
    m = {
        "mcmc.run_chains.s": statistics.median(run_chains_s),
        "mcmc.sweep_us": 1e6 * sum(run_chains_s) / iters if iters else 0.0,
        "mcmc.chain_iters": iters / len(units),
    }
    for fam in BLOCK_FAMILIES:
        rates = [
            float(np.mean([v for k, v in acc.items() if family(k) == fam]))
            for acc in samples.get("accept", [])
            if any(family(k) == fam for k in acc)
        ]
        m[f"mcmc.accept.{fam}"] = float(np.mean(rates)) if rates else 0.0
    diags = samples.get("diagnostics", [])
    ess = [e for d in diags for e in d[0]]
    rhat = [r for d in diags for r in d[1] if np.isfinite(r)]
    m["mcmc.ess_min"] = min(ess) if ess else 0.0
    m["mcmc.ess_median"] = statistics.median(ess) if ess else 0.0
    m["mcmc.rhat_max"] = max(rhat) if rhat else 0.0
    m["mcmc.unconverged_frac"] = sum(not d[2] for d in diags) / len(diags) if diags else 0.0
    m["mcmc.diagnose.s"] = statistics.median(tracer.unit_totals("mcmc.diagnose", units))
    draws = tracer.last_draws
    m["mcmc.summarize.s"] = time_calls(lambda: mcmc.summarize(draws), 0.0) if draws else 0.0
    for n in MICRO_LOGPMF_N:
        y, p = micro_params(n)
        m[f"dists.nchg_logpmf.us.n1e{len(str(n)) - 1}"] = 1e6 * time_calls(lambda: nchg_logpmf(y, p), 0.2)
    rng = np.random.default_rng(seed)
    for n in MICRO_SAMPLE_N:
        _, p = micro_params(n)
        m[f"dists.nchg_sample.us.n1e{len(str(n)) - 1}"] = 1e6 * time_calls(lambda: nchg_sample(p, rng), 0.2)
    m["likelihood.log_posterior.us"] = tracer.per_call_us("likelihood.log_posterior", units)
    m["core.validate_panel.s"] = statistics.median(tracer.unit_totals("core.validate_panel", units))
    m["trace.overhead_s"] = statistics.median(walls[1:]) - walls[0]
    return m


def run_workload(args) -> int:
    inherited = os.environ.get("SURVEYSYNTH_WORKERS")
    os.environ["SURVEYSYNTH_WORKERS"] = "1"  # the benchmark measures serial fits
    if import_program() is None:
        return 2
    from tracing import Patches, Tracer
    from workloads import WORKLOADS, Outcome  # imports the program's modules

    t_imported = time.perf_counter()

    pid = os.getpid()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{pid}"
    workdir = OUT / "work" / tag
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(tag)
    wl = WORKLOADS[args.workload](workdir, tracer)
    try:
        tracer.enabled = bool(args.trace)
        builds = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.build()
            builds.append(time.perf_counter() - t0)
        tracer.enabled = False
        setup_s = (t_imported - T_START) + statistics.median(builds)

        units: list[dict] = []
        outcomes = []
        deadline = time.perf_counter() + args.seconds
        while len(units) < 2 or time.perf_counter() + statistics.median(
            u["wall_s"] for u in units
        ) <= deadline:
            i = len(units)
            seed = unit_seed(args.seed, 0 if i == 1 and wl.repeat_first else i)
            traced = bool(args.trace) and i >= 1
            tracer.unit = f"u{i}"
            with Patches() as patches:
                if traced:
                    install_layer_spans(tracer, patches)
                tracer.enabled = traced
                t0 = time.perf_counter()
                try:
                    out = wl.run(seed)
                    error = None
                except Exception:  # a unit that raises counts as failed fits; keep measuring
                    out, error = None, traceback.format_exc()
                wall = time.perf_counter() - t0
            if error is None:
                outcome = wl.check(out)
            else:
                outcome = Outcome(wl.ops, wl.ops, "", [error.strip().splitlines()[-1]])
                print(error, file=sys.stderr)
            tracer.enabled = False
            outcomes.append(outcome)
            units.append({
                "seed": seed, "traced": traced, "wall_s": wall,
                "attempted": outcome.attempted, "failed": outcome.failed,
                "digest": outcome.digest, "problems": outcome.problems,
                "ess": wl.ess_per_unit([outcome.ess_data]) if not outcome.failed else None,
            })

        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = wl.run_checks()
        problems += determinism_problems(args, units, wl.repeat_first)
        for u in units:
            problems += [f"unit seed {u['seed']}: {p}" for p in u["problems"]]
        attempted = sum(u["attempted"] for u in units)
        failed = sum(u["failed"] for u in units)
        walls = [u["wall_s"] for u in units]
        wall_s = wl.wall_s(outcomes, walls)
        # a repeated unit 1 has unit 0's draws, so it adds no effective samples
        skip = 1 if wl.repeat_first else None
        pooled = [o.ess_data for i, o in enumerate(outcomes) if i != skip and not o.failed]
        ess_per_unit = wl.ess_per_unit(pooled) if pooled else 0.0
        e2e = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "ess_per_s": (ess_per_unit / wall_s, "1/s"),
            "failed_frac": (failed / attempted, "frac"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "environment": environment(inherited),
            "setup_builds_s": builds,
            "units": units,
            "problems": problems,
            "ess_per_unit": ess_per_unit,
            "end_to_end": {k: v for k, (v, _) in e2e.items()},
        }
        if args.trace:
            traced_units = [f"u{i}" for i, u in enumerate(units) if u["traced"]]
            layer = per_layer(tracer, traced_units, walls, args.seed)
            layer["mcmc.ess_per_s"] = e2e["ess_per_s"][0]
            tracer.unit, tracer.enabled = "probe", True
            layer.update(wl.probes())
            tracer.enabled = False
            setup_spans: dict[str, list[float]] = {}
            for sp in tracer.spans:
                if sp["unit"] == "setup":
                    setup_spans.setdefault(sp["name"], []).append(sp["end"] - sp["start"])
            layer.update({f"{name}.s": statistics.median(d) for name, d in setup_spans.items()})
            result["per_layer"] = layer
            result["layers"] = tracer.layer_table(traced_units)
            result["spans"] = tracer.spans
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        result_path = OUT / "results" / f"{tag}.json"
        result_path.write_text(json.dumps(result, indent=1))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {len(units)} units "
          f"({sum(u['traced'] for u in units)} traced) in {sum(walls):.1f} s, "
          f"{attempted} fits attempted, {failed} failed")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<12} {value:12.6g} {unit}")
    ess = sorted(u["ess"] for u in units if u["ess"] is not None) or [0.0]
    print(f"  ESS per unit: pooled {ess_per_unit:.1f}; one unit alone: min {ess[0]:.1f}, "
          f"median {statistics.median(ess):.1f}, max {ess[-1]:.1f}")
    if args.trace:
        print("  span                          calls/unit   total s/unit    self s/unit")
        for r in result["layers"]:
            print(f"  {r['name']:<30}{r['calls_per_unit']:10.1f}{r['total_s_per_unit']:15.6f}"
                  f"{r['self_s_per_unit']:15.6f}")
        for name, value in result["per_layer"].items():
            print(f"  {name:<32} {value:.6g}")
    print(f"  environment: {json.dumps(result['environment'])}")
    for p in problems:
        print(f"  PROBLEM: {p}")
    print(f"  result file: {result_path.relative_to(ROOT)}")
    if args.trace:
        metrics = {k: {"value": layer[k], "unit": u} for k, u in declared_metrics("per_layer").items()}
    else:
        metrics = {k: {"value": e2e[k][0], "unit": u} for k, u in declared_metrics("end_to_end").items()}
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


def code_digest() -> str:
    """sha256 over the program's and the benchmark's source files."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def determinism_problems(args, units, repeat_first: bool) -> list[str]:
    """Unit 1 may repeat unit 0, and any earlier run of the same code with
    the same seed in this checkout repeats it: their outputs must hash the same."""
    problems = []
    first, second = units[0]["digest"], units[1]["digest"]
    if repeat_first and first and second and first != second:
        problems.append("output of unit 1 differs from unit 0, run with the same seed")
    if first:
        record = OUT / "digests" / f"{args.workload}-seed{args.seed}-{code_digest()[:16]}.sha256"
        if record.is_file() and record.read_text() != first:
            problems.append(f"output differs from an earlier run with seed {args.seed}")
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(first)
    return problems


def declared_metrics(section: str) -> dict[str, str]:
    """Name to unit of the metrics BENCHMARK.json lists in ``section``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def run_all(args) -> int:
    worst = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT, timeout=900).returncode)
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, str(BENCH))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
