"""Domain types shared across the engine.

Time indexing convention: a panel with T time-points stores its counts in
(K, T) arrays whose column j holds time-point t = j + 1. The latent logit
series has T + 1 entries, theta[0] sitting one step before the first
observed time-point, and theta[t] aligned with panel time-point t.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .mcmc import SamplerSettings

BIAS_KINDS = ("known", "constant", "linear", "walk")


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def check_count(name: str, value, least: int) -> None:
    """Raise ValueError unless value is an integer (not a bool) >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_alpha(alpha) -> None:
    """Raise ValueError unless 0 < alpha < 1 (nan is not)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def check_number(name: str, value) -> None:
    """Raise ValueError unless value is a real number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")


def check_labels(labels, count: int) -> tuple[str, ...]:
    """``labels`` as strings; ValueError unless there are ``count`` of them,
    all different."""
    labels = tuple(str(s) for s in labels)
    if len(labels) != count:
        raise ValueError(f"{len(labels)} labels for {count} surveys")
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ValueError(f"duplicate survey label {label!r}")
    return labels


@dataclass(frozen=True, eq=False)
class SurveyPanel:
    """Aligned counts for K surveys over a shared time grid.

    y and n are (K, T) float arrays with NaN marking cells a survey did not
    run; population is the shared population size the counts refer to.
    """

    y: np.ndarray
    n: np.ndarray
    population: int
    labels: tuple[str, ...]

    def __post_init__(self):
        y = _frozen_array(self.y)
        n = _frozen_array(self.n)
        if y.ndim != 2 or n.shape != y.shape:
            raise ValueError(f"y and n must be equal-shape 2-d arrays, got {y.shape} and {n.shape}")
        labels = check_labels(self.labels, y.shape[0])
        check_count("population", self.population, 1)
        population = int(self.population)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "population", population)

    @property
    def n_surveys(self) -> int:
        return self.y.shape[0]

    @property
    def n_times(self) -> int:
        return self.y.shape[1]

    @property
    def observed(self) -> np.ndarray:
        """Boolean (K, T) mask of cells where both counts are present."""
        return ~np.isnan(self.y) & ~np.isnan(self.n)

    def observed_cells(self) -> Iterator[tuple[int, int, int, int]]:
        """Yield (k, t, y, n) over present cells, t being 1-based."""
        y, n = self.y.tolist(), self.n.tolist()  # plain floats index faster
        for k, seen in enumerate(self.observed.tolist()):
            for j in range(self.n_times):
                if seen[j]:
                    yield k, j + 1, int(y[k][j]), int(n[k][j])

    def subset_surveys(self, indices) -> "SurveyPanel":
        idx = list(indices)
        return SurveyPanel(
            y=self.y[idx],
            n=self.n[idx],
            population=self.population,
            labels=tuple(self.labels[k] for k in idx),
        )

    def up_to(self, t_star: int) -> "SurveyPanel":
        """Panel restricted to time-points 1..t_star."""
        if not 1 <= t_star <= self.n_times:
            raise ValueError(f"t_star must lie in 1..{self.n_times}, got {t_star}")
        return SurveyPanel(
            y=self.y[:, :t_star],
            n=self.n[:, :t_star],
            population=self.population,
            labels=self.labels,
        )

    def __eq__(self, other):
        if not isinstance(other, SurveyPanel):
            return NotImplemented
        return (
            self.population == other.population
            and self.labels == other.labels
            and self.y.shape == other.y.shape
            and np.array_equal(self.y, other.y, equal_nan=True)
            and np.array_equal(self.n, other.n, equal_nan=True)
        )


@dataclass(frozen=True)
class BiasModelSpec:
    """Per-survey selection-bias model.

    kind "known" pins the bias odds (1 unless fixed_phi gives a per-time
    series); the other kinds put a prior on it: a single constant log-odds
    shift, a linear-in-time shift, or a random walk over time.
    """

    kind: str
    fixed_phi: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in BIAS_KINDS:
            raise ValueError(f"unknown bias kind {self.kind!r}, expected one of {BIAS_KINDS}")
        if self.fixed_phi is not None:
            if self.kind != "known":
                raise ValueError("fixed_phi only applies to kind='known'")
            for v in self.fixed_phi:
                check_number("fixed_phi value", v)
            phi = tuple(float(v) for v in self.fixed_phi)
            if any(not (v > 0.0) or not math.isfinite(v) for v in phi):
                raise ValueError(f"fixed_phi values must be positive and finite: {phi}")
            object.__setattr__(self, "fixed_phi", phi)

    @classmethod
    def anchor(cls) -> "BiasModelSpec":
        """A survey trusted to sample the population without selection bias."""
        return cls(kind="known")

    @classmethod
    def random_walk(cls) -> "BiasModelSpec":
        """A survey whose log bias odds follow a random walk over time."""
        return cls(kind="walk")


@dataclass(frozen=True)
class PriorSpec:
    """Prior hyperparameters; every Normal is parameterized by its variance.

    sigma_sq_scale and pi_sq_scale are the variances of the half-normal
    priors on the latent-walk and bias-walk jump variances.
    """

    theta0_mean: float = 0.0
    theta0_var: float = 2.0
    sigma_sq_scale: float = 1.0
    gamma0_var: float = 1.0
    gamma1_var: float = 0.25
    pi_sq_scale: float = 1.0

    def __post_init__(self):
        for name in ("theta0_mean", "theta0_var", "sigma_sq_scale", "gamma0_var", "gamma1_var",
                     "pi_sq_scale"):
            check_number(name, getattr(self, name))
        for name in ("theta0_var", "sigma_sq_scale", "gamma0_var", "gamma1_var", "pi_sq_scale"):
            v = getattr(self, name)
            if not (v > 0.0) or not math.isfinite(v):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
        if not math.isfinite(self.theta0_mean):
            raise ValueError(f"theta0_mean must be finite, got {self.theta0_mean!r}")

    @classmethod
    def narrowed(cls) -> "PriorSpec":
        """Tighter priors for simulation draws, keeping rates and biases plausible."""
        return cls(theta0_var=1.0, sigma_sq_scale=0.1, gamma1_var=0.01, pi_sq_scale=0.01)


@dataclass(frozen=True)
class ModelSpec:
    """Full model configuration: priors, one bias model per survey, options."""

    bias: tuple[BiasModelSpec, ...]
    priors: PriorSpec = field(default_factory=PriorSpec)
    monotone_walk: bool = False
    center_time: bool = True
    use_exact_nchg: bool = False

    def __post_init__(self):
        bias = tuple(self.bias)
        if not bias:
            raise ValueError("at least one survey is required")
        if not any(b.kind == "known" for b in bias):
            raise ValueError("at least one survey must have a known (unbiased) bias model")
        object.__setattr__(self, "bias", bias)

    @property
    def has_bias_walk(self) -> bool:
        return any(b.kind == "walk" for b in self.bias)


def time_covariate(spec: ModelSpec, n_times: int) -> list[float]:
    """Covariate of a linear bias at t = 0..T: t - T/2 when centred, else t."""
    T = n_times
    return [t - T / 2.0 if spec.center_time else float(t) for t in range(T + 1)]


@dataclass(frozen=True)
class BiasDesign:
    """One survey's bias model: a linear map from coefficients gamma to log odds.

    The log odds at t = 0..T are offset[t] plus c * gamma[j] over the sparse
    row terms[t] of (j, c) pairs. var[j] is the Normal(0, var[j]) prior
    variance of gamma[j], or None for a walk step Normal(gamma[j - 1], pi_sq);
    len(var) is the coefficient count.
    """

    offset: tuple[float, ...]
    terms: tuple[tuple[tuple[int, float], ...], ...]
    var: tuple[float | None, ...]

    def log_phi(self, gamma, t: int):
        """Log odds at t; gamma is a coefficient vector or any stack of
        draws indexed by coefficient first, e.g. np.moveaxis(g, -1, 0)."""
        v = self.offset[t]
        for j, c in self.terms[t]:
            v = v + c * gamma[j]
        return v

    def own(self, t: int) -> int | None:
        """The coefficient j whose value is the log odds at t (offset 0 and
        the one term (j, 1.0): a constant, a walk step), else None."""
        terms = self.terms[t]
        if self.offset[t] == 0.0 and len(terms) == 1 and terms[0][1] == 1.0:
            return terms[0][0]
        return None


def bias_designs(spec: ModelSpec, n_times: int) -> tuple[BiasDesign, ...]:
    """Compile every survey's bias model over time-points 1..n_times."""
    T = n_times
    pr = spec.priors
    zeros = (0.0,) * (T + 1)
    out = []
    for k, b in enumerate(spec.bias):
        if b.kind == "known":
            offset = zeros
            if b.fixed_phi is not None:
                if len(b.fixed_phi) < T:
                    raise ValueError(
                        f"survey {k} fixes {len(b.fixed_phi)} phi values for {T} time-points"
                    )
                offset = (0.0,) + tuple(math.log(v) for v in b.fixed_phi[:T])
            design = BiasDesign(offset, ((),) * (T + 1), ())
        elif b.kind == "constant":
            design = BiasDesign(zeros, (((0, 1.0),),) * (T + 1), (pr.gamma0_var,))
        elif b.kind == "linear":
            terms = tuple(((0, 1.0), (1, c)) for c in time_covariate(spec, T))
            design = BiasDesign(zeros, terms, (pr.gamma0_var, pr.gamma1_var))
        else:  # walk
            terms = tuple(((t, 1.0),) for t in range(T + 1))
            design = BiasDesign(zeros, terms, (pr.gamma0_var,) + (None,) * T)
        out.append(design)
    return tuple(out)


class CoefficientColumn(NamedTuple):
    """Bias coefficient gamma[j] of survey k: its prior and the cells it moves.

    The prior is Normal(0, var), or with var None a walk step from
    gamma[j - 1]. rows holds the observed cells that use gamma[j], in t order, as
    (t, y, n, offset, terms), with the design's offset and terms at t;
    terms is None where the log odds are gamma[j] itself (``BiasDesign.own``).
    """

    k: int
    j: int
    var: float | None
    rows: tuple[tuple, ...]


def coefficient_columns(
    designs: tuple[BiasDesign, ...], panel: SurveyPanel
) -> tuple[CoefficientColumn, ...]:
    """Every coefficient's column over the panel's observed cells, survey by
    survey and in coefficient order. A design with walk steps must be a walk
    over t = 0..T (coefficient t is the log odds at t, gamma[0] has a
    variance): that is the layout the sampler's ridge move shifts."""
    T = panel.n_times
    for k, d in enumerate(designs):
        walk = [*map(d.own, range(T + 1))] == [*range(len(d.var))] and d.var[0] is not None
        if None in d.var and not walk:
            raise ValueError(f"survey {k} has walk steps but is not a walk over t = 0..{T}")
    rows = [[[] for _ in d.var] for d in designs]
    for k, t, y, n in panel.observed_cells():
        d = designs[k]
        own = d.own(t)
        for j in {j for j, _ in d.terms[t]}:
            terms = None if j == own else d.terms[t]
            rows[k][j].append((t, float(y), float(n), d.offset[t], terms))
    return tuple(
        CoefficientColumn(k, j, var, tuple(rows[k][j]))
        for k, d in enumerate(designs)
        for j, var in enumerate(d.var)
    )


@dataclass(frozen=True, eq=False)
class LatentState:
    """One point in parameter space: logit-rate series, jump variances, and
    per-survey bias coefficients (None for known-bias surveys)."""

    theta: np.ndarray
    sigma_sq: float
    gamma: tuple[np.ndarray | None, ...]
    pi_sq: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "theta", _frozen_array(self.theta))
        gam = tuple(
            None if g is None or np.size(g) == 0 else _frozen_array(g) for g in self.gamma
        )
        object.__setattr__(self, "gamma", gam)

    @property
    def n_times(self) -> int:
        return len(self.theta) - 1

    def __eq__(self, other):
        if not isinstance(other, LatentState):
            return NotImplemented
        gammas_equal = len(self.gamma) == len(other.gamma) and all(
            (a is None and b is None)
            or (a is not None and b is not None and np.array_equal(a, b))
            for a, b in zip(self.gamma, other.gamma)
        )
        return (
            np.array_equal(self.theta, other.theta)
            and self.sigma_sq == other.sigma_sq
            and self.pi_sq == other.pi_sq
            and gammas_equal
        )


def validate_state(state: LatentState, spec: ModelSpec) -> list[str]:
    """Return human-readable descriptions of every broken state invariant;
    of the shape mismatches against the spec, ``compile_model`` names the first."""
    problems: list[str] = []
    try:
        compile_model(spec, state=state)
    except ValueError as e:
        problems.append(str(e))
    if not np.all(np.isfinite(state.theta)):
        problems.append("theta contains non-finite values")
    if not (state.sigma_sq > 0.0) or not math.isfinite(state.sigma_sq):
        problems.append(f"sigma_sq must be positive and finite, got {state.sigma_sq!r}")
    if spec.monotone_walk and np.any(np.diff(state.theta) < 0.0):
        problems.append("monotone walk violated: theta must be non-decreasing")
    for k, g in enumerate(state.gamma):
        if g is not None and not np.all(np.isfinite(g)):
            problems.append(f"gamma for survey {k} contains non-finite values")
    if spec.has_bias_walk:
        if state.pi_sq is None or not (state.pi_sq > 0.0) or not math.isfinite(state.pi_sq):
            problems.append(f"pi_sq must be positive and finite with a walk bias, got {state.pi_sq!r}")
    return problems


def compile_model(
    spec: ModelSpec, state: LatentState | None = None, panel: SurveyPanel | None = None
) -> tuple[BiasDesign, ...]:
    """The spec's bias designs, after checking that state and panel fit it.

    At least one of state and panel must be given; the series length comes
    from them. Raises ValueError on any mismatch in survey count, series
    length, coefficient count or pinned-phi length.
    """
    K, T = len(spec.bias), state.n_times if state is not None else panel.n_times
    if panel is not None and K != panel.n_surveys:
        raise ValueError(f"spec covers {K} surveys but panel has {panel.n_surveys}")
    if panel is not None and T != panel.n_times:
        raise ValueError(f"state covers {T} time-points but panel has {panel.n_times}")
    designs = bias_designs(spec, T)
    if state is not None:
        if len(state.gamma) != K:
            raise ValueError(f"state has {len(state.gamma)} gamma blocks for {K} surveys")
        for k, (d, g) in enumerate(zip(designs, state.gamma)):
            have = 0 if g is None else len(g)
            if have != len(d.var):
                raise ValueError(
                    f"survey {k} ({spec.bias[k].kind}) carries {have} gamma values, "
                    f"expected {len(d.var)}"
                )
    return designs


@dataclass(frozen=True)
class PanelViolation:
    rule: str
    k: int | None
    t: int | None
    message: str


def validate_panel(panel: SurveyPanel) -> list[PanelViolation]:
    """Check every panel invariant; an empty list means the panel is clean."""
    out: list[PanelViolation] = []
    if panel.n_surveys < 1:
        out.append(PanelViolation("no-surveys", None, None, "panel has no surveys"))
    if panel.n_times < 1:
        out.append(PanelViolation("no-time-points", None, None, "panel has no time-points"))
    y, n = panel.y, panel.n
    for k in range(panel.n_surveys):
        for j in range(panel.n_times):
            t = j + 1
            yv, nv = y[k, j], n[k, j]
            y_here, n_here = not np.isnan(yv), not np.isnan(nv)
            if y_here != n_here:
                out.append(
                    PanelViolation(
                        "half-missing", k, t, f"cell ({k},{t}) has y or n but not both"
                    )
                )
                continue
            if not y_here:
                continue
            if not (math.isfinite(yv) and math.isfinite(nv)):
                out.append(
                    PanelViolation(
                        "non-finite-count", k, t, f"cell ({k},{t}) counts y={yv}, n={nv} must be finite"
                    )
                )
                continue
            if yv != math.floor(yv) or nv != math.floor(nv):
                out.append(
                    PanelViolation(
                        "non-integer-count", k, t, f"cell ({k},{t}) counts y={yv}, n={nv} must be integers"
                    )
                )
                continue
            if yv < 0:
                out.append(PanelViolation("negative-y", k, t, f"cell ({k},{t}) has y={yv} < 0"))
            if nv < 1:
                out.append(PanelViolation("nonpositive-n", k, t, f"cell ({k},{t}) has n={nv} < 1"))
            elif yv > nv:
                out.append(
                    PanelViolation("y-exceeds-n", k, t, f"cell ({k},{t}) has y={yv} > n={nv}")
                )
            if nv > panel.population:
                out.append(
                    PanelViolation(
                        "n-exceeds-population",
                        k,
                        t,
                        f"cell ({k},{t}) has n={nv} above population {panel.population}",
                    )
                )
    return out


def detect_saturated_cells(panel: SurveyPanel, spec: ModelSpec) -> list[tuple[int, int]]:
    """Cells of bias-modeled surveys where y is 0 or n.

    At such cells the data cannot bound the bias odds on one side, so its
    posterior there stays prior-driven; callers surface the flags alongside
    fit output.
    """
    designs = compile_model(spec, panel=panel)
    flagged = []
    for k, t, yv, nv in panel.observed_cells():
        if not designs[k].var:
            continue
        if yv == 0 or yv == nv:
            flagged.append((k, t))
    return flagged


@dataclass(frozen=True)
class SummaryRow:
    """Posterior summary of one scalar quantity (a rate at time t, a bias
    odds value, or a variance), with equal-tailed interval bounds."""

    name: str
    survey: int | None
    t: int | None
    median: float
    lower: float
    upper: float
    r_hat: float | None = None
    ess: float | None = None

    def __post_init__(self):
        vals = (self.lower, self.median, self.upper)
        if all(math.isfinite(v) for v in vals) and not (
            self.lower <= self.median <= self.upper
        ):
            raise ValueError(f"interval out of order: {vals}")

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass
class SummaryTable:
    """Posterior summaries for a fit; alpha is the two-sided tail mass."""

    alpha: float
    rows: list[SummaryRow]
    converged: bool | None = None

    def row(self, name: str, survey: int | None = None, t: int | None = None) -> SummaryRow:
        for r in self.rows:
            if r.name == name and r.survey == survey and r.t == t:
                return r
        raise KeyError(f"no row {name!r} (survey={survey}, t={t})")

    def rows_named(self, name: str, survey: int | None = None) -> list[SummaryRow]:
        out = [r for r in self.rows if r.name == name and (survey is None or r.survey == survey)]
        return sorted(out, key=lambda r: (r.survey if r.survey is not None else -1, r.t if r.t is not None else -1))

    def rate_series(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Arrays (t, median, lower, upper) for the population rate rows."""
        rows = self.rows_named("rate")
        t = np.array([r.t for r in rows])
        med = np.array([r.median for r in rows])
        lo = np.array([r.lower for r in rows])
        hi = np.array([r.upper for r in rows])
        return t, med, lo, hi


@dataclass
class ChainDraws:
    """Post-burn-in, thinned draws from every chain.

    theta has shape (chains, kept, T+1); gamma holds one (chains, kept, L)
    array per survey with L the survey's coefficient count (0 when known).
    Proposal scales are recorded twice to witness that adaptation froze at
    the end of burn-in.
    """

    theta: np.ndarray
    sigma_sq: np.ndarray
    gamma: tuple[np.ndarray, ...]
    pi_sq: np.ndarray | None
    spec: ModelSpec
    settings: "SamplerSettings"
    acceptance_rates: dict[str, float]
    scales_end_of_burnin: dict[str, float]
    scales_final: dict[str, float]

    @property
    def n_chains(self) -> int:
        return self.theta.shape[0]

    @property
    def n_kept(self) -> int:
        return self.theta.shape[1]

    @property
    def n_times(self) -> int:
        return self.theta.shape[2] - 1

    def state(self, chain: int, i: int) -> LatentState:
        gamma = tuple(
            None if g.shape[2] == 0 else g[chain, i] for g in self.gamma
        )
        pi = None if self.pi_sq is None else float(self.pi_sq[chain, i])
        return LatentState(
            theta=self.theta[chain, i],
            sigma_sq=float(self.sigma_sq[chain, i]),
            gamma=gamma,
            pi_sq=pi,
        )

    def param_series(self) -> dict[str, np.ndarray]:
        """Per-scalar (chains, kept) series keyed by parameter name."""
        out: dict[str, np.ndarray] = {}
        for t in range(self.theta.shape[2]):
            out[f"theta[{t}]"] = self.theta[:, :, t]
        out["sigma_sq"] = self.sigma_sq
        for k, g in enumerate(self.gamma):
            for j in range(g.shape[2]):
                out[f"gamma[{k}][{j}]"] = g[:, :, j]
        if self.pi_sq is not None:
            out["pi_sq"] = self.pi_sq
        return out
