"""Statistical kernels: logit transforms, truncated normals, and the Fisher
non-central hypergeometric law used for biased survey counts.

All probability mass work happens in log space. For the non-central
hypergeometric law with m1 positives, m2 negatives, n draws and odds ratio
phi, a count's unnormalized log-weight

    log w(y) = lchoose(m1, y) + lchoose(m2, n - y) + y log(phi)

costs O(1) through ``math.lgamma`` and Stirling's series. With phi = 1 the
normalizer is lchoose(m1 + m2, n) by Vandermonde's identity, so the
central law costs O(1) per point. Otherwise the weights are summed by the
odds-ratio recurrence r(y) = w(y+1)/w(y) outward from the closed-form mode
of Liao & Rosen (Am. Stat. 55(4), 2001), over a window sized from the
law's variance. The law is log-concave, so r falls as y grows and the mass
beyond each edge of the window is at most a geometric series in the edge
ratio; the window widens until that bound certifies every tail below 1e-16
of the window's mass (the scheme of A. Fog, 2008, for Fisher's law). The
cost is O(sqrt(n)). Sampling inverts the CDF over the same window.

Every pmf evaluation fills the window in libm terms (``_libm_fill``): the
log of each ratio by ``math.log``, their running sum in turn, and the
``math.exp`` of each weight summed in turn, with ``math.lgamma`` in the
closed form. The compiled sweep (``_chain.c``) repeats those operations,
so the two give the same floats whatever numpy's CPU dispatch. Sampling
keeps numpy's fill (``_numpy_fill``), and shares only the window's sizing
and its tail test with the pmf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from scipy import special

LOG2PI = math.log(2.0 * math.pi)
# Largest |log phi| the exact kernel takes: beyond it the odds leave the
# float range, and the sampler and the oracle both score the cell as impossible.
MAX_LOG_ODDS = 690.0


def logit(p):
    """Log-odds of p; p must lie strictly inside (0, 1)."""
    arr = np.asarray(p, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError(f"logit requires p in (0, 1), got {p!r}")
    out = np.log(arr) - np.log1p(-arr)
    return float(out) if np.isscalar(p) or arr.ndim == 0 else out


def inv_logit(x):
    """Inverse log-odds, computed without overflow for any real x."""
    arr = np.asarray(x, dtype=float)
    out = np.exp(-np.logaddexp(0.0, -arr))
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _log_ndtr_diff(a: float, b: float) -> float:
    """log(Phi(b) - Phi(a)) for a < b, stable in either tail."""
    if a > 0.0:
        # reflect into the lower tail where log_ndtr is accurate
        a, b = -b, -a
    la = special.log_ndtr(a)
    lb = special.log_ndtr(b)
    if lb == -math.inf:
        return -math.inf
    diff = la - lb
    # log(exp(lb) - exp(la)) = lb + log1p(-exp(la - lb))
    return lb + math.log1p(-math.exp(diff)) if diff < 0.0 else -math.inf


def _check_interval(var: float, lower: float, upper: float) -> None:
    if not (var > 0.0) or not math.isfinite(var):
        raise ValueError(f"variance must be positive and finite, got {var!r}")
    if math.isnan(lower) or math.isnan(upper) or lower >= upper:
        raise ValueError(f"empty truncation interval [{lower!r}, {upper!r}]")


def truncnorm_logpdf(
    x: float,
    mean: float,
    var: float,
    lower: float = -math.inf,
    upper: float = math.inf,
) -> float:
    """Log-density of a Normal(mean, var) truncated to [lower, upper].

    Returns -inf for x outside the interval. The normalizing mass is
    evaluated in log space so far-tail intervals stay finite.
    """
    _check_interval(var, lower, upper)
    if x < lower or x > upper or math.isnan(x):
        return -math.inf
    sd = math.sqrt(var)
    core = -0.5 * (LOG2PI + math.log(var)) - 0.5 * (x - mean) ** 2 / var
    if lower == -math.inf and upper == math.inf:
        return core
    a = (lower - mean) / sd
    b = (upper - mean) / sd
    log_mass = _log_ndtr_diff(a, b)
    if log_mass == -math.inf:
        raise ValueError("truncation interval carries no probability mass")
    return core - log_mass


def truncnorm_sample(
    mean: float,
    var: float,
    lower: float = -math.inf,
    upper: float = math.inf,
    rng: np.random.Generator | None = None,
    size: int | None = None,
):
    """Draw from a truncated normal by inverse-CDF.

    Returns a float when size is None, otherwise an ndarray of that length.
    """
    _check_interval(var, lower, upper)
    if rng is None:
        raise ValueError("an explicit rng is required")
    sd = math.sqrt(var)
    fa = special.ndtr((lower - mean) / sd) if lower != -math.inf else 0.0
    fb = special.ndtr((upper - mean) / sd) if upper != math.inf else 1.0
    if not fb > fa:
        raise ValueError("truncation interval carries no probability mass")
    u = rng.uniform(fa, fb, size=size)
    x = mean + sd * special.ndtri(u)
    x = np.clip(x, lower, upper)
    return float(x) if size is None else x


@dataclass(frozen=True)
class NchgParams:
    """Parameters of the non-central (odds-tilted) hypergeometric law.

    m1 positives and m2 negatives in the population; n sampled without
    replacement; each positive enters with odds multiplied by phi.
    """

    m1: int
    m2: int
    n: int
    phi: float

    def __post_init__(self):
        if self.m1 < 0 or self.m2 < 0:
            raise ValueError(f"group sizes must be non-negative: {self}")
        if not 0 <= self.n <= self.m1 + self.m2:
            raise ValueError(f"sample size out of range: {self}")
        if not (self.phi > 0.0) or not math.isfinite(self.phi):
            raise ValueError(f"odds ratio must be positive and finite: {self}")

    @property
    def support(self) -> tuple[int, int]:
        return max(0, self.n - self.m2), min(self.n, self.m1)


# Initial half-width of the summation window, in approximate sd. Wider than a
# normal tail needs, so that skewed laws near a support edge rarely widen.
_WINDOW_SD = 13.0
# certified bound on each tail, relative to the window: log(1e-16), written as
# its float so that the compiled sweep (_chain.c) can write the same one
_LOG_TAIL_TOL = -36.841361487904734


def _lchoose(m: int, k: int) -> float:
    """log C(m, k), accurate to a few ulp of its own size for any m.

    Three lgamma values of size m log m would cancel and keep their absolute
    error. For large m, log(m!/j!) with j = m - k comes instead from
    Stirling's series, (j + 1/2) log1p(k/j) + k (log m - 1) + s(m) - s(j),
    where s(x) = 1/(12x) - 1/(360x^3) + ... is the series remainder.
    """
    k = min(k, m - k)
    if m < 1000:
        return math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
    j = m - k  # >= 500, where two remainder terms reach full precision
    return (
        (j + 0.5) * math.log1p(k / j)
        + k * (math.log(m) - 1.0)
        + (1.0 / 12.0 - 1.0 / (360.0 * m * m)) / m
        - (1.0 / 12.0 - 1.0 / (360.0 * j * j)) / j
        - math.lgamma(k + 1)
    )


def _log_weight(m1: int, m2: int, n: int, log_phi: float, y: int) -> float:
    """log C(m1, y) + log C(m2, n - y) + y log(phi), for y inside the support."""
    return _lchoose(m1, y) + _lchoose(m2, n - y) + y * log_phi


def _approx_mode(m1: int, m2: int, n: int, phi: float) -> float:
    """Real root x of the mode quadratic of Liao & Rosen (2001); floor(x) is the mode.

    With a = m1 + 1, b = n + 1 and L = n - m2, w(y) >= w(y - 1) exactly when
    (1 - phi) y^2 + ((a + b) phi - L) y - a b phi <= 0. For phi > 1 the
    coefficients are divided by phi, so they stay finite for every finite
    phi; the root is taken in the form that does not cancel.
    """
    a, b, ell = m1 + 1.0, n + 1.0, float(n - m2)
    if phi > 1.0:
        qa, qb, qc = 1.0 / phi - 1.0, a + b - ell / phi, -a * b
    else:
        qa, qb, qc = 1.0 - phi, (a + b) * phi - ell, -a * b * phi
    d = math.sqrt(max(qb * qb - 4.0 * qa * qc, 0.0))
    # qb <= 0 only when phi < 1, so qa > 0 there
    return -2.0 * qc / (qb + d) if qb > 0.0 else (d - qb) / (2.0 * qa)


def _log_ratio(m1: int, m2: int, n: int, log_phi: float, y: int) -> float:
    """log(w(y + 1) / w(y)), for lo <= y < hi."""
    log = math.log
    return log(m1 - y) + log(n - y) - log(y + 1) - log(m2 - n + y + 1) + log_phi


def _tail_ok(log_edge: float, log_step: float, log_s: float) -> bool:
    """Geometric bound on the mass beyond an edge of weight exp(log_edge).

    The law is log-concave, so each further step shrinks the weight by at
    least the edge step; the tail is then at most w r / (1 - r).
    """
    return log_step < 0.0 and (
        log_edge + log_step - math.log(-math.expm1(log_step)) <= log_s + _LOG_TAIL_TOL
    )


def _ratios(m1: int, m2: int, n: int, a: int, b: int) -> np.ndarray:
    """r(y) = w(y + 1) / w(y) / phi for y = a .. b - 1, each as one ratio of
    float products of integers: (m1 - y)(n - y) / ((y + 1)(m2 - n + y + 1))."""
    return (np.arange(m1 - a, m1 - b, -1.0) * np.arange(n - a, n - b, -1.0)) / (
        np.arange(a + 1.0, b + 1.0) * np.arange(m2 - n + a + 1.0, m2 - n + b + 1.0)
    )


def _numpy_fill(m1: int, m2: int, n: int, log_phi: float, a: int, b: int):
    """The window's log-weights by numpy: (lw relative to its largest, log of
    their sum, the index of the largest)."""
    lw = np.zeros(b - a + 1)
    np.add.accumulate(np.log(_ratios(m1, m2, n, a, b)) + log_phi, out=lw[1:])
    k = int(lw.argmax())
    lw -= lw[k]
    return lw, math.log(float(np.exp(lw).sum())), k


def _libm_fill(m1: int, m2: int, n: int, log_phi: float, a: int, b: int):
    """``_numpy_fill`` in libm terms, as the compiled sweep computes it:
    ``math.log`` of each ratio, the log-weights summed in turn from 0, and
    their ``math.exp`` summed in turn. Returns lw as a list."""
    log, exp = math.log, math.exp
    lw = list(accumulate([log(r) + log_phi for r in _ratios(m1, m2, n, a, b).tolist()],
                         initial=0.0))
    top = max(lw)
    k = lw.index(top)
    lw = [v - top for v in lw]
    s = 0.0
    for v in lw:
        s += exp(v)
    return lw, log(s), k


def _nchg_window(m1: int, m2: int, n: int, phi: float, fill=_numpy_fill):
    """Log-weights over a window that holds all but 1e-16 of the mass.

    Returns the window's first count a, the log-weights of a, a + 1, ...
    relative to the largest one, the log of their sum, and the mode. The
    weights are filled by the odds-ratio recurrence from a (``fill``:
    ``_numpy_fill`` for sampling, ``_libm_fill`` for the log-pmf). The window
    starts _WINDOW_SD approximate standard deviations either side of the
    mode and doubles until the tail bound holds at every edge inside the
    support.
    """
    lo, hi = max(0, n - m2), min(n, m1)
    log_phi = math.log(phi)
    x = min(max(_approx_mode(m1, m2, n, phi), float(lo)), float(hi))
    # large-sample variance of the Fisher law at its mode
    inv_var = 1.0 / max(x, 1.0) + 1.0 / max(m1 - x, 1.0) + 1.0 / max(n - x, 1.0)
    inv_var += 1.0 / max(x - n + m2, 1.0)
    half = int(_WINDOW_SD / math.sqrt(inv_var)) + 2
    centre = int(x)
    while True:
        a, b = max(lo, centre - half), min(hi, centre + half)
        lw, log_s, k = fill(m1, m2, n, log_phi, a, b)
        if (a == lo or _tail_ok(lw[0], -_log_ratio(m1, m2, n, log_phi, a - 1), log_s)) and (
            b == hi or _tail_ok(lw[-1], _log_ratio(m1, m2, n, log_phi, b), log_s)
        ):
            return a, lw, log_s, a + k
        half *= 2


def _log_probs(ys, m1: int, m2: int, n: int, phi: float) -> list[float]:
    """Log-pmf at each count in ys (plain ints); -inf outside the support.

    With phi = 1 the normalizer is lchoose(m1 + m2, n) (Vandermonde) and
    every point costs O(1). Otherwise counts inside the certified window read
    their recurrence weight, and counts beyond it use the closed-form weight
    against log Z = log w(mode) + log s, computed only when one is asked for.
    """
    lo, hi = max(0, n - m2), min(n, m1)
    if phi == 1.0:
        a, lw, log_s, log_phi = lo, (), 0.0, 0.0
        log_z = _lchoose(m1 + m2, n)
    else:
        a, lw, log_s, mode = _nchg_window(m1, m2, n, phi, _libm_fill)
        log_phi = math.log(phi)
        log_z = None
    out = []
    for y in ys:
        if y < lo or y > hi:
            out.append(-math.inf)
        elif a <= y < a + len(lw):
            out.append(lw[y - a] - log_s)
        else:
            if log_z is None:
                log_z = _log_weight(m1, m2, n, log_phi, mode) + log_s
            out.append(_log_weight(m1, m2, n, log_phi, y) - log_z)
    return out


def nchg_logpmf_unchecked(y: int, m1: int, m2: int, n: int, phi: float) -> float:
    """Log-pmf at one count, on plain numbers and without validating them.

    For hot loops whose inputs are valid by construction; see nchg_logpmf.
    """
    return _log_probs((y,), m1, m2, n, phi)[0]


def nchg_logpmf(y, params: NchgParams):
    """Log-pmf at y; -inf outside the support. Accepts scalars or arrays."""
    arr = np.asarray(y)
    if not np.issubdtype(arr.dtype, np.integer):
        if np.any(np.asarray(arr, dtype=float) != np.floor(arr)):
            raise ValueError(f"counts must be integers, got {y!r}")
        arr = arr.astype(int)
    out = _log_probs(arr.ravel().tolist(), params.m1, params.m2, params.n, params.phi)
    return out[0] if arr.ndim == 0 else np.array(out).reshape(arr.shape)


def nchg_sample(params: NchgParams, rng: np.random.Generator, size: int | None = None):
    """Exact draw by inverse-CDF over the certified window, outward from the mode.

    Summation starts at the highest-probability point so the cumulative
    table resolves the bulk of the mass first; equidistant points go lower
    count first, and ties in u land deterministically.
    """
    a, lw, log_s, _ = _nchg_window(params.m1, params.m2, params.n, params.phi)
    pmf = np.exp(lw - log_s)
    mode = int(np.argmax(pmf))
    # interleave indices by distance from the mode: mode, mode-1, mode+1, ...
    order = np.argsort(np.abs(np.arange(len(pmf)) - mode), kind="stable")
    cum = np.cumsum(pmf[order])
    cum[-1] = 1.0
    u = rng.random(size=size)
    pick = np.minimum(np.searchsorted(cum, u, side="right"), len(pmf) - 1)
    out = a + order[pick]
    return int(out) if size is None else out


def biased_success_prob(p: float, phi: float) -> float:
    """Probability that a sampled unit is positive once odds are tilted by phi.

    Equivalent to shifting the log-odds of p by log(phi).
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    if not (phi > 0.0) or not math.isfinite(phi):
        raise ValueError(f"odds ratio must be positive and finite, got {phi!r}")
    return p * phi / (1.0 - p + p * phi)
