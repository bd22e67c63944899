/* The sweep of surveysynth.mcmc, compiled: one of the two interpreters of
   the schedule that mcmc._sample hands a chain's streams to; mcmc._run_python,
   its port on Python floats, is the other.

   ss_chain_run runs sweeps it0 .. it0 + n - 1 of one chain, reading sweep
   i's steps and log-uniforms from row i of z and lu, (n, blocks) each: one
   stretch of the chain's streams (mcmc._refill). It does what _run_python
   does at those sweeps, operation for operation and in its order: the level,
   ridge, walk, coefficient and variance blocks, the monotone reflection, the
   freeze snapshot, the adaptation windows and thinning. A cell is scored
   under the logit-shift approximation or, when the chain is exact, under
   Fisher's non-central hypergeometric law as mcmc._exact_cell and
   dists._log_probs score it. So both give the same draws bit for bit, on the
   terms the build keeps (mcmc docstring): libm's exp, expm1, log1p, log and
   sqrt, which Python's math module calls, and CPython's own lgamma, copied
   below; no contraction into fused multiply-adds; every expression
   associated as the Python source writes it. Where the Python would raise
   (an exp that overflows, a division by 0), this carries inf or nan; neither
   arises in a finite fit.

   The caller owns every buffer. The schedule, ix and fx, is the packing
   (mcmc._pack) of the block tuples that mcmc._flat_schedule builds and
   _run_python reads; that function's docstring is the one table of their
   layout. Each block is its kind, then its items in turn: an int in ix, a
   float in fx, a list as its length in ix and then its items. An index into
   lp, ll, nlp, nll, th or gam is flat: a survey's row of the first four is
   T + 3 long, padded as the chain's, node t at t + 1. */

#include <math.h>
#include <stdint.h>

enum { LEVEL, COEF, WALK, VAR };

struct chain {
    int64_t T, B, monotone, burn, thin, window, n_ix, n_out;
    int64_t population, exact;  /* exact: cells under the NCHG law, else the approximation */
    double wt0, target;
    const int64_t *ix;  /* the schedule */
    const double *fx;
    const int64_t *outs;  /* per kept survey: from lp (1) or gam (0), offset, length */
    double *th, *lp, *ll, *nlp, *nll, *gam;
    double *var;  /* sigma_sq, pi_sq, and their step weights 0.5 / var */
    double *log_scale, *scale, *frozen;
    int64_t *acc, *counts;  /* counts: draws kept, windows closed */
    double *out_theta, *out_sig, *out_pi;
    double **out_gam;  /* per kept survey: its (draws, length) block */
    double *win;  /* exact: the window's log-weights, the largest n + 1 long */
};

/* Python's max(a, b) and min(a, b): the first unless the second is beyond it */
static double py_max(double a, double b) { return b > a ? b : a; }
static double py_min(double a, double b) { return b < a ? b : a; }

/* CPython's m_lgamma (Modules/mathmodule.c), which math.lgamma calls, for
   x > 0: the Lanczos sum with N = 13 and g = 6.024680040776729583740234375,
   as a rational function. */
#define LANCZOS_N 13
static const double lanczos_g = 6.024680040776729583740234375;
static const double lanczos_num_coeffs[LANCZOS_N] = {
    23531376880.410759688572007674451636754734846804940,
    42919803642.649098768957899047001988850926355848959,
    35711959237.355668049440185451547166705960488635843,
    17921034426.037209699919755754458931112671403265390,
    6039542586.3520280050642916443072979210699388420708,
    1439720407.3117216736632230727949123939715485786772,
    248874557.86205415651146038641322942321632125127801,
    31426415.585400194380614231628318205362874684987640,
    2876370.6289353724412254090516208496135991145378768,
    186056.26539522349504029498971604569928220784236328,
    8071.6720023658162106380029022722506138218516325024,
    210.82427775157934587250973392071336271166969580291,
    2.5066282746310002701649081771338373386264310793408
};
static const double lanczos_den_coeffs[LANCZOS_N] = {
    0.0, 39916800.0, 120543840.0, 150917976.0, 105258076.0, 45995730.0,
    13339535.0, 2637558.0, 357423.0, 32670.0, 1925.0, 66.0, 1.0};

static double lanczos_sum(double x)
{
    double num = 0.0, den = 0.0;
    if (x < 5.0) {
        for (int i = LANCZOS_N; --i >= 0;) {
            num = num * x + lanczos_num_coeffs[i];
            den = den * x + lanczos_den_coeffs[i];
        }
    } else {
        for (int i = 0; i < LANCZOS_N; i++) {
            num = num / x + lanczos_num_coeffs[i];
            den = den / x + lanczos_den_coeffs[i];
        }
    }
    return num / den;
}

static double m_lgamma(double x)
{
    if (!isfinite(x))
        return isnan(x) ? x : HUGE_VAL;
    if (x == floor(x) && x <= 2.0)
        return x <= 0.0 ? HUGE_VAL : 0.0;  /* lgamma(1) = lgamma(2) = 0 */
    double absx = fabs(x);
    if (absx < 1e-20)
        return -log(absx);
    double r = log(lanczos_sum(absx)) - lanczos_g;
    r += (absx - 0.5) * (log(absx + lanczos_g - 0.5) - 1);
    return r;
}

/* The Fisher non-central hypergeometric law of surveysynth.dists, in the
   operations of its libm form (dists._libm_fill, _log_probs). */
#define WINDOW_SD 13.0
#define LOG_TAIL_TOL (-36.841361487904734)  /* log(1e-16), as dists writes it */
#define MAX_LOG_ODDS 690.0

/* dists._lchoose: log C(m, k) */
static double lchoose(int64_t m, int64_t k)
{
    if (m - k < k)
        k = m - k;
    if (m < 1000)
        return m_lgamma((double)(m + 1)) - m_lgamma((double)(k + 1)) - m_lgamma((double)(m - k + 1));
    const double dm = (double)m, dk = (double)k, j = (double)(m - k);
    return (j + 0.5) * log1p(dk / j)
           + dk * (log(dm) - 1.0)
           + (1.0 / 12.0 - 1.0 / (360.0 * dm * dm)) / dm
           - (1.0 / 12.0 - 1.0 / (360.0 * j * j)) / j
           - m_lgamma(dk + 1.0);
}

static double log_weight(int64_t m1, int64_t m2, int64_t n, double log_phi, int64_t y)
{
    return lchoose(m1, y) + lchoose(m2, n - y) + (double)y * log_phi;
}

/* dists._approx_mode: the root of Liao & Rosen's mode quadratic */
static double approx_mode(int64_t m1, int64_t m2, int64_t n, double phi)
{
    const double a = (double)m1 + 1.0, b = (double)n + 1.0, ell = (double)(n - m2);
    double qa, qb, qc;
    if (phi > 1.0) {
        qa = 1.0 / phi - 1.0;
        qb = a + b - ell / phi;
        qc = -a * b;
    } else {
        qa = 1.0 - phi;
        qb = (a + b) * phi - ell;
        qc = -a * b * phi;
    }
    double d = sqrt(py_max(qb * qb - 4.0 * qa * qc, 0.0));
    return qb > 0.0 ? -2.0 * qc / (qb + d) : (d - qb) / (2.0 * qa);
}

/* dists._log_ratio: log(w(y + 1) / w(y)) */
static double log_ratio(int64_t m1, int64_t m2, int64_t n, double log_phi, int64_t y)
{
    return log((double)(m1 - y)) + log((double)(n - y)) - log((double)(y + 1))
           - log((double)(m2 - n + y + 1)) + log_phi;
}

/* dists._tail_ok: the geometric bound on the mass beyond an edge */
static int tail_ok(double log_edge, double log_step, double log_s)
{
    return log_step < 0.0 && log_edge + log_step - log(-expm1(log_step)) <= log_s + LOG_TAIL_TOL;
}

/* dists._log_probs at one count y: -inf outside the support; at phi = 1 the
   Vandermonde normalizer; else the certified window (dists._nchg_window with
   dists._libm_fill), written into w, and beyond it the closed form */
static double log_prob(int64_t y, int64_t m1, int64_t m2, int64_t n, double phi, double *w)
{
    const int64_t lo = n - m2 > 0 ? n - m2 : 0, hi = n < m1 ? n : m1;
    if (y < lo || y > hi)
        return -INFINITY;
    if (phi == 1.0)
        return log_weight(m1, m2, n, 0.0, y) - lchoose(m1 + m2, n);
    const double log_phi = log(phi);
    double x = py_min(py_max(approx_mode(m1, m2, n, phi), (double)lo), (double)hi);
    double inv_var = 1.0 / py_max(x, 1.0) + 1.0 / py_max((double)m1 - x, 1.0)
                     + 1.0 / py_max((double)n - x, 1.0);
    inv_var += 1.0 / py_max(x - (double)n + (double)m2, 1.0);
    int64_t half = (int64_t)(WINDOW_SD / sqrt(inv_var)) + 2;
    const int64_t centre = (int64_t)x;
    for (;;) {
        const int64_t a = centre - half > lo ? centre - half : lo;
        const int64_t b = centre + half < hi ? centre + half : hi;
        double acc = 0.0, top = 0.0, s = 0.0;
        int64_t k = 0;
        w[0] = 0.0;
        for (int64_t i = a; i < b; i++) {
            double r = ((double)(m1 - i) * (double)(n - i))
                       / ((double)(i + 1) * (double)(m2 - n + i + 1));
            acc += log(r) + log_phi;
            w[i - a + 1] = acc;
            if (acc > top) {
                top = acc;
                k = i - a + 1;
            }
        }
        for (int64_t i = 0; i <= b - a; i++) {
            w[i] -= top;
            s += exp(w[i]);
        }
        const double log_s = log(s);
        if ((a == lo || tail_ok(w[0], -log_ratio(m1, m2, n, log_phi, a - 1), log_s))
            && (b == hi || tail_ok(w[b - a], log_ratio(m1, m2, n, log_phi, b), log_s))) {
            if (a <= y && y <= b)
                return w[y - a] - log_s;
            return log_weight(m1, m2, n, log_phi, y) - (log_weight(m1, m2, n, log_phi, a + k) + log_s);
        }
        half *= 2;
    }
}

/* mcmc._exact_cell: m1 = round(N inv_logit(th)) positives and odds exp(g),
   impossible beyond MAX_LOG_ODDS */
static double exact_cell(const struct chain *c, double y, double n, double th, double g)
{
    if (fabs(g) > MAX_LOG_ODDS)
        return -INFINITY;
    double p;
    if (th >= 0.0) {
        p = 1.0 / (1.0 + exp(-th));
    } else {
        double e = exp(th);
        p = e / (1.0 + e);
    }
    const int64_t m1 = (int64_t)floor(p * (double)c->population + 0.5);
    return log_prob((int64_t)y, m1, c->population - m1, (int64_t)n, exp(g), c->win);
}

/* A cell's log-likelihood at level th and log odds g: exact, or y * x - n *
   softplus(x) at x = th + g, softplus as np.logaddexp(0, x) computes it */
static inline double cell(const struct chain *c, double y, double n, double th, double g)
{
    if (c->exact)
        return exact_cell(c, y, n, th, g);
    double x = th + g;
    return y * x - n * (x > 0.0 ? x + log1p(exp(-x)) : log1p(exp(x)));
}

/* For tests: one exact cell, with a window buffer of n + 1 doubles, and lgamma */
double ss_exact_cell(int64_t population, double th, double g, double y, double n, double *win)
{
    struct chain c = {.population = population, .exact = 1, .win = win};
    return cell(&c, y, n, th, g);
}

double ss_lgamma(double x)
{
    return m_lgamma(x);
}

/* Python's float a % b */
static double py_mod(double a, double b)
{
    double m = fmod(a, b);
    if (m != 0.0) {
        if ((b < 0.0) != (m < 0.0))
            m += b;
    } else {
        m = copysign(0.0, b);
    }
    return m;
}

static void sweep(struct chain *c, const double *z, const double *lu)
{
    const int64_t T = c->T;
    const int64_t *ix = c->ix, *end = c->ix + c->n_ix;
    const double *fx = c->fx;
    double *th = c->th, *lp = c->lp, *ll = c->ll, *nlp = c->nlp, *nll = c->nll;
    double *gam = c->gam, *var = c->var, *scale = c->scale;
    int64_t *acc = c->acc;

    while (ix < end) {
        const int64_t kind = ix[0], bid = ix[1];
        if (kind == LEVEL) {
            const int64_t p = ix[2], nw = ix[3], *wa = ix + 4;
            const int64_t nc = wa[nw], *ca = wa + nw + 1;
            const int64_t nr = ca[nc], *ra = ca + nc + 1;
            const double *wf = fx, *cf = wf + nw, *rf = cf + 3 * nc;
            const double wsig = var[2], wpi = var[3];
            ix = ra + nr;
            fx = rf + 2 * nr;
            double cur = th[p], prev = th[p - 1], nxt = th[p + 1];
            double delta = scale[bid] * z[bid];
            double prop = cur + delta;
            if (c->monotone && ((p > 1 && prop < prev) || (p <= T && prop > nxt))) {
                if (nw)
                    continue;  /* a ridge move outside the order: a reject */
                if (p == 1) {
                    prop = 2.0 * nxt - prop;
                } else if (p > T) {
                    prop = 2.0 * prev - prop;
                } else {
                    double w = nxt - prev;
                    if (w <= 0.0)
                        continue;  /* neighbours tied: a reject */
                    double w2 = 2.0 * w;
                    double r = py_mod(prop - prev, w2);
                    prop = prev + (r <= w ? r : w2 - r);
                }
            }
            double s = cur + prop;
            double d = (cur - prop) * ((s - 2.0 * prev) * (p > 1 ? wsig : c->wt0)
                                       - (2.0 * nxt - s) * (p <= T ? wsig : 0.0));
            if (nw) {
                double ws = 0.0;
                for (int64_t i = 0; i < nw; i++) {
                    const int64_t at = wa[i];
                    double gc = lp[at];
                    double gn = gc - delta;
                    double sg = gc + gn;
                    ws += (gc - gn) * ((sg - 2.0 * lp[at - 1]) * (p > 1 ? wpi : wf[i])
                                       - (2.0 * lp[at + 1] - sg) * (p <= T ? wpi : 0.0));
                }
                d += ws;
            }
            double cs = 0.0;
            for (int64_t i = 0; i < nc; i++) {
                const int64_t at = ca[i];
                const double *f = cf + 3 * i;  /* y, n, shift */
                /* exact only: a walk's cell at the shifted odds */
                double v = cell(c, f[0], f[1], prop, c->exact ? lp[at] - f[2] * delta : lp[at]);
                nll[at] = v;
                cs += v - ll[at];
            }
            d += cs;
            if (lu[bid] < d) {
                th[p] = prop;
                for (int64_t i = 0; i < nc; i++)
                    ll[ca[i]] = nll[ca[i]];
                for (int64_t i = 0; i < nw; i++)
                    lp[wa[i]] -= delta;
                for (int64_t i = 0; i < nr; i++)
                    ll[ra[i]] = cell(c, rf[2 * i], rf[2 * i + 1], prop, lp[ra[i]]);
                acc[bid] += 1;
            }
        } else if (kind == COEF) {
            /* propose gamma[j], add its prior term, then re-evaluate each
               cell in its column at offset + sum of c * gamma */
            double *gj = gam + ix[2];
            const int64_t rows = ix[3];
            const int64_t *row = ix + 4;
            const double *f = fx + 1;
            double cur = *gj;
            double prop = cur + scale[bid] * z[bid];
            double d = (cur * cur - prop * prop) / fx[0];
            *gj = prop;
            double cs = 0.0;
            for (int64_t r = 0; r < rows; r++) {
                const int64_t p = row[0], at = row[1], nt = row[2];
                double y = f[0], n = f[1], g = f[2];
                row += 3;
                f += 3;
                if (nt == 0)
                    g = prop;  /* no terms: the log odds are gamma[j] */
                for (int64_t i = 0; i < nt; i++)
                    g = g + f[i] * gam[row[i]];
                row += nt;
                f += nt;
                double v = cell(c, y, n, th[p], g);
                nlp[at] = g;
                nll[at] = v;
                cs += v - ll[at];
            }
            d += cs;
            const int64_t nats = row[0], *ats = row + 1;
            if (lu[bid] < d) {
                for (int64_t i = 0; i < nats; i++) {
                    lp[ats[i]] = nlp[ats[i]];
                    ll[ats[i]] = nll[ats[i]];
                }
                acc[bid] += 1;
            } else {
                *gj = cur;
            }
            ix = ats + nats;
            fx = f;
        } else if (kind == WALK) {
            const int64_t at = ix[2], p = ix[3], observed = ix[4];
            const double wpi = var[3];
            double cur = lp[at];
            double prop = cur + scale[bid] * z[bid];
            double s = cur + prop;
            double d = (cur - prop) * ((s - 2.0 * lp[at - 1]) * (p > 1 ? wpi : fx[0])
                                       - (2.0 * lp[at + 1] - s) * (p <= T ? wpi : 0.0));
            double v = 0.0;
            if (observed) {
                v = cell(c, fx[1], fx[2], th[p], prop);
                d += v - ll[at];
            }
            if (lu[bid] < d) {
                lp[at] = prop;
                if (observed)
                    ll[at] = v;
                acc[bid] += 1;
            }
            ix += 5;
            fx += 3;
        } else {  /* sigma_sq or pi_sq, on the log scale against its walk steps */
            const int64_t is_pi = ix[2], steps = ix[3], *step = ix + 4;
            const double *g = is_pi ? lp : th;
            double v = var[is_pi];
            double sse = 0.0;
            for (int64_t i = 0; i < steps; i++) {
                double dd = g[step[i]] - g[step[i] - 1];
                sse += dd * dd;
            }
            double lcur = log(v);
            double lprop = lcur + scale[bid] * z[bid];
            double vprop = exp(lprop);
            double d = (v * v - vprop * vprop) / (2.0 * fx[0])
                       + 0.5 * (double)steps * (lcur - lprop)
                       + 0.5 * sse * (1.0 / v - 1.0 / vprop)
                       + (lprop - lcur);
            if (lu[bid] < d) {
                var[is_pi] = vprop;
                var[2 + is_pi] = 0.5 / vprop;
                acc[bid] += 1;
            }
            ix = step + steps;
            fx += 1;
        }
    }
}

void ss_chain_run(struct chain *c, int64_t it0, int64_t n, const double *z, const double *lu)
{
    const int64_t B = c->B, T = c->T;
    for (int64_t it = it0; it < it0 + n; it++, z += B, lu += B) {
        if (it == c->burn) {
            for (int64_t b = 0; b < B; b++) {
                c->frozen[b] = c->scale[b];
                c->acc[b] = 0;  /* a partial window at the freeze point is dropped */
            }
        }
        sweep(c, z, lu);

        /* every block made one decision this sweep, so all adaptation
           windows close together */
        if (it < c->burn && (it + 1) % c->window == 0) {
            c->counts[1] += 1;
            double root = sqrt((double)c->counts[1]);
            for (int64_t b = 0; b < B; b++) {
                c->log_scale[b] += ((double)c->acc[b] / (double)c->window - c->target) / root;
                c->scale[b] = exp(c->log_scale[b]);
                c->acc[b] = 0;
            }
        }

        if (it >= c->burn && (it - c->burn) % c->thin == c->thin - 1) {
            int64_t i = c->counts[0]++;
            for (int64_t t = 0; t <= T; t++)
                c->out_theta[i * (T + 1) + t] = c->th[t + 1];
            c->out_sig[i] = c->var[0];
            for (int64_t k = 0; k < c->n_out; k++) {
                const int64_t *o = c->outs + 3 * k;
                const double *src = (o[0] ? c->lp : c->gam) + o[1];
                for (int64_t j = 0; j < o[2]; j++)
                    c->out_gam[k][i * o[2] + j] = src[j];
            }
            if (c->out_pi)
                c->out_pi[i] = c->var[1];
        }
    }
}
