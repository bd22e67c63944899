/* The approximate sweep of surveysynth.mcmc, compiled: one of the two
   interpreters of the schedule that mcmc._sample hands a chain's streams to;
   mcmc._run_python, its port on Python floats, is the other.

   ss_chain_run runs sweeps it0 .. it0 + n - 1 of one chain under the
   logit-shift approximation, reading sweep i's steps and log-uniforms from
   row i of z and lu, (n, blocks) each: one stretch of the chain's streams
   (mcmc._refill). It does what _run_python does at those sweeps, operation
   for operation and in its order: the level, ridge, walk, coefficient and
   variance blocks, the monotone reflection, the freeze snapshot, the
   adaptation windows and thinning. So both give the same draws bit for bit,
   on the terms the build keeps (mcmc docstring): libm's exp, log1p, log and
   sqrt, which Python's math module calls; no contraction into fused
   multiply-adds; every expression associated as the Python source writes it.
   Where the Python would raise (an exp that overflows, a division by 0),
   this carries inf or nan; neither arises in a finite fit.

   The caller owns every buffer. The schedule's flat form, ix and fx
   (mcmc._flat_schedule, which also builds _run_python's form in the same
   pass), lists the blocks of one sweep in phase order, each as a kind, its
   block id and its shape in ix, and its constants in fx:
     LEVEL  p, walks, cells, refreshed cells; their surveys | a weight before
            node 0 per walk, (y, n) per cell
     COEF   survey, its first coefficient in gam, j, rows; per row p and its
            term count (-1: the log odds are gamma[j]) then the terms'
            coefficients | 2 var; per row y, n, offset, then the terms' c
     WALK   survey, p, observed | weight before node 0, y, n
     VAR    is pi_sq, steps; per step its row (-1: theta) and p | prior scale
   A survey's row of lp, ll, nlp and nll is T + 3 long, padded as the
   chain's: node t at t + 1. */

#include <math.h>
#include <stdint.h>

enum { LEVEL, COEF, WALK, VAR };

struct chain {
    int64_t T, B, monotone, burn, thin, window, n_ix, n_out;
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
};

/* y * x - n * softplus(x), softplus as np.logaddexp(0, x) computes it */
static double cell(double y, double n, double x)
{
    return y * x - n * (x > 0.0 ? x + log1p(exp(-x)) : log1p(exp(x)));
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
    const int64_t T = c->T, R = T + 3;
    const int64_t *ix = c->ix, *end = c->ix + c->n_ix;
    const double *fx = c->fx;
    double *th = c->th, *lp = c->lp, *ll = c->ll, *nlp = c->nlp, *nll = c->nll;
    double *var = c->var, *scale = c->scale;
    int64_t *acc = c->acc;

    while (ix < end) {
        const int64_t kind = ix[0], bid = ix[1];
        if (kind == LEVEL) {
            const int64_t p = ix[2], nw = ix[3], nc = ix[4], nr = ix[5];
            const int64_t *wk = ix + 6, *ck = wk + nw, *rk = ck + nc;
            const double *wf = fx, *cyn = fx + nw, *ryn = cyn + 2 * nc;
            const double wsig = var[2], wpi = var[3];
            ix = rk + nr;
            fx = ryn + 2 * nr;
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
                    const double *g = lp + wk[i] * R;
                    double gc = g[p];
                    double gn = gc - delta;
                    double sg = gc + gn;
                    ws += (gc - gn) * ((sg - 2.0 * g[p - 1]) * (p > 1 ? wpi : wf[i])
                                       - (2.0 * g[p + 1] - sg) * (p <= T ? wpi : 0.0));
                }
                d += ws;
            }
            double cs = 0.0;
            for (int64_t i = 0; i < nc; i++) {
                int64_t at = ck[i] * R + p;
                double v = cell(cyn[2 * i], cyn[2 * i + 1], prop + lp[at]);
                nll[at] = v;
                cs += v - ll[at];
            }
            d += cs;
            if (lu[bid] < d) {
                th[p] = prop;
                for (int64_t i = 0; i < nc; i++)
                    ll[ck[i] * R + p] = nll[ck[i] * R + p];
                for (int64_t i = 0; i < nw; i++)
                    lp[wk[i] * R + p] -= delta;
                for (int64_t i = 0; i < nr; i++) {
                    int64_t at = rk[i] * R + p;
                    ll[at] = cell(ryn[2 * i], ryn[2 * i + 1], prop + lp[at]);
                }
                acc[bid] += 1;
            }
        } else if (kind == COEF) {
            /* propose gamma[j], add its prior term, then re-evaluate each
               cell in its column at offset + sum of c * gamma */
            const int64_t k = ix[2], j = ix[4], rows = ix[5];
            double *gk = c->gam + ix[3];
            const int64_t *row = ix + 6;
            const double *f = fx + 1;
            double cur = gk[j];
            double prop = cur + scale[bid] * z[bid];
            double d = (cur * cur - prop * prop) / fx[0];
            gk[j] = prop;
            double cs = 0.0;
            for (int64_t r = 0; r < rows; r++) {
                const int64_t p = row[0], nt = row[1];
                double y = f[0], n = f[1], g = f[2];
                row += 2;
                f += 3;
                if (nt < 0) {
                    g = prop;
                } else {
                    for (int64_t i = 0; i < nt; i++)
                        g = g + f[i] * gk[row[i]];
                    row += nt;
                    f += nt;
                }
                int64_t at = k * R + p;
                double v = cell(y, n, th[p] + g);
                nlp[at] = g;
                nll[at] = v;
                cs += v - ll[at];
            }
            d += cs;
            if (lu[bid] < d) {
                const int64_t *q = ix + 6;
                for (int64_t r = 0; r < rows; r++) {
                    int64_t at = k * R + q[0];
                    lp[at] = nlp[at];
                    ll[at] = nll[at];
                    q += 2 + (q[1] < 0 ? 0 : q[1]);
                }
                acc[bid] += 1;
            } else {
                gk[j] = cur;
            }
            ix = row;
            fx = f;
        } else if (kind == WALK) {
            const int64_t p = ix[3], observed = ix[4];
            double *g = lp + ix[2] * R;
            const double wpi = var[3];
            double cur = g[p];
            double prop = cur + scale[bid] * z[bid];
            double s = cur + prop;
            double d = (cur - prop) * ((s - 2.0 * g[p - 1]) * (p > 1 ? wpi : fx[0])
                                       - (2.0 * g[p + 1] - s) * (p <= T ? wpi : 0.0));
            double v = 0.0;
            if (observed) {
                v = cell(fx[1], fx[2], th[p] + prop);
                d += v - ll[ix[2] * R + p];
            }
            if (lu[bid] < d) {
                g[p] = prop;
                if (observed)
                    ll[ix[2] * R + p] = v;
                acc[bid] += 1;
            }
            ix += 5;
            fx += 3;
        } else {  /* sigma_sq or pi_sq, on the log scale against its walk steps */
            const int64_t is_pi = ix[2], steps = ix[3];
            const int64_t *step = ix + 4;
            double v = var[is_pi];
            double sse = 0.0;
            for (int64_t i = 0; i < steps; i++) {
                const double *g = step[2 * i] < 0 ? th : lp + step[2 * i] * R;
                int64_t p = step[2 * i + 1];
                double dd = g[p] - g[p - 1];
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
            ix = step + 2 * steps;
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
