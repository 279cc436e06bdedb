/* The step loop of sparselin.solvers._train over CSR arrays, and the one-pass
 * model recovery of sparse_core.finalize_combine.
 *
 * Both repeat the floating-point operations of the Python code in the same
 * order, so the kernel must be built with -ffp-contract=off: no multiply-add
 * may be fused.  Only the sparse dot products differ, summing left to right
 * where numpy's BLAS ddot sums in blocks.
 */
#include <math.h>
#include <stdint.h>

enum { ABSOLUTE, SQUARED, HINGE, LOG };  /* solvers._LOSS_CODES */
enum { A, C, H, Z, R, S, P, G };          /* slots of the scalar state array */

/* losses.loss_subgradient, kinks and the overflow-safe log loss included */
static double subgradient(int loss, double p, double y)
{
    double py, e;
    switch (loss) {
    case SQUARED:
        return p - y;
    case HINGE:
        return p * y <= 1.0 ? -y : 0.0;
    case LOG:
        py = p * y;
        if (py >= 0.0) {
            e = exp(-py);
            return -y * e / (1.0 + e);
        }
        return -y / (1.0 + exp(py));
    default:
        return p <= y ? -1.0 : 1.0;
    }
}

static double dot(const double *v, const int64_t *idx, const double *val, int64_t lo, int64_t hi)
{
    double d = 0.0;
    for (int64_t j = lo; j < hi; j++)
        d += v[idx[j]] * val[j];
    return d;
}

/* Steps [t0, t1) of the loop; u is NULL without averaging, xbar NULL without
 * centering.  st holds a, c, h, z, r, s and the last step's p and g.  Returns
 * 0, or the first step whose p or g is not finite. */
int64_t sl_steps(const int64_t *order, const int64_t *indptr, const int64_t *idx,
                 const double *val, const double *labels, int loss, double lam,
                 double theta, const double *xbar, double *v, double *u, double *st,
                 int64_t t0, int64_t t1)
{
    double a = st[A], c = st[C], h = st[H], z = st[Z], r = st[R], s = st[S];
    for (int64_t t = t0; t < t1; t++) {
        int64_t i = order[t - 1], lo = indptr[i], hi = indptr[i + 1];
        double q = xbar ? dot(xbar, idx, val, lo, hi) : 0.0, p = 0.0, g;
        if (t > 1) {
            double d = dot(v, idx, val, lo, hi);
            /* sgd and asgd keep -(d + a), as the Python loop does */
            p = -(xbar ? d + r - a * q : d + a) / (lam * (double)(t - 1));
        }
        g = subgradient(loss, p, labels[i]);
        st[P] = p;
        st[G] = g;
        if (!(isfinite(p) && isfinite(g)))
            return t;
        for (int64_t j = lo; j < hi; j++)
            v[idx[j]] += g * val[j];
        a += g;
        if (u) {
            double hg = h * g;  /* h is still the harmonic number of step t-1 */
            if (t > 1)
                for (int64_t j = lo; j < hi; j++)
                    u[idx[j]] += hg * val[j];
            c += a / (double)t;
            h += 1.0 / (double)t;
        }
        if (xbar) {
            z += g * q;
            r = a * theta - z;
            s += r / (double)t;
        }
    }
    st[A] = a, st[C] = c, st[H] = h, st[Z] = z, st[R] = r, st[S] = s;
    return 0;
}

/* (c0 v + c1 u) + c2 x over n components in one pass, rounded in that order
 * and written into the last vector given: x, or u when x is NULL, or v when
 * both are NULL.  Where live[i / BLOCK] is 0 (live may be NULL), every vector
 * is +0.0, so the result there is one constant; a block is skipped when that
 * constant is +0.0, which the output already holds. */
#define BLOCK 512
void sl_combine(int64_t n, double *v, double c0, double *u, double c1, double *x, double c2,
                const uint8_t *live)
{
    double *out = x ? x : u ? u : v;
    double zero = u ? c0 * 0.0 + c1 * 0.0 : c0 * 0.0;
    if (x)
        zero += c2 * 0.0;
    for (int64_t lo = 0; lo < n; lo += BLOCK) {
        int64_t hi = n - lo < BLOCK ? n : lo + BLOCK;
        if (live && !live[lo / BLOCK]) {
            if (signbit(zero))
                for (int64_t i = lo; i < hi; i++)
                    out[i] = zero;
        } else if (x) {
            for (int64_t i = lo; i < hi; i++)
                x[i] = c0 * v[i] + c1 * u[i] + c2 * x[i];
        } else if (u) {
            for (int64_t i = lo; i < hi; i++)
                u[i] = c0 * v[i] + c1 * u[i];
        } else {
            for (int64_t i = lo; i < hi; i++)
                v[i] = c0 * v[i];
        }
    }
}
