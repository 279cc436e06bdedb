/* The step loop of sparselin.solvers._train over CSR arrays (sl_steps), the
 * scanners of data_io's LIBSVM and model-file readers with their
 * decimal-to-double converter (number: Clinger's exact path and
 * Eisel-Lemire, strtod only where those cannot decide), the directory of a
 * model's support (sl_directory) through which sl_lookup finds feature
 * indices and sl_scores scores a dataset's rows under the model, the rank
 * bitmap that numbers a dense feature range for training (sl_number), and
 * the float formatter of data_io's writers (sl_format).
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

extern const uint64_t sl_fives[], sl_tens[];  /* number's and sl_format's; see _kernel.compile_c */

enum { ABSOLUTE, SQUARED, HINGE, LOG };  /* solvers._LOSSES */
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

static double dot(const double *v, const int32_t *idx, const double *val, int64_t lo, int64_t hi)
{
    double d = 0.0;
    for (int64_t j = lo; j < hi; j++)
        d += v[idx[j]] * val[j];
    return d;
}

/* The row of step t: floor(m (splitmix64(seed + t GAMMA) >> 11) 2^-53), the
 * t-th index of solvers.draw_indices.  The 53-bit integer and its scaling are
 * exact, so the multiply by m is the one rounding; the product is
 * nonnegative, so truncation is the floor.  Stateless: any step draws alone. */
static int64_t draw(uint64_t seed, int64_t m, int64_t t)
{
    uint64_t z = seed + (uint64_t)t * 0x9E3779B97F4A7C15u;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9u;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBu;
    z ^= z >> 31;
    return (int64_t)((double)m * ((double)(int64_t)(z >> 11) * 0x1p-53));
}

/* draw, for the tests that compare it with solvers.draw_indices */
int64_t sl_draw(uint64_t seed, int64_t m, int64_t t) { return draw(seed, m, t); }

/* The loop's contract, which solvers._python_steps keeps too.  Step t runs
 * over the CSR row draw(seed, m, t) of the m rows, so a call over any
 * [t0, t1) draws the rows a single call would, and no T-long array exists:
 * memory is independent of T (t runs to t1 in int64_t, hence
 * solvers.MAX_STEPS).  The loss is coded as above; u is NULL without
 * averaging; v and u span only the features the data uses.  q is NULL
 * without centering, else the m row products q[i] = xbar . x_i, summed as
 * sparse_core.row_dots sums (solvers._train computes them once, before the
 * loop, so no step reads xbar).  idx holds each nonzero's feature as an
 * int32 position in the data's support (sl_number or sl_lookup numbers
 * them, as sparse_core.number picks), whose size sparse_core.MAX_SUPPORT
 * bounds at 2^31 - 1.  Both loops make the same
 * floating-point operations in the same order, dot products summed left to
 * right as sparse_core.row_dots sums them, so they write bit-identical
 * models; that needs -ffp-contract=off (no fused multiply-add).  st holds
 * a, c, h, z, r, s and the last step's p and g.  Returns 0, or the first
 * step whose p or g is not finite, leaving a through s as the call found
 * them.  The loops count no touches (solvers._train charges them). */
int64_t sl_steps(uint64_t seed, int64_t m, const int64_t *indptr, const int32_t *idx,
                 const double *val, const double *labels, int loss, double lam,
                 double theta, const double *q, double *v, double *u, double *st,
                 int64_t t0, int64_t t1)
{
    double a = st[A], c = st[C], h = st[H], z = st[Z], r = st[R], s = st[S];
    for (int64_t t = t0; t < t1; t++) {
        int64_t i = draw(seed, m, t), lo = indptr[i], hi = indptr[i + 1];
        double p = 0.0, g;
        if (t > 1) {
            double d = dot(v, idx, val, lo, hi);
            /* sgd and asgd keep -(d + a), as the Python loop does */
            p = -(q ? d + r - a * q[i] : d + a) / (lam * (double)(t - 1));
        }
        g = subgradient(loss, p, labels[i]);
        st[P] = p, st[G] = g;
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
        if (q) {
            z += g * q[i];
            r = a * theta - z;
            s += r / (double)t;
        }
    }
    st[A] = a, st[C] = c, st[H] = h, st[Z] = z, st[R] = r, st[S] = s;
    return 0;
}

/* The scanners read the lines of buf[pos, end) that fit a narrow grammar and
 * stop at the start of the first line that does not; data_io hands that line
 * to its Python line code and calls them again after it.  Numbers match
 * [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)?, are converted as number() below says and
 * must be finite; indices are at most 18 plain digits; tokens are separated
 * by spaces or tabs; a line ends with "\n", with "\r\n" (one line end to
 * text-mode reading too) or at end.  Only ASCII is accepted, so no lone '\r'
 * (a line break of its own to text-mode reading) or other whitespace ever
 * reaches a token.  buf[end] must be a NUL byte, as in every Python bytes
 * object: each token scan stops there.  A scanner writes no more lines or
 * nonzeros than the room it is given, and also stops at the start of a line
 * that would not fit, for which data_io makes room (by the one rule that its
 * module docstring states). */
static int digit(char c) { return c >= '0' && c <= '9'; }
static int blank(char c) { return c == ' ' || c == '\t'; }
/* The length of the line break at p < end: 1 for "\n", 2 for "\r\n", else 0. */
static int line_break(const char *p)
{
    return *p == '\n' ? 1 : *p == '\r' && p[1] == '\n' ? 2 : 0;
}
static int token_end(const char *p, const char *end)
{
    return p == end || blank(*p) || line_break(p);
}

/* Decimal to double, correctly rounded (to nearest, ties to even) as strtod
 * and Python's float round.  A decimal w 10^q with at most 19 significant
 * digits w < 2^64 takes Clinger's exact path where w <= 2^53 and |q| <= 22:
 * w and 10^q are exact doubles, so one IEEE multiply or divide rounds
 * correctly.  Any other w takes Eisel and Lemire's algorithm (Lemire,
 * "Number parsing at a gigabyte per second", 2021; Mushtak and Lemire, "Fast
 * number parsing without fallback", 2023), which rounds w 5^q 2^q from a
 * 128-bit approximation of 5^q.  sl_fives holds, for q = FIVE_MIN..FIVE_MAX,
 * the words f1 2^64 + f0 of 5^q scaled by a power of two into [2^127, 2^128)
 * (truncated for q >= 0, from above for q < 0, as fast_float's table;
 * _kernel.fives defines it).  A decimal with more digits is cut to its first
 * 19, w, and converted where w and w + 1 round alike.  strtod decides the
 * rest: a cut decimal whose w and w + 1 round apart, and the product the
 * 2021 paper could not decide (the later proof shows it never occurs). */
#define FIVE_MIN (-342)  /* below it w 10^q rounds to 0 for every w < 2^64 */
#define FIVE_MAX 308     /* above it w 10^q overflows for every w >= 1 */
#define UNDECIDED UINT64_MAX  /* a nan's bits: no result of eisel_lemire */

static const double exact_tens[] = {1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
                                    1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
                                    1e20, 1e21, 1e22};

/* The bits of w 10^q rounded, for 0 < w < 2^64 and FIVE_MIN <= q <= FIVE_MAX
 * (an infinity past the largest double), or UNDECIDED. */
static uint64_t eisel_lemire(uint64_t w, int q)
{
    const uint64_t *f = sl_fives + 2 * (q - FIVE_MIN);
    int lz = __builtin_clzll(w), upper, shift, e;
    unsigned __int128 z;
    uint64_t hi, lo, m;
    w <<= lz;
    z = (unsigned __int128)w * f[0];
    hi = (uint64_t)(z >> 64);
    lo = (uint64_t)z;
    if ((hi & 0x1ff) == 0x1ff) {  /* a carry from f0's part could reach the bits kept */
        z = (unsigned __int128)w * f[1];
        lo += (uint64_t)(z >> 64);
        hi += lo < (uint64_t)(z >> 64);
    }
    if (lo == UINT64_MAX && (q < -27 || q > 55))  /* 5^q is inexact in the table there */
        return UNDECIDED;
    upper = (int)(hi >> 63);
    shift = upper + 9;
    m = hi >> shift;  /* 54 bits: the double's 53 and a rounding bit */
    e = ((217706 * q) >> 16) + 63 + upper - lz + 1023;  /* floor(q log2 10) = (217706 q) >> 16 */
    if (e <= 0) {  /* subnormal, or rounding up to the smallest normal double */
        if (1 - e >= 64)
            return 0;
        m >>= 1 - e;
        m += m & 1;
        return m >> 1;  /* 2^52, the smallest normal, carries into the exponent field */
    }
    /* a product that ends in zeros past m may be a tie of two doubles: round it to even */
    if (lo <= 1 && q >= -4 && q <= 23 && (m & 3) == 1 && m << shift == hi)
        m &= ~1ULL;
    m += m & 1;
    m >>= 1;
    if (m >> 53) {
        m = 1ULL << 52;
        e++;
    }
    if (e >= 0x7ff)
        return 0x7ffULL << 52;
    return (m & ((1ULL << 52) - 1)) | (uint64_t)e << 52;
}

/* The number at p into *out; returns the end of its token, or NULL. */
static const char *number(const char *p, double *out)
{
    const char *s = p, *q;
    char *e;
    uint64_t w = 0, bits;
    int64_t exp10 = 0, x = 0;
    int n = 0, digits = 0, cut = 0, neg = *p == '-';
    double d;
    if (*p == '+' || *p == '-')
        p++;
    for (; digit(*p); p++, digits++) {  /* w takes the first 19 significant digits, cut the rest */
        if (n < 19) {
            w = 10 * w + (uint64_t)(*p - '0');
            n += w != 0;
        } else {
            exp10++;
            cut |= *p != '0';
        }
    }
    if (*p == '.')
        for (p++; digit(*p); p++, digits++) {
            if (n < 19) {
                w = 10 * w + (uint64_t)(*p - '0');
                n += w != 0;
                exp10--;
            } else {
                cut |= *p != '0';
            }
        }
    if (!digits)
        return NULL;
    if (*p == 'e' || *p == 'E') {
        q = p + 1 + (p[1] == '+' || p[1] == '-');
        if (!digit(*q))
            return NULL;
        for (p = q; digit(*p); p++)
            if (x < 1000000000000000000LL / 10)  /* past it, 0 or an overflow however long the token */
                x = 10 * x + (*p - '0');
        exp10 += q[-1] == '-' ? -x : x;
    }
    if (w == 0 || exp10 < FIVE_MIN) {
        d = 0.0;
    } else if (exp10 > FIVE_MAX) {
        return NULL;
    } else if (!cut && w <= 1ULL << 53 && exp10 >= -22 && exp10 <= 22) {
        d = exp10 < 0 ? (double)w / exact_tens[-exp10] : (double)w * exact_tens[exp10];
    } else {
        bits = eisel_lemire(w, (int)exp10);
        if (bits == UNDECIDED || (cut && bits != eisel_lemire(w + 1, (int)exp10))) {
            *out = strtod(s, &e);  /* the check of e also refuses a locale's other decimal point */
            return e == p && isfinite(*out) ? p : NULL;
        }
        memcpy(&d, &bits, sizeof d);
    }
    *out = neg ? -d : d;
    return isfinite(d) ? p : NULL;
}

/* The index at p (at most 18 digits, so below 2^60) into *out; the end of its digits, or NULL. */
static const char *index_digits(const char *p, int64_t *out)
{
    const char *s = p;
    int64_t n = 0;
    for (; digit(*p); p++) {
        if (p - s == 18)
            return NULL;
        n = 10 * n + (*p - '0');
    }
    *out = n;
    return p == s ? NULL : p;
}

/* LIBSVM lines "<label> <idx>:<val> ..." with 1-based indices, strictly
 * increasing and at most limit; without labeled, a line whose first token
 * holds a ':' is all features with label 0.  Row r's label goes to labels[r]
 * and base plus the nonzeros so far to indptr[r]; the nonzeros go to idx
 * (0-based) and val, :0 values dropped.  count holds the room on entry, in
 * rows and in nonzeros, and gets the rows and nonzeros written; count[2]
 * holds the largest index read before, and gets the largest read since, of
 * a :0 value too, so that the default dimension is one limit accepts.
 * Returns where the scan stopped. */
int64_t sl_scan(const char *buf, int64_t pos, int64_t end, int labeled, int64_t limit,
                int64_t base, int64_t *indptr, double *labels, int64_t *idx, double *val,
                int64_t *count)
{
    const char *p = buf + pos, *stop = buf + end, *line, *q;
    int64_t rows = 0, nnz = 0, row_room = count[0], nnz_room = count[1], top = count[2];
    int64_t row_start, prev, j;
    double y, v;
    while (p < stop && rows < row_room) {
        line = p;
        row_start = nnz;
        prev = 0;
        y = 0.0;
        while (blank(*p))
            p++;
        for (q = p; !labeled && !token_end(q, stop) && *q != ':'; q++)
            ;
        if (labeled || *q != ':') {
            p = number(p, &y);
            if (!p || !token_end(p, stop))
                goto refuse;
        }
        for (;;) {
            while (blank(*p))
                p++;
            if (p == stop || line_break(p))
                break;
            p = index_digits(p, &j);
            if (!p || *p != ':' || j <= prev || j > limit)
                goto refuse;
            p = number(p + 1, &v);
            if (!p || !token_end(p, stop))
                goto refuse;
            prev = j;
            if (v != 0.0) {
                if (nnz == nnz_room)
                    goto refuse;
                idx[nnz] = j - 1;
                val[nnz++] = v;
            }
        }
        labels[rows] = y;
        indptr[rows++] = base + nnz;
        top = prev > top ? prev : top;  /* a line's indices rise: prev is its largest */
        if (p < stop)
            p += line_break(p);
        continue;
refuse:
        nnz = row_start;
        p = line;
        break;
    }
    count[0] = rows;
    count[1] = nnz;
    count[2] = top;
    return p - buf;
}

/* Model weight lines "<idx>:<float>", 0-based indices, strictly increasing
 * after st[0] and below dim, appended to feats and w, which have room for
 * st[1] lines.  st[0] gets the last index and st[1] the lines read.  Returns
 * where the scan stopped. */
int64_t sl_weights(const char *buf, int64_t pos, int64_t end, int64_t dim, int64_t *feats,
                   double *w, int64_t *st)
{
    const char *p = buf + pos, *stop = buf + end, *q;
    int64_t prev = st[0], room = st[1], lines = 0, j;
    double v;
    while (p < stop && lines < room) {
        q = index_digits(p, &j);
        if (!q || *q != ':' || j <= prev || j >= dim)
            break;
        q = number(q + 1, &v);
        if (!q || !(q == stop || line_break(q)))
            break;
        feats[lines] = j;
        w[lines++] = v;
        prev = j;
        p = q == stop ? q : q + line_break(q);
    }
    st[0] = prev;
    st[1] = lines;
    return p - buf;
}

/* A model's support feats[0, n), sorted, distinct and nonnegative, with the
 * directory that finds a feature index in it: how scoring finds a data
 * index's weight, and training a feature's number where the feature range
 * is sparse (sl_number numbers a dense one).  The directory cuts the
 * range of feats into nb <= n buckets of 2^shift keys each: dir[b], b =
 * 0..nb, is the first position whose feature >> shift is at least b, so a
 * key's bucket is feats[dir[b], dir[b + 1]), and a binary search there costs
 * O(log n) however skewed the features are.  A position, in dir and in
 * sl_lookup's result, is an int32: the callers hold n to at most 2^31 - 1
 * (sparse_core.MAX_SUPPORT), so every position 0..n fits.  dir has room for
 * n + 1 entries (sparse_core.directory allocates it), and a caller builds it
 * once for any number of sl_lookup or sl_scores calls.  sl_directory fills
 * it and returns the shift.  (At most n / 8 buckets would take an eighth of
 * the memory, but made sl_scores and sl_lookup about a fifth slower on a
 * model of 181,144 features, the larger buckets' second cache line
 * prefetched too.) */
int sl_directory(const int64_t *feats, int64_t n, int32_t *dir)
{
    int64_t last = n ? feats[n - 1] : -1, nb;
    int shift = 0;
    while (n && last >> shift >= n)
        shift++;
    nb = n ? (last >> shift) + 1 : 0;
    memset(dir, 0, (size_t)(nb + 1) * sizeof *dir);  /* then dir[b + 1] counts bucket b */
    for (int64_t p = 0; p < n; p++)
        dir[(feats[p] >> shift) + 1]++;
    for (int64_t b = 1; b <= nb; b++)
        dir[b] += dir[b - 1];
    return shift;
}

/* Keys come in any order, so finding each costs two cache misses, its
 * directory entry's and its bucket's; the loops below prefetch them AHEAD
 * and 2 AHEAD keys early, which about halves their time on a random order
 * (written out in each loop: GCC drops a prefetch left in a helper of its
 * own, which it finds to have no effect).  last is feats[n - 1], or -1 for
 * no features. */
#define AHEAD 16

/* The position of key in feats[0, n), or n if it is not there. */
static inline int64_t position(const int64_t *feats, const int32_t *dir, int64_t n,
                               int64_t last, int shift, int64_t key)
{
    int64_t lo, hi, mid;
    if (key < 0 || key > last)
        return n;
    lo = dir[key >> shift];
    hi = dir[(key >> shift) + 1];
    while (hi - lo > 1) {  /* the key, if there, stays in [lo, hi); selects, not branches */
        mid = lo + (hi - lo) / 2;
        lo = feats[mid] <= key ? mid : lo;
        hi = feats[mid] <= key ? hi : mid;
    }
    return lo < hi && feats[lo] == key ? lo : n;
}

/* The int32 position of each of keys[0, m) in the support feats[0, n), or n
 * for a key that is not there, into out; dir and shift as sl_directory gives
 * them. */
void sl_lookup(const int64_t *feats, int64_t n, const int64_t *keys, int64_t m,
               const int32_t *dir, int shift, int32_t *out)
{
    int64_t last = n ? feats[n - 1] : -1;
    for (int64_t i = 0; i < m; i++) {
        if (i + 2 * AHEAD < m && keys[i + 2 * AHEAD] >= 0 && keys[i + 2 * AHEAD] <= last)
            __builtin_prefetch(&dir[keys[i + 2 * AHEAD] >> shift]);
        if (i + AHEAD < m && keys[i + AHEAD] >= 0 && keys[i + AHEAD] <= last)
            __builtin_prefetch(&feats[dir[keys[i + AHEAD] >> shift]]);
        out[i] = (int32_t)position(feats, dir, n, last, shift, keys[i]);
    }
}

/* Training's numbering of a dense feature range, with no sort: the int32
 * position of each of keys[0, m), all in [0, 64 nw), among the distinct keys
 * in increasing order, into out, as sl_lookup finds it in the keys' sorted
 * distinct values.  One pass sets each key's bit in words[0, nw), which the
 * caller zeroes, and a count of the set bits gives n' before any int32 is
 * written: where n' > limit (sparse_core.MAX_SUPPORT) it returns n' and
 * writes nothing more.  Else ranks[w] gets the bits set before word w, as
 * in Jacobson's rank directory, and each key's position is its word's rank
 * plus the bits set below it in its word.  Returns n'.  The bitmap and the
 * ranks take 12 bytes per 64 keys of the range: sparse_core.number takes
 * this path only where the range is at most DENSE times the keys. */
int64_t sl_number(const int64_t *keys, int64_t m, uint64_t *words, int64_t nw, int32_t *ranks,
                  int64_t limit, int32_t *out)
{
    int64_t n = 0;
    for (int64_t i = 0; i < m; i++)
        words[keys[i] >> 6] |= (uint64_t)1 << (keys[i] & 63);
    for (int64_t w = 0; w < nw; w++)
        n += __builtin_popcountll(words[w]);
    if (n > limit)
        return n;
    n = 0;
    for (int64_t w = 0; w < nw; w++) {
        ranks[w] = (int32_t)n;
        n += __builtin_popcountll(words[w]);
    }
    for (int64_t i = 0; i < m; i++) {
        uint64_t below = ((uint64_t)1 << (keys[i] & 63)) - 1;
        out[i] = ranks[keys[i] >> 6] + __builtin_popcountll(words[keys[i] >> 6] & below);
    }
    return n;
}

/* w . x + b for each of the m CSR rows x into out, w being the weights
 * w[0, n) of the support feats[0, n); dir and shift as sl_directory gives
 * them, so the rows of a file can be scored a block at a time under one
 * directory.  Each row sums w[position] * value over its indices that are
 * in the support, left to right from +0.0 as sparse_core.row_dots sums.
 * The rows' indices are int64 feature indices; the int32 directory finds
 * their positions.  An index that is not there has weight 0 and adds
 * nothing, whatever its value; losses.Scorer's fallback adds 0.0 * 0.0 for
 * it, which changes no sum that starts at +0.0 (such a sum is never -0.0). */
void sl_scores(const int64_t *feats, const double *w, int64_t n, double b, const int64_t *indptr,
               const int64_t *idx, const double *val, int64_t m, const int32_t *dir, int shift,
               double *out)
{
    int64_t last = n ? feats[n - 1] : -1, j = indptr[0], nnz = indptr[m], pos;
    for (int64_t r = 0; r < m; r++) {
        double d = 0.0;
        for (; j < indptr[r + 1]; j++) {
            if (j + 2 * AHEAD < nnz && idx[j + 2 * AHEAD] >= 0 && idx[j + 2 * AHEAD] <= last)
                __builtin_prefetch(&dir[idx[j + 2 * AHEAD] >> shift]);
            if (j + AHEAD < nnz && idx[j + AHEAD] >= 0 && idx[j + AHEAD] <= last)
                __builtin_prefetch(&feats[dir[idx[j + AHEAD] >> shift]]);
            pos = position(feats, dir, n, last, shift, idx[j]);
            if (pos < n)
                d += w[pos] * val[j];
        }
        out[r] = d + b;
    }
}

/* Shortest round-trip formatting: Giulietti's Schubfach ("The Schubfach way
 * to render doubles", 2020), as in Java's DoubleToDecimal, but with no
 * minimum of two digits.  A finite double v = c 2^q is written with the
 * fewest decimal digits that read back as v, and of those the nearest to v
 * (ties to an even last digit): what repr does.  sl_tens holds, for
 * k = -324..292, the 126-bit g = g1 2^63 + g0 = floor(10^-k 2^-r) + 1, r
 * chosen so that 2^125 <= 10^-k 2^-r < 2^126; _kernel.tens defines it. */
#define C_MIN (1ULL << 52)
#define Q_MIN (-1074)
#define MASK63 ((1ULL << 63) - 1)

/* floor(q log10 2), floor(log10(3/4 2^q)) and floor(e log2 10) for the |q|, |e| used here */
static int flog10pow2(int q) { return (int)(((int64_t)q * 661971961083LL) >> 41); }
static int flog10three_quarters_pow2(int q)
{
    return (int)(((int64_t)q * 661971961083LL - 274743187321LL) >> 41);
}
static int flog2pow10(int e) { return (int)(((int64_t)e * 913124641741LL) >> 38); }

/* cp g 2^-127 rounded to odd */
static uint64_t rop(uint64_t g1, uint64_t g0, uint64_t cp)
{
    unsigned __int128 y = (unsigned __int128)g1 * cp;
    uint64_t x1 = (uint64_t)(((unsigned __int128)g0 * cp) >> 64);
    uint64_t z = ((uint64_t)y >> 1) + x1;
    return ((uint64_t)(y >> 64) + (z >> 63)) | (((z & MASK63) + MASK63) >> 63);
}

/* The decimal f 10^*e chosen for c 2^q, returning f, which may end in zeros. */
static uint64_t shortest(int q, uint64_t c, int *e)
{
    uint64_t out = c & 1, cb = c << 2, cbr = cb + 2, cbl, vb, vbl, vbr, s, t;
    int k, h;
    if (c != C_MIN || q == Q_MIN) {
        cbl = cb - 2;
        k = flog10pow2(q);
    } else {  /* at a power of two the interval below v is half as wide */
        cbl = cb - 1;
        k = flog10three_quarters_pow2(q);
    }
    h = q + flog2pow10(-k) + 2;
    const uint64_t *g = sl_tens + 2 * (k + 324);
    vb = rop(g[0], g[1], cb << h);
    vbl = rop(g[0], g[1], cbl << h);
    vbr = rop(g[0], g[1], cbr << h);
    s = vb >> 2;
    *e = k;
    if (s >= 10) {  /* one digit less (Java starts at s >= 100, to keep two digits) */
        uint64_t sp = s / 10 * 10, tp = sp + 10;
        int upin = vbl + out <= sp << 2, wpin = (tp << 2) + out <= vbr;
        if (upin != wpin)
            return upin ? sp : tp;
    }
    t = s + 1;
    int uin = vbl + out <= s << 2, win = (t << 2) + out <= vbr;
    if (uin != win)
        return uin ? s : t;
    /* both are in: the nearer, or the even one at a tie (vb's two fraction bits are exact) */
    return (vb & 3) < 2 || ((vb & 3) == 2 && !(s & 1)) ? s : t;
}

/* The two digits of each of 00..99, so that decimal divides once per pair */
static const char digit_pairs[] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The decimal digits of f, written backwards to end; returns their start. */
static char *decimal(uint64_t f, char *end)
{
    for (; f >= 100; f /= 100) {
        end -= 2;
        memcpy(end, digit_pairs + 2 * (f % 100), 2);
    }
    if (f >= 10) {
        end -= 2;
        memcpy(end, digit_pairs + 2 * f, 2);
    } else {
        *--end = (char)('0' + f);
    }
    return end;
}

/* f / ten, adding zeros to *e, if f is a multiple of ten = 10^zeros, else f */
static uint64_t strip_zeros(uint64_t f, uint64_t ten, int zeros, int *e)
{
    if (f % ten)
        return f;
    *e += zeros;
    return f / ten;
}

/* The finite x at p as data_io.fmt_float writes it (repr without a final
 * ".0"); at most 24 bytes.  Returns the end. */
static char *format_double(double x, char *p)
{
    uint64_t bits, f;
    char digits[20], *d;
    int bq, e, n, point;
    memcpy(&bits, &x, sizeof bits);
    if (bits >> 63)
        *p++ = '-';
    bq = (int)(bits >> 52) & 0x7ff;
    f = bits & (C_MIN - 1);
    if (!bq && !f) {
        *p++ = '0';
        return p;
    }
    f = bq ? shortest(bq - 1075, C_MIN | f, &e) : shortest(Q_MIN, f, &e);
    /* f < 2^64 ends in at most 19 zeros: stripping 8, 8, 4, 2 and 1 of them,
     * each where they are there, strips any count up to 23 */
    f = strip_zeros(f, 100000000, 8, &e);
    f = strip_zeros(f, 100000000, 8, &e);
    f = strip_zeros(f, 10000, 4, &e);
    f = strip_zeros(f, 100, 2, &e);
    f = strip_zeros(f, 10, 1, &e);
    d = decimal(f, digits + sizeof digits);
    n = (int)(digits + sizeof digits - d);
    point = e + n;  /* x = 0.d 10^point */
    if (point <= -4 || point > 16) {
        *p++ = *d;
        if (n > 1) {
            *p++ = '.';
            memcpy(p, d + 1, n - 1);
            p += n - 1;
        }
        e = point - 1;
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        e = abs(e);
        if (e >= 100)
            *p++ = (char)('0' + e / 100);
        *p++ = (char)('0' + e / 10 % 10);
        *p++ = (char)('0' + e % 10);
    } else if (point <= 0) {  /* "0." and -point zeros */
        memcpy(p, "0.000", 2 - point);
        memcpy(p + 2 - point, d, n);
        p += 2 - point + n;
    } else if (point >= n) {
        memcpy(p, d, n);
        memset(p + n, '0', point - n);
        p += point;
    } else {
        memcpy(p, d, point);
        p[point] = '.';
        memcpy(p + point + 1, d + point, n - point);
        p += n + 1;
    }
    return p;
}

/* Lines of x[pos, end) into buf, as many whole ones as fit in cap bytes:
 * with feats, "<feats[i]>:<float>\n" for each nonzero x[i] (a model's weight
 * lines), with feats NULL "<float>\n" for every x[i]; each float as
 * format_double writes it, so every x must be finite.  *stop gets the index
 * of the first x not written.  Returns the bytes written. */
int64_t sl_format(const double *x, const int64_t *feats, int64_t pos, int64_t end, char *buf,
                  int64_t cap, int64_t *stop)
{
    char line[48], digits[20], *p, *d;  /* 19 digits, ':', 24 bytes of float and '\n' */
    int64_t used = 0;
    for (; pos < end; pos++) {
        if (feats && x[pos] == 0.0)
            continue;
        p = line;
        if (feats) {
            d = decimal((uint64_t)feats[pos], digits + sizeof digits);
            memcpy(p, d, digits + sizeof digits - d);
            p += digits + sizeof digits - d;
            *p++ = ':';
        }
        p = format_double(x[pos], p);
        *p++ = '\n';
        if (p - line > cap - used)
            break;
        memcpy(buf + used, line, p - line);
        used += p - line;
    }
    *stop = pos;
    return used;
}
