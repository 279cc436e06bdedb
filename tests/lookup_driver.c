/* Runs sl_directory, sl_lookup and sl_scores of sparselin/_kernel.c, for the
 * sanitizer build in test_format.py.
 *
 * Usage: lookup_driver [rows] < input
 * The input holds n, the n sorted distinct features, m and the m keys, in
 * decimal.  Writes each key's position, one per line.  Optionally a dataset
 * follows whose indices are the keys: r, the r + 1 entries of indptr in
 * decimal, then in hex the bits of the n weights, of the m values and of the
 * bias; sl_scores then writes the bits of each row's score in hex, one per
 * line.  It scores `rows` rows per call (default all r), each call over
 * copies of its rows' indptr (rebased to 0), indices and values, as
 * data_io's reader scores a file a block at a time, and every call shares
 * the one directory.  The features, weights, directory (n + 1 int32
 * positions), keys, values, indptr, the copies, the m int32 positions and
 * the scores are malloc'ed arrays of exactly their size, so a read or write
 * past one is caught.
 */
#include <inttypes.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int sl_directory(const int64_t *feats, int64_t n, int32_t *dir);
void sl_lookup(const int64_t *feats, int64_t n, const int64_t *keys, int64_t m,
               const int32_t *dir, int shift, int32_t *out);
void sl_scores(const int64_t *feats, const double *w, int64_t n, double b, const int64_t *indptr,
               const int64_t *idx, const double *val, int64_t m, const int32_t *dir, int shift,
               double *out);

static void *alloc(int64_t count)
{
    void *a = malloc((count ? count : 1) * 8);
    if (!a)
        exit(2);
    return a;
}

/* room for exactly count int32 positions, as sl_directory and sl_lookup write them */
static int32_t *positions(int64_t count)
{
    int32_t *a = malloc((count ? count : 1) * sizeof *a);
    if (!a)
        exit(2);
    return a;
}

/* count values from stdin, as fmt reads them, into a malloc'ed array of
 * exactly that many; unless known, count is read first, in decimal */
static void *read_array(int64_t *count, int known, const char *fmt)
{
    uint64_t *a;
    if (!known && (scanf("%" SCNd64, count) != 1 || *count < 0))
        exit(2);
    a = alloc(*count);
    for (int64_t i = 0; i < *count; i++)
        if (scanf(fmt, &a[i]) != 1)
            exit(2);
    return a;
}

/* sl_scores of rows [lo, hi) of the dataset, from copies of exactly their size */
static void score_rows(const int64_t *feats, const double *w, int64_t n, double b,
                       const int64_t *indptr, const int64_t *keys, const double *val,
                       const int32_t *dir, int shift, int64_t lo, int64_t hi, double *out)
{
    int64_t first = indptr[lo], nnz = indptr[hi] - first, *ptr = alloc(hi - lo + 1);
    int64_t *idx = alloc(nnz);
    double *v = alloc(nnz), *p = alloc(hi - lo);
    for (int64_t r = lo; r <= hi; r++)
        ptr[r - lo] = indptr[r] - first;
    memcpy(idx, keys + first, nnz * sizeof *idx);
    memcpy(v, val + first, nnz * sizeof *v);
    sl_scores(feats, w, n, b, ptr, idx, v, hi - lo, dir, shift, p);
    memcpy(out + lo, p, (hi - lo) * sizeof *p);
    free(p), free(v), free(idx), free(ptr);
}

int main(int argc, char **argv)
{
    int64_t n, m, r, rows, one = 1, *feats = read_array(&n, 0, "%" SCNd64);
    int64_t *keys = read_array(&m, 0, "%" SCNd64);
    int32_t *dir = positions(n + 1), *out = positions(m);
    int shift = sl_directory(feats, n, dir);
    sl_lookup(feats, n, keys, m, dir, shift, out);
    for (int64_t i = 0; i < m; i++)
        printf("%" PRId32 "\n", out[i]);
    if (scanf("%" SCNd64, &r) == 1 && r >= 0) {
        int64_t step = argc > 1 ? atoll(argv[1]) : r;
        rows = r + 1;
        int64_t *indptr = read_array(&rows, 1, "%" SCNd64);
        double *w = read_array(&n, 1, "%" SCNx64), *val = read_array(&m, 1, "%" SCNx64);
        double *b = read_array(&one, 1, "%" SCNx64), *scores = alloc(r);
        uint64_t bits;
        if (step < 1)
            step = 1;
        for (int64_t lo = 0; lo < r || lo == 0; lo += step)
            score_rows(feats, w, n, *b, indptr, keys, val, dir, shift, lo,
                       lo + step < r ? lo + step : r, scores);
        for (int64_t i = 0; i < r; i++) {
            memcpy(&bits, &scores[i], sizeof bits);
            printf("%" PRIx64 "\n", bits);
        }
        free(scores), free(b), free(val), free(w), free(indptr);
    }
    free(out);
    free(dir);
    free(keys);
    free(feats);
    return 0;
}
