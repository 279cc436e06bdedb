/* Runs sl_lookup and sl_scores of sparselin/_kernel.c, for the sanitizer
 * build in test_format.py.
 *
 * Usage: lookup_driver < input
 * The input holds n, the n sorted distinct features, m and the m keys, in
 * decimal.  Writes each key's position, one per line.  Optionally a dataset
 * follows whose indices are the keys: r, the r + 1 entries of indptr in
 * decimal, then in hex the bits of the n weights, of the m values and of the
 * bias; sl_scores then writes the bits of each row's score in hex, one per
 * line.  The features, weights, directory (n + 1 entries), keys, values,
 * indptr, positions and scores are malloc'ed arrays of exactly their size,
 * so a read or write past one is caught.
 */
#include <inttypes.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

void sl_lookup(const int64_t *feats, int64_t n, const int64_t *keys, int64_t m, int64_t *dir,
               int64_t *out);
void sl_scores(const int64_t *feats, const double *w, int64_t n, double b, const int64_t *indptr,
               const int64_t *idx, const double *val, int64_t m, int64_t *dir, double *out);

static void *alloc(int64_t count)
{
    void *a = malloc((count ? count : 1) * 8);
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

int main(void)
{
    int64_t n, m, r, rows, one = 1, *feats = read_array(&n, 0, "%" SCNd64);
    int64_t *keys = read_array(&m, 0, "%" SCNd64), *dir = alloc(n + 1), *out = alloc(m);
    sl_lookup(feats, n, keys, m, dir, out);
    for (int64_t i = 0; i < m; i++)
        printf("%" PRId64 "\n", out[i]);
    if (scanf("%" SCNd64, &r) == 1 && r >= 0) {
        rows = r + 1;
        int64_t *indptr = read_array(&rows, 1, "%" SCNd64);
        double *w = read_array(&n, 1, "%" SCNx64), *val = read_array(&m, 1, "%" SCNx64);
        double *b = read_array(&one, 1, "%" SCNx64), *scores = alloc(r);
        uint64_t bits;
        sl_scores(feats, w, n, *b, indptr, keys, val, r, dir, scores);
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
