/* Runs sl_number of sparselin/_kernel.c, for the sanitizer build in
 * test_format.py.
 *
 * Usage: number_driver limit < input
 * The input holds dim, m and the m keys, each in [0, dim), in decimal.
 * Writes the count n' that sl_number returns, then each key's position,
 * one per line: -1 where sl_number wrote none (n' over limit).  The keys,
 * the bitmap's ceil(dim / 64) words, their int32 ranks and the m int32
 * positions are malloc'ed arrays of exactly their size, so a read or write
 * past one is caught.
 */
#include <inttypes.h>
#include <stdio.h>
#include <stdlib.h>

int64_t sl_number(const int64_t *keys, int64_t m, uint64_t *words, int64_t nw, int32_t *ranks,
                  int64_t limit, int32_t *out);

/* room for exactly count items of size bytes, zeroed */
static void *alloc(int64_t count, size_t size)
{
    void *a = calloc(count ? (size_t)count : 1, size);
    if (!a)
        exit(2);
    return a;
}

int main(int argc, char **argv)
{
    int64_t dim, m, nw, n, limit = argc > 1 ? atoll(argv[1]) : INT32_MAX;
    int64_t *keys;
    uint64_t *words;
    int32_t *ranks, *out;
    if (scanf("%" SCNd64 " %" SCNd64, &dim, &m) != 2 || dim < 0 || m < 0)
        return 2;
    keys = alloc(m, sizeof *keys);
    for (int64_t i = 0; i < m; i++)
        if (scanf("%" SCNd64, &keys[i]) != 1 || keys[i] < 0 || keys[i] >= dim)
            return 2;
    nw = (dim + 63) / 64;
    words = alloc(nw, sizeof *words);
    ranks = alloc(nw, sizeof *ranks);
    out = alloc(m, sizeof *out);
    for (int64_t i = 0; i < m; i++)
        out[i] = -1;
    n = sl_number(keys, m, words, nw, ranks, limit, out);
    printf("%" PRId64 "\n", n);
    for (int64_t i = 0; i < m; i++)
        printf("%" PRId32 "\n", out[i]);
    free(out), free(ranks), free(words), free(keys);
    return 0;
}
