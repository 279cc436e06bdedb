/* Runs sl_lookup of sparselin/_kernel.c, for the sanitizer build in
 * test_format.py.
 *
 * Usage: lookup_driver < input
 * The input holds n, the n sorted distinct features, m and the m keys, in
 * decimal.  The features, the directory (n + 1 entries), the keys and the
 * positions are malloc'ed arrays of exactly their size, so a read or write
 * past one is caught.  Writes each key's position, one per line.
 */
#include <inttypes.h>
#include <stdio.h>
#include <stdlib.h>

void sl_lookup(const int64_t *feats, int64_t n, const int64_t *keys, int64_t m, int64_t *dir,
               int64_t *out);

/* count int64 values from stdin into a malloc'ed array of exactly that many */
static int64_t *read_array(int64_t *count)
{
    int64_t *a;
    if (scanf("%" SCNd64, count) != 1 || *count < 0)
        exit(2);
    if (!(a = malloc((*count ? *count : 1) * sizeof *a)))
        exit(2);
    for (int64_t i = 0; i < *count; i++)
        if (scanf("%" SCNd64, &a[i]) != 1)
            exit(2);
    return a;
}

int main(void)
{
    int64_t n, m, *feats = read_array(&n), *keys = read_array(&m);
    int64_t *dir = malloc((n + 1) * sizeof *dir), *out = malloc((m ? m : 1) * sizeof *out);
    if (!dir || !out)
        return 2;
    sl_lookup(feats, n, keys, m, dir, out);
    for (int64_t i = 0; i < m; i++)
        printf("%" PRId64 "\n", out[i]);
    free(out);
    free(dir);
    free(keys);
    free(feats);
    return 0;
}
