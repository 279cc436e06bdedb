/* Runs sl_format of sparselin/_kernel.c over doubles read from stdin, for the
 * sanitizer build in test_format.py.
 *
 * Usage: format_driver STRIDE CAP < input
 * The input holds the bit patterns of the doubles in hex.  With STRIDE 0 they
 * are formatted as plain lines, else as weight lines whose indices are
 * i * STRIDE, from a malloc'ed array of exactly one index per double.  The
 * lines go into a malloc'ed buffer of exactly CAP bytes, one call after
 * another, and are written to stdout, so a read or write past either array
 * is caught.  Exits 3 when a line does not fit in CAP.
 */
#include <inttypes.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int64_t sl_format(const double *x, const int64_t *feats, int64_t pos, int64_t end, char *buf,
                  int64_t cap, int64_t *stop);

int main(int argc, char **argv)
{
    uint64_t bits;
    int64_t n = 0, size = 16, pos = 0, stop, written, stride, *feats = NULL;
    double *x = malloc(size * sizeof *x);
    char *buf;
    if (argc != 3 || !x)
        return 2;
    while (scanf("%" SCNx64, &bits) == 1) {
        if (n == size && !(x = realloc(x, (size *= 2) * sizeof *x)))
            return 2;
        memcpy(&x[n++], &bits, sizeof bits);
    }
    stride = atoll(argv[1]);
    if (stride) {
        if (!(feats = malloc((n ? n : 1) * sizeof *feats)))
            return 2;
        for (int64_t i = 0; i < n; i++)
            feats[i] = i * stride;
    }
    int64_t cap = atoll(argv[2]);
    if (!(buf = malloc(cap)))
        return 2;
    while (pos < n) {
        written = sl_format(x, feats, pos, n, buf, cap, &stop);
        if (!written && stop < n)
            return 3;
        fwrite(buf, 1, written, stdout);
        pos = stop;
    }
    free(buf);
    free(feats);
    free(x);
    return 0;
}
