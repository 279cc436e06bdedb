/* Runs sl_scan, then sl_steps of sparselin/_kernel.c, for the sanitizer
 * build in test_format.py.
 *
 * Usage: steps_driver LOSS LAM T DIM AVERAGE SEED [THETA XBAR_0 ... XBAR_DIM-1] < data
 * The data are LIBSVM lines, the last without a line break.  They are read
 * into a malloc'ed buffer of exactly their bytes and a NUL, so the last
 * token ends at the NUL, and scanned into arrays of exactly as many rows as
 * the lines and nonzeros as the ':'s, the room sl_scan is given.  The loop then runs steps 1..T,
 * drawing rows from SEED, on malloc'ed copies of exactly the scanned size: u is
 * NULL unless AVERAGE is 1, xbar NULL unless THETA and DIM values follow
 * (the reals as C hex floats).  Written to stdout, one line each, in hex:
 * indptr, the indices, the bits of the values and of the labels, the largest
 * index read, the loop's result, and the bits of the state array, of v and
 * of u (empty without u).  The loop takes the indices as int32 positions,
 * each index its own (a copy of exactly nnz int32s).
 * Exits 3 when the scan stops before the end.
 */
#include <inttypes.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int64_t sl_scan(const char *buf, int64_t pos, int64_t end, int labeled, int64_t limit,
                int64_t base, int64_t *indptr, double *labels, int64_t *idx, double *val,
                int64_t *count);
int64_t sl_steps(uint64_t seed, int64_t m, const int64_t *indptr, const int32_t *idx,
                 const double *val, const double *labels, int loss, double lam,
                 double theta, const double *xbar, double *v, double *u, double *st,
                 int64_t t0, int64_t t1);

static void *copy(const void *src, size_t bytes)
{
    void *out = malloc(bytes ? bytes : 1);
    if (!out)
        exit(2);
    return memcpy(out, src, bytes);
}

static void print_words(const void *words, int64_t n)
{
    for (int64_t j = 0; j < n; j++) {
        uint64_t w;
        memcpy(&w, (const char *)words + 8 * j, 8);
        printf(j ? " %" PRIx64 : "%" PRIx64, w);
    }
    printf("\n");
}

int main(int argc, char **argv)
{
    size_t size = 0, cap = 4096;
    char *text = malloc(cap), *buf;
    int64_t lines = 1, colons = 0, count[3], rows, nnz;
    if (argc < 7 || !text)
        return 2;
    for (size_t got; (got = fread(text + size, 1, cap - size, stdin)) > 0;)
        if ((size += got) == cap && !(text = realloc(text, cap *= 2)))
            return 2;
    buf = copy(text, size + 1);
    buf[size] = '\0';
    for (size_t j = 0; j < size; j++) {
        lines += buf[j] == '\n';
        colons += buf[j] == ':';
    }
    count[0] = lines;
    count[1] = colons;
    count[2] = 0;
    int64_t *indptr = calloc(lines + 1, 8), *idx = malloc(8 * colons + 1);
    double *labels = malloc(8 * lines), *val = malloc(8 * colons + 1);
    if (!indptr || !idx || !labels || !val)
        return 2;
    int64_t dim = atoll(argv[4]);
    if (sl_scan(buf, 0, (int64_t)size, 1, dim, 0, indptr + 1, labels, idx, val, count) !=
        (int64_t)size)
        return 3;
    rows = count[0];
    nnz = count[1];
    print_words(indptr, rows + 1);
    print_words(idx, nnz);
    print_words(val, nnz);
    print_words(labels, rows);
    print_words(&count[2], 1);

    int64_t steps = atoll(argv[3]);
    double *v = calloc(dim, 8), *u = atoi(argv[5]) ? calloc(dim, 8) : NULL, *st = calloc(8, 8);
    double *xbar = NULL, theta = 0.0;
    if (argc == 8 + dim) {
        theta = strtod(argv[7], NULL);
        xbar = malloc(8 * dim);
        for (int64_t j = 0; j < dim; j++)
            xbar[j] = strtod(argv[8 + j], NULL);
    }
    int64_t *exact_indptr = copy(indptr, 8 * (rows + 1));
    int32_t *exact_idx = malloc(4 * nnz + 1);
    if (!exact_idx)
        return 2;
    for (int64_t j = 0; j < nnz; j++)
        exact_idx[j] = (int32_t)idx[j];
    double *exact_val = copy(val, 8 * nnz), *exact_labels = copy(labels, 8 * rows);
    int64_t bad = sl_steps(strtoull(argv[6], NULL, 10), rows, exact_indptr, exact_idx,
                           exact_val, exact_labels, atoi(argv[1]), strtod(argv[2], NULL), theta,
                           xbar, v, u, st, 1, steps + 1);
    print_words(&bad, 1);
    print_words(st, 8);
    print_words(v, dim);
    print_words(u, u ? dim : 0);
    free(exact_indptr), free(exact_idx), free(exact_val), free(exact_labels);
    free(xbar), free(st), free(u), free(v);
    free(val), free(labels), free(idx), free(indptr), free(buf), free(text);
    return 0;
}
