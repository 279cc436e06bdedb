/* Runs sl_weights of sparselin/_kernel.c, for the sanitizer build in
 * test_format.py.
 *
 * Usage: read_driver < input
 * The input holds one token per line.  Each token is read as the weight line
 * "0:<token>" from a malloc'ed buffer of exactly that line and its NUL, so a
 * read past the token is caught, and "<lines read> <bits of the weight>" is
 * written to stdout, the bits in hex (0 when no line was read).
 *
 * Usage: read_driver block DIM [ROOM] < input
 * The whole input is one block of weight lines, below DIM, scanned from a
 * malloc'ed buffer of exactly its bytes and NUL into arrays of exactly ROOM
 * lines, by default as many as the input's ':'s, so a write past them is
 * caught.  Writes "<index> <bits of the weight>" for each line read, then
 * "<bytes scanned>".
 */
#include <inttypes.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int64_t sl_weights(const char *buf, int64_t pos, int64_t end, int64_t dim, int64_t *feats,
                   double *w, int64_t *st);

/* sl_weights over buf[0, end), into arrays of room for cap lines; prints
 * the lines read unless tokens, and returns where it stopped. */
static int64_t scan(const char *buf, int64_t end, int64_t dim, int64_t cap, int tokens)
{
    int64_t st[2] = {-1, cap}, stop;
    int64_t *feats = malloc((cap ? cap : 1) * sizeof *feats);
    double *w = malloc((cap ? cap : 1) * sizeof *w);
    uint64_t bits = 0;
    if (!feats || !w)
        exit(2);
    stop = sl_weights(buf, 0, end, dim, feats, w, st);
    for (int64_t i = 0; i < st[1]; i++) {
        memcpy(&bits, &w[i], sizeof bits);
        if (!tokens)
            printf("%" PRId64 " %" PRIx64 "\n", feats[i], bits);
    }
    if (tokens)
        printf("%" PRId64 " %" PRIx64 "\n", st[1], st[1] ? bits : 0);
    free(feats);
    free(w);
    return stop;
}

int main(int argc, char **argv)
{
    char *token = NULL, *buf;
    size_t size = 0, used = 0;
    ssize_t n;
    if ((argc == 3 || argc == 4) && !strcmp(argv[1], "block")) {
        if (!(buf = malloc(size = 64)))
            return 2;
        while ((n = (ssize_t)fread(buf + used, 1, size - used, stdin)) > 0)
            if ((used += (size_t)n) == size && !(buf = realloc(buf, size *= 2)))
                return 2;
        char *exact = malloc(used + 1);
        if (!exact)
            return 2;
        memcpy(exact, buf, used);
        exact[used] = '\0';
        int64_t colons = 0;
        for (size_t j = 0; j < used; j++)
            colons += exact[j] == ':';
        printf("%" PRId64 "\n", scan(exact, (int64_t)used, atoll(argv[2]),
                                     argc == 4 ? atoll(argv[3]) : colons, 0));
        free(exact);
        free(buf);
        return 0;
    }
    while ((n = getline(&token, &size, stdin)) > 0) {
        if (token[n - 1] == '\n')
            token[--n] = '\0';
        if (!(buf = malloc(n + 3)))
            return 2;
        memcpy(buf, "0:", 2);
        memcpy(buf + 2, token, n + 1);
        scan(buf, n + 2, 1, 1, 1);
        free(buf);
    }
    free(token);
    return 0;
}
