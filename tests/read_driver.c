/* Runs sl_weights of sparselin/_kernel.c over number tokens read from stdin,
 * for the sanitizer build in test_format.py.
 *
 * Usage: read_driver < input
 * The input holds one token per line.  Each token is read as the weight line
 * "0:<token>" from a malloc'ed buffer of exactly that line and its NUL, so a
 * read past the token is caught, and "<lines read> <bits of the weight>" is
 * written to stdout, the bits in hex.
 */
#include <inttypes.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int64_t sl_weights(const char *buf, int64_t pos, int64_t end, int64_t dim, double *w,
                   int64_t *st);

int main(void)
{
    uint64_t bits;
    char *token = NULL, *buf;
    size_t size = 0;
    ssize_t n;
    while ((n = getline(&token, &size, stdin)) > 0) {
        double w = 0.0;
        int64_t st[2] = {-1, 0};
        if (token[n - 1] == '\n')
            token[--n] = '\0';
        if (!(buf = malloc(n + 3)))
            return 2;
        memcpy(buf, "0:", 2);
        memcpy(buf + 2, token, n + 1);
        sl_weights(buf, 0, n + 2, 1, &w, st);
        memcpy(&bits, &w, sizeof bits);
        printf("%" PRId64 " %" PRIx64 "\n", st[1], bits);
        free(buf);
    }
    free(token);
    return 0;
}
