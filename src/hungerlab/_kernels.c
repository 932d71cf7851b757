/* Compiled bodies of the three firing kernels in _kernels.py: greedy_run
 * (fire, optionally until a stop state), brent_cycle (find an orbit's
 * cycle) and reinsert_loop (fire with remove-and-reinsert steps).
 *
 * Each kernel is written once inside DEFINE_KERNELS and expanded for
 * int64_t (exact, hunger scaled by a common denominator) and double
 * (float mode), giving e.g. greedy_run_i64 and greedy_run_f64. The Python
 * side checks dtypes, shapes and contiguity before passing pointers.
 *
 * Firing must match np.argmax exactly: the first maximal index wins, found
 * with a strict '>'. State comparisons are elementwise '!=' so that -0.0
 * equals 0.0, as in numpy. Built with -fwrapv, so int64 overflow wraps as
 * numpy's does (the engine keeps scaled values far from the limits anyway).
 */

#include <stdint.h>
#include <string.h>

#define DEFINE_KERNELS(T, SUF)                                                 \
                                                                               \
static int64_t argmax_##SUF(const T *h, int64_t n)                             \
{                                                                              \
    int64_t best = 0;                                                          \
    for (int64_t j = 1; j < n; j++)                                            \
        if (h[j] > h[best])                                                    \
            best = j;                                                          \
    return best;                                                               \
}                                                                              \
                                                                               \
/* Fire the hungriest state and return its index. */                           \
static int64_t fire_##SUF(T *h, const T *rows, int64_t n)                      \
{                                                                              \
    int64_t i = argmax_##SUF(h, n);                                            \
    const T *row = rows + i * n;                                               \
    for (int64_t j = 0; j < n; j++)                                            \
        h[j] += row[j];                                                        \
    return i;                                                                  \
}                                                                              \
                                                                               \
static int same_##SUF(const T *a, const T *b, int64_t n)                       \
{                                                                              \
    for (int64_t j = 0; j < n; j++)                                            \
        if (a[j] != b[j])                                                      \
            return 0;                                                          \
    return 1;                                                                  \
}                                                                              \
                                                                               \
/* Fire up to `steps` times, stopping after the first fire at a state          \
 * whose stop entry is set. Returns the number of fires. */                    \
int64_t greedy_run_##SUF(T *h, const T *rows, int64_t n, int64_t steps,        \
                         int64_t *fired, int64_t *v, const uint8_t *stop)      \
{                                                                              \
    for (int64_t t = 0; t < steps; t++) {                                      \
        int64_t i = fire_##SUF(h, rows, n);                                    \
        fired[t] = i;                                                          \
        v[i] += 1;                                                             \
        if (stop[i])                                                           \
            return t + 1;                                                      \
    }                                                                          \
    return steps;                                                              \
}                                                                              \
                                                                               \
/* Brent's cycle detection on the firing orbit of h0. scratch holds 2n         \
 * entries (tortoise, then hare). Returns mu, stores lam and copies the        \
 * cycle-entry vector into h0; or returns -1, stores -1 and leaves h0 alone    \
 * if a phase would pass cap iterations. */                                    \
int64_t brent_cycle_##SUF(T *h0, const T *rows, int64_t n, int64_t cap,        \
                          T *scratch, int64_t *lam_out)                        \
{                                                                              \
    T *tortoise = scratch, *hare = scratch + n;                                \
    int64_t power = 1, lam = 1, mu = 0;                                        \
    size_t bytes = (size_t)n * sizeof(T);                                      \
    memcpy(tortoise, h0, bytes);                                               \
    memcpy(hare, h0, bytes);                                                   \
    fire_##SUF(hare, rows, n);                                                 \
    while (!same_##SUF(tortoise, hare, n)) {                                   \
        if (power == lam) {                                                    \
            memcpy(tortoise, hare, bytes);                                     \
            power *= 2;                                                        \
            lam = 0;                                                           \
        }                                                                      \
        fire_##SUF(hare, rows, n);                                             \
        lam += 1;                                                              \
        if (lam > cap)                                                         \
            goto capped;                                                       \
    }                                                                          \
    memcpy(tortoise, h0, bytes);                                               \
    memcpy(hare, h0, bytes);                                                   \
    for (int64_t t = 0; t < lam; t++)                                          \
        fire_##SUF(hare, rows, n);                                             \
    while (!same_##SUF(tortoise, hare, n)) {                                   \
        fire_##SUF(tortoise, rows, n);                                         \
        fire_##SUF(hare, rows, n);                                             \
        mu += 1;                                                               \
        if (mu > cap)                                                          \
            goto capped;                                                       \
    }                                                                          \
    memcpy(h0, tortoise, bytes);                                               \
    *lam_out = lam;                                                            \
    return mu;                                                                 \
capped:                                                                        \
    *lam_out = -1;                                                             \
    return -1;                                                                 \
}                                                                              \
                                                                               \
/* Combined fire / remove-and-reinsert walk; see reinsert_loop in              \
 * _kernels.py. extrema receives (min, max) over the initial state and every   \
 * step; returns the number of schedule entries used. */                       \
int64_t reinsert_loop_##SUF(T *h, const T *rows, int64_t n,                    \
                            const uint8_t *absorbing, T one,                   \
                            const int64_t *schedule, int64_t steps,            \
                            int64_t *fired, int64_t *v, T *extrema)            \
{                                                                              \
    int64_t si = 0;                                                            \
    int64_t chip = -2; /* -2 no chip yet, -1 in flight, >= 0 last fired */     \
    T lo = h[0], hi = h[0];                                                    \
    for (int64_t j = 0; j < n; j++) {                                          \
        if (h[j] < lo)                                                         \
            lo = h[j];                                                         \
        if (h[j] > hi)                                                         \
            hi = h[j];                                                         \
    }                                                                          \
    for (int64_t t = 0; t < steps; t++) {                                      \
        if (chip == -2 || (chip >= 0 && absorbing[chip])) {                    \
            if (chip >= 0)                                                     \
                h[chip] -= one;                                                \
            int64_t s = schedule[si++];                                        \
            const T *row = rows + s * n;                                       \
            for (int64_t j = 0; j < n; j++)                                    \
                h[j] += row[j];                                                \
            h[s] += one;                                                       \
            fired[t] = -1;                                                     \
            chip = -1;                                                         \
        } else {                                                               \
            int64_t i = fire_##SUF(h, rows, n);                                \
            fired[t] = i;                                                      \
            v[i] += 1;                                                         \
            chip = i;                                                          \
        }                                                                      \
        for (int64_t j = 0; j < n; j++) {                                      \
            if (h[j] < lo)                                                     \
                lo = h[j];                                                     \
            if (h[j] > hi)                                                     \
                hi = h[j];                                                     \
        }                                                                      \
    }                                                                          \
    extrema[0] = lo;                                                           \
    extrema[1] = hi;                                                           \
    return si;                                                                 \
}

DEFINE_KERNELS(int64_t, i64)
DEFINE_KERNELS(double, f64)
