/* Compiled bodies of the two firing kernels in _kernels.py: greedy_run
 * (fire, optionally until a stop state, or the remove-and-reinsert walk
 * given a schedule) and brent_cycle (find an orbit's cycle); of the
 * rotor-router walk, rotor_walk, after them; and of the CSV row writer,
 * csv_rows, at the end of this file, whose four field kinds write labels,
 * reduced fractions, deviations from p/q and float64 cells (the bytes of
 * Python's repr, from Schubfach's shortest digits: see put_double).
 *
 * Each kernel is written once inside DEFINE_KERNELS and expanded for
 * int64_t (exact, the engine's integer keys) and double (float mode),
 * giving e.g. greedy_run_i64 and greedy_run_f64. The Python side checks
 * dtypes, shapes and contiguity before passing pointers; the kernels check
 * that the CSR arrays stay in bounds themselves (rows_ok), in O(n + nnz),
 * and return a failure code (below -1) for input they refuse. The
 * reference bodies in _kernels.py refuse the same input with the error
 * _FAILURE gives for that code.
 *
 * Rows are CSR: row i holds values[indptr[i] .. indptr[i+1]) at the columns
 * in indices[...], strictly ascending, so no column is listed twice
 * (SparseRows checks that when it is made; the engine keeps the diagonal in
 * every row).
 * Firing state i adds its row to those columns only. The hungriest state is
 * read off a max tournament tree over blocks of BLOCK consecutive states,
 * with `leaves` (a power of two) leaves: tree[leaves + b] is the first
 * maximal state of block b, found by a linear scan with a strict '>', and
 * tree[k] the winner of tree[2k] and tree[2k+1], so tree[1] names the
 * hungriest state. Nodes carry their state's hunger, so the tree is read
 * without touching h. Left children cover lower states and a tie goes to
 * the left, so the tree names the first maximal index, exactly as np.argmax
 * does; leaves past the last block hold LOWEST and never win. A fire adds
 * its row an entry at a time (add): an entry whose hunger rose takes its
 * block's leaf or leaves it be, in O(1), and one whose hunger fell has its
 * block rescanned; a leaf that changed has its path replayed. In a row of
 * H = P - I only the diagonal falls, so a step costs one block rescan and
 * one replay for the fired state's block, and O(1) plus at most one replay
 * for each other entry: O(BLOCK + deg * log(n / BLOCK)), against O(n) for
 * a dense argmax. A chain with n <= BLOCK is one block, whose leaf is the
 * root: a fire adds the row and rescans that block, as the dense argmax
 * did. The tree's memory is allocated here, once per call. greedy_run's
 * walk is inlined thrice: with its extrema tracked (O(1) a step), and
 * without, with or without the orbit check; a run tests only what it keeps.
 *
 * A greedy_run without a schedule stops firing once h repeats: the paper's
 * lemma keeps every hunger at or above h_min - 1 while the total is
 * conserved, so int64 keys stay in a finite set and every orbit (a float
 * one: the rounded map's) is eventually periodic. A fire moves the hash
 * H = sum_j z_j bits(h[j]) mod 2^64, less its start value, by the entries
 * it touches; the walk copies h at every power of two >= n fires (Brent).
 * When H and then h equal the copy again, p fires on, a run with stop
 * states ends (its orbit never fires one); an int64 run without them
 * writes the remaining whole periods as fired[k] = fired[k - p], adds
 * their counts to v and fires the last (steps - t) mod p, as the full walk
 * would. A float run without stop states fires every step, since
 * whether its rounded orbit closes, and so its cost, varies tenfold from
 * chain to chain. brent_cycle's tortoise and hare compare the same way;
 * the reinsertion walk fires every step.
 *
 * Signed zeros: a dense fire added +0.0 to every column, which turned a
 * -0.0 hunger into +0.0. Untouched columns are not added to here, so each
 * kernel rewrites -0.0 as +0.0 once, before its first fire, and firing
 * never makes a -0.0 again (x + y is -0.0 only when both are). State
 * comparisons are elementwise '!=' so that -0.0 equals 0.0, as in numpy.
 * Built with -fwrapv, so int64 overflow wraps as numpy's does (the engine
 * keeps its keys far from the limits anyway).
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define BLOCK 8
#define BAD_ROWS (-2)  /* indptr or indices do not describe n rows */
#define NO_MEMORY (-3) /* the tree could not be allocated */

/* There is at least one state, indptr runs from 0 up to nnz without
 * decreasing, and every index names one of the n states. */
static int rows_ok(const int64_t *indptr, const int64_t *indices, int64_t n,
                   int64_t nnz)
{
    if (n < 1 || indptr[0] != 0 || indptr[n] != nnz)
        return 0;
    for (int64_t i = 0; i < n; i++)
        if (indptr[i + 1] < indptr[i])
            return 0;
    for (int64_t k = 0; k < nnz; k++)
        if (indices[k] < 0 || indices[k] >= n)
            return 0;
    return 1;
}

/* Leaves of the tree over n states: a power of two >= the blocks. */
static int64_t leaves(int64_t n)
{
    int64_t count = 1;
    while (count * BLOCK < n)
        count *= 2;
    return count;
}

/* State j's weight in the orbit hash: odd (any serve; h confirms a match). */
static inline uint64_t weight(int64_t j)
{
    uint64_t z = (uint64_t)j * 0x9E3779B97F4A7C15u;
    return (z ^ z >> 29) | 1;
}

/* At step t, h is what it was p steps before: repeat those p fires in fired
 * and v as often as they fit before `steps`. Returns the step reached. */
static int64_t repeat(int64_t *fired, int64_t *v, int64_t t, int64_t p,
                      int64_t steps)
{
    int64_t q = (steps - t) / p, end = t + q * p;
    for (int64_t k = t - p; k < t; k++)
        v[fired[k]] += q;
    for (; t < end; t++)
        fired[t] = fired[t - p];
    return t;
}

#define DEFINE_KERNELS(T, SUF, LOWEST)                                         \
                                                                               \
typedef struct {                                                               \
    const int64_t *indptr, *indices;                                           \
    const T *values;                                                           \
    int64_t n, leaves; /* leaves: a power of two >= the number of blocks */    \
} rows_##SUF;                                                                  \
                                                                               \
typedef struct {                                                               \
    T h; /* the hunger of state i, copied for the comparisons */               \
    int64_t i;                                                                 \
} node_##SUF;                                                                  \
                                                                               \
static void unsign_zeros_##SUF(T *h, int64_t n)                                \
{                                                                              \
    for (int64_t j = 0; j < n; j++)                                            \
        if (h[j] == 0)                                                         \
            h[j] = 0;                                                          \
}                                                                              \
                                                                               \
/* h[j] += x; *hash, unless NULL, moves with H (memcpy: no aliasing cast). */  \
static inline void move_##SUF(T *h, int64_t j, T x, uint64_t *hash)            \
{                                                                              \
    uint64_t old, new;                                                         \
    memcpy(&old, h + j, sizeof old);                                           \
    h[j] += x;                                                                 \
    memcpy(&new, h + j, sizeof new);                                           \
    if (hash != NULL)                                                          \
        *hash += weight(j) * (new - old);                                      \
}                                                                              \
                                                                               \
/* The first maximal state of block b, or a node that never wins when the      \
 * block lies past the last state. */                                          \
static node_##SUF block_max_##SUF(const T *h, const rows_##SUF *r, int64_t b)  \
{                                                                              \
    int64_t best = b * BLOCK;                                                  \
    int64_t end = best + BLOCK < r->n ? best + BLOCK : r->n;                   \
    if (best >= end)                                                           \
        return (node_##SUF){LOWEST, -1};                                       \
    T top = h[best];                                                           \
    for (int64_t j = best + 1; j < end; j++) {                                 \
        int up = h[j] > top;                                                   \
        best = up ? j : best;                                                  \
        top = up ? h[j] : top;                                                 \
    }                                                                          \
    return (node_##SUF){top, best};                                            \
}                                                                              \
                                                                               \
/* Left children cover lower states, so a tie goes to the left one. */         \
static node_##SUF winner_##SUF(const node_##SUF *tree, int64_t k)              \
{                                                                              \
    return tree[2 * k + 1].h > tree[2 * k].h ? tree[2 * k + 1] : tree[2 * k];  \
}                                                                              \
                                                                               \
static void build_##SUF(const T *h, node_##SUF *tree, const rows_##SUF *r)     \
{                                                                              \
    for (int64_t b = 0; b < r->leaves; b++)                                    \
        tree[r->leaves + b] = block_max_##SUF(h, r, b);                        \
    for (int64_t k = r->leaves - 1; k > 0; k--)                                \
        tree[k] = winner_##SUF(tree, k);                                       \
}                                                                              \
                                                                               \
/* Set leaf k to w and, unless that changes nothing, replay its path to the    \
 * root. The climb has no early exit: a fire changes the root (the fired       \
 * state was the root), so most paths change all the way up, and a test per    \
 * level is a branch that orbits which do not repeat keep mispredicting. */    \
static void retree_##SUF(node_##SUF *tree, int64_t k, node_##SUF w)            \
{                                                                              \
    if (w.i == tree[k].i && w.h == tree[k].h)                                  \
        return;                                                                \
    tree[k] = w;                                                               \
    for (k >>= 1; k > 0; k >>= 1) {                                            \
        node_##SUF left = tree[2 * k], right = tree[2 * k + 1];                \
        int up = right.h > left.h; /* as in winner, without a branch */        \
        tree[k].h = up ? right.h : left.h;                                     \
        tree[k].i = up ? right.i : left.i;                                     \
    }                                                                          \
}                                                                              \
                                                                               \
/* Add vals[0 .. len) to h at cols[0 .. len), updating the tree an entry at    \
 * a time, and move *hash as move does. An entry that rose takes its           \
 * block's leaf in O(1) if it is the leaf already, is now hungrier, or ties    \
 * it with a lower index; otherwise nothing changes. An entry that did not     \
 * rise (a fall, an int64 add that wrapped, a NaN) has its block rescanned.    \
 * In a row of H = P - I only the diagonal falls, so a fire rescans one        \
 * block, the fired state's. */                                                \
static void add_##SUF(T *h, node_##SUF *tree, const rows_##SUF *r,             \
                      const int64_t *cols, const T *vals, int64_t len,         \
                      uint64_t *hash)                                          \
{                                                                              \
    for (int64_t k = 0; k < len; k++) {                                        \
        int64_t j = cols[k], b = j / BLOCK;                                    \
        T old = h[j];                                                          \
        move_##SUF(h, j, vals[k], hash);                                       \
        T x = h[j];                                                            \
        node_##SUF w = tree[r->leaves + b];                                    \
        if (!(x >= old))                                                       \
            retree_##SUF(tree, r->leaves + b, block_max_##SUF(h, r, b));       \
        else if (j == w.i || x > w.h || (x == w.h && j < w.i))                 \
            retree_##SUF(tree, r->leaves + b, (node_##SUF){x, j});             \
    }                                                                          \
}                                                                              \
                                                                               \
/* Fire the hungriest state, move *hash as add does, return its index. A      \
 * single-block chain rescans its one block with a branch per state, as the    \
 * dense argmax did: greedy orbits are mostly periodic, so the branches are    \
 * predicted and the next fire's row is read before the compares resolve.      \
 * The empty asm keeps the compiler from turning the branch into a             \
 * conditional move. The root's hunger is left stale there (see walk).         \
 * Inline: a call per fire costs about as much as a small chain's fire. */     \
static inline int64_t fire_##SUF(T *h, node_##SUF *tree,                       \
                                  const rows_##SUF *r, uint64_t *hash)         \
{                                                                              \
    int64_t i = tree[1].i, a = r->indptr[i];                                   \
    if (r->leaves > 1) {                                                       \
        add_##SUF(h, tree, r, r->indices + a, r->values + a,                   \
                  r->indptr[i + 1] - a, hash);                                 \
        return i;                                                              \
    }                                                                          \
    for (; a < r->indptr[i + 1]; a++)                                          \
        move_##SUF(h, r->indices[a], r->values[a], hash);                      \
    int64_t best = 0;                                                          \
    for (int64_t j = 1; j < r->n; j++)                                         \
        if (h[j] > h[best]) {                                                  \
            best = j;                                                          \
            __asm__("");                                                       \
        }                                                                      \
    tree[1].i = best;                                                          \
    return i;                                                                  \
}                                                                              \
                                                                               \
/* Called on a match of a and b's orbit hashes only. */                        \
static int same_##SUF(const T *a, const T *b, int64_t n)                       \
{                                                                              \
    for (int64_t j = 0; j < n; j++)                                            \
        if (a[j] != b[j])                                                      \
            return 0;                                                          \
    return 1;                                                                  \
}                                                                              \
                                                                               \
static void track_##SUF(T x, T *lo, T *hi)                                     \
{                                                                              \
    if (x < *lo)                                                               \
        *lo = x;                                                               \
    if (x > *hi)                                                               \
        *hi = x;                                                               \
}                                                                              \
                                                                               \
/* The walk of greedy_run in _kernels.py, on a built tree. An insertion        \
 * (m >= 1) first takes the chip off k, the state fired last (k = i on the     \
 * first step, which takes nothing off) and rescans k's block, then adds row   \
 * i and the chip at i through add. On one block that rescan also renews the   \
 * root's hunger, which the fires leave stale, before add compares against     \
 * it (on the first step the tree is freshly built). With track set, lo and    \
 * hi take the entries a step can move past them, for the rows of H = P - I    \
 * (the diagonal is their only negative entry): a fire lowers only the fired   \
 * entry, an insertion k and the inserted one, and h[tree[1].i] is the         \
 * largest entry. track is a literal at each call, so the untracked walk       \
 * never tests it. Given copy and next >= 0 (m = 0), it hashes h and stops     \
 * once h repeats (see the header); a literal NULL copy compiles both out. */  \
static inline __attribute__((always_inline)) int64_t walk_##SUF(               \
    T *h, node_##SUF *tree, const rows_##SUF *r, int64_t steps,                \
    int64_t *fired, int64_t *v, const uint8_t *stop, T one,                    \
    const int64_t *schedule, int64_t m, T *lo, T *hi, const int track,         \
    T *copy, int64_t next)                                                     \
{                                                                              \
    int64_t t = 0, si = 0, at = -1; /* at: the step copied, -1 for none */     \
    uint64_t hash = 0, mark = 0; /* H less its value at the start */           \
    while (t < steps) {                                                        \
        if (m > 0) {                                                           \
            int64_t i = schedule[si++ % m], k = t > 0 ? fired[t - 1] : i;      \
            int64_t a = r->indptr[i], b = k / BLOCK;                           \
            if (t > 0) {                                                       \
                h[k] -= one;                                                   \
                retree_##SUF(tree, r->leaves + b, block_max_##SUF(h, r, b));   \
            }                                                                  \
            add_##SUF(h, tree, r, r->indices + a, r->values + a,               \
                      r->indptr[i + 1] - a, NULL);                             \
            add_##SUF(h, tree, r, &i, &one, 1, NULL);                          \
            fired[t++] = -1;                                                   \
            if (track) {                                                       \
                track_##SUF(h[k], lo, hi);                                     \
                track_##SUF(h[i], lo, hi);                                     \
                track_##SUF(h[tree[1].i], lo, hi);                             \
            }                                                                  \
        }                                                                      \
        while (t < steps) {                                                    \
            int64_t i = fire_##SUF(h, tree, r, copy ? &hash : NULL);           \
            fired[t++] = i;                                                    \
            v[i] += 1;                                                         \
            if (track) {                                                       \
                track_##SUF(h[i], lo, hi);                                     \
                track_##SUF(h[tree[1].i], lo, hi);                             \
            }                                                                  \
            if (stop[i])                                                       \
                break;                                                         \
            if (copy && at >= 0 && hash == mark && same_##SUF(h, copy, r->n)) {\
                if (memchr(stop, 1, (size_t)r->n) != NULL)                     \
                    break; /* its orbit never fires a stop state */            \
                t = repeat(fired, v, t, t - at, steps);                        \
                at = next = -1;                                                \
            }                                                                  \
            if (copy && t == next) {                                           \
                memcpy(copy, h, (size_t)r->n * sizeof *h);                     \
                mark = hash;                                                   \
                at = t;                                                        \
                next *= 2;                                                     \
            }                                                                  \
        }                                                                      \
        if (m == 0)                                                            \
            break;                                                             \
    }                                                                          \
    return t;                                                                  \
}                                                                              \
                                                                               \
/* See greedy_run in _kernels.py. extrema, when not NULL, receives the min     \
 * and max over the start and every step. Returns the steps taken. */          \
int64_t greedy_run_##SUF(T *h, const int64_t *indptr, const int64_t *indices,  \
                         const T *values, int64_t n, int64_t nnz,              \
                         int64_t steps, int64_t *fired, int64_t *v,            \
                         const uint8_t *stop, T one, const int64_t *schedule,  \
                         int64_t m, T *extrema)                                \
{                                                                              \
    if (!rows_ok(indptr, indices, n, nnz))                                     \
        return BAD_ROWS;                                                       \
    rows_##SUF r = {indptr, indices, values, n, leaves(n)};                    \
    int64_t next = 1; /* the orbit check's first copy of h */                  \
    while (next < n)                                                           \
        next *= 2;                                                             \
    size_t copied = m == 0 && steps > next /* (T)0.5 is 0 for int64 only */    \
        && ((T)0.5 == 0 || memchr(stop, 1, (size_t)n)) ? (size_t)n : 0;        \
    node_##SUF *tree = malloc(2 * r.leaves * sizeof *tree +                    \
                              copied * sizeof(T));                             \
    if (tree == NULL)                                                          \
        return NO_MEMORY;                                                      \
    T *copy = copied ? (T *)(tree + 2 * r.leaves) : NULL;                      \
    next = copied ? next : -1;                                                 \
    T lo = h[0], hi = h[0];                                                    \
    for (int64_t j = 0; extrema != NULL && j < n; j++)                         \
        track_##SUF(h[j], &lo, &hi);                                           \
    if (steps > 0)                                                             \
        unsign_zeros_##SUF(h, n);                                              \
    build_##SUF(h, tree, &r);                                                  \
    int64_t t = extrema != NULL                                                \
        ? walk_##SUF(h, tree, &r, steps, fired, v, stop, one, schedule, m,     \
                     &lo, &hi, 1, copy, next)                                  \
        : copy != NULL                                                         \
        ? walk_##SUF(h, tree, &r, steps, fired, v, stop, one, schedule, m,     \
                     &lo, &hi, 0, copy, next)                                  \
        : walk_##SUF(h, tree, &r, steps, fired, v, stop, one, schedule, m,     \
                     &lo, &hi, 0, NULL, -1);                                   \
    free(tree);                                                                \
    if (extrema != NULL) {                                                     \
        extrema[0] = lo;                                                       \
        extrema[1] = hi;                                                       \
    }                                                                          \
    return t;                                                                  \
}                                                                              \
                                                                               \
/* Brent's cycle detection on the firing orbit of h0. Returns mu, stores       \
 * lam and copies the cycle-entry vector into h0 (h0 itself when mu is 0);     \
 * or returns -1, stores -1 and leaves h0 alone if a phase would pass cap      \
 * iterations. Phase one needs no tree for the tortoise, which never fires     \
 * there; phase two builds one for each. Both start with -0.0 rewritten, so    \
 * equal states have equal hashes. When order is not NULL and lam <= len,      \
 * the tortoise then fires the lam steps of one period, which bring it back    \
 * to the cycle entry, and writes them into order. */                          \
int64_t brent_cycle_##SUF(T *h0, const int64_t *indptr,                        \
                          const int64_t *indices, const T *values, int64_t n,  \
                          int64_t nnz, int64_t cap, int64_t *lam_out,          \
                          int64_t *order, int64_t len)                         \
{                                                                              \
    *lam_out = -1;                                                             \
    if (!rows_ok(indptr, indices, n, nnz))                                     \
        return BAD_ROWS;                                                       \
    rows_##SUF r = {indptr, indices, values, n, leaves(n)};                    \
    node_##SUF *tortoise_tree =                                                \
        malloc(4 * r.leaves * sizeof *tortoise_tree + 2 * n * sizeof(T));      \
    if (tortoise_tree == NULL)                                                 \
        return NO_MEMORY;                                                      \
    node_##SUF *hare_tree = tortoise_tree + 2 * r.leaves;                      \
    T *tortoise = (T *)(hare_tree + 2 * r.leaves), *hare = tortoise + n;       \
    int64_t power = 1, lam = 1, mu = 0;                                        \
    size_t bytes = (size_t)n * sizeof(T);                                      \
    memcpy(hare, h0, bytes);                                                   \
    unsign_zeros_##SUF(hare, n);                                               \
    memcpy(tortoise, hare, bytes);                                             \
    uint64_t mark = 0, hash = 0; /* H less its value at h0 */                  \
    build_##SUF(hare, hare_tree, &r);                                          \
    fire_##SUF(hare, hare_tree, &r, &hash);                                    \
    while (hash != mark || !same_##SUF(hare, tortoise, n)) {                   \
        if (power == lam) {                                                    \
            memcpy(tortoise, hare, bytes);                                     \
            mark = hash;                                                       \
            power *= 2;                                                        \
            lam = 0;                                                           \
        }                                                                      \
        fire_##SUF(hare, hare_tree, &r, &hash);                                \
        lam += 1;                                                              \
        if (lam > cap)                                                         \
            goto capped;                                                       \
    }                                                                          \
    memcpy(tortoise, h0, bytes);                                               \
    unsign_zeros_##SUF(tortoise, n);                                           \
    memcpy(hare, tortoise, bytes);                                             \
    mark = hash = 0;                                                           \
    build_##SUF(tortoise, tortoise_tree, &r);                                  \
    build_##SUF(hare, hare_tree, &r);                                          \
    for (int64_t t = 0; t < lam; t++)                                          \
        fire_##SUF(hare, hare_tree, &r, &hash);                                \
    while (hash != mark || !same_##SUF(hare, tortoise, n)) {                   \
        fire_##SUF(tortoise, tortoise_tree, &r, &mark);                        \
        fire_##SUF(hare, hare_tree, &r, &hash);                                \
        mu += 1;                                                               \
        if (mu > cap)                                                          \
            goto capped;                                                       \
    }                                                                          \
    for (int64_t t = 0; order != NULL && lam <= len && t < lam; t++)           \
        order[t] = fire_##SUF(tortoise, tortoise_tree, &r, &mark);             \
    if (mu > 0)                                                                \
        memcpy(h0, tortoise, bytes);                                           \
    *lam_out = lam;                                                            \
    free(tortoise_tree);                                                       \
    return mu;                                                                 \
capped:                                                                        \
    free(tortoise_tree);                                                       \
    return -1;                                                                 \
}

DEFINE_KERNELS(int64_t, i64, INT64_MIN)
DEFINE_KERNELS(double, f64, -HUGE_VAL)

/* The rotor-router walk behind rotor_walk in _kernels.py, int64 only. The
 * rotor of state x cycles the runs run_ptr[x] .. run_ptr[x + 1] (CSR, as
 * rows_ok checks them, in any order): counts[k] slots pointing at
 * targets[k]. It points into run at[x] with left[x] slots of it left. Walks
 * N steps from path[0] into path[1 .. N], leaving at and left at the final
 * rotors; returns N, or BAD_RUNS when the arrays do not describe n states'
 * rotors. */
#define BAD_RUNS (-7)
int64_t rotor_walk(int64_t *path, int64_t N, const int64_t *run_ptr,
                   const int64_t *targets, const int64_t *counts, int64_t n,
                   int64_t runs, int64_t *at, int64_t *left)
{
    if (!rows_ok(run_ptr, targets, n, runs) || path[0] < 0 || path[0] >= n)
        return BAD_RUNS;
    for (int64_t k = 0; k < runs; k++)
        if (counts[k] < 1)
            return BAD_RUNS;
    for (int64_t i = 0; i < n; i++)
        if (at[i] < run_ptr[i] || at[i] >= run_ptr[i + 1] || left[i] < 1 ||
            left[i] > counts[at[i]])
            return BAD_RUNS;
    for (int64_t t = 0, x = path[0]; t < N; t++) {
        int64_t k = at[x];
        path[t + 1] = targets[k];
        if (--left[x] == 0) {
            at[x] = k + 1 < run_ptr[x + 1] ? k + 1 : run_ptr[x];
            left[x] = counts[at[x]];
        }
        x = path[t + 1];
    }
    return N;
}

/* The CSV row writer behind csv_rows in _kernels.py. A row is its fields
 * joined by ',' and ended by '\n'; a field is one of four kinds:
 *   LABELS: label num[r] from a table of k labels, stored back to back in
 *           text with label j at text[ends[j] .. ends[j + 1]); -1 writes
 *           nothing. A constant text is a table of one label, index 0;
 *   RATIOS: k cells num[r * k + c] / den[r] (or / scalar when den is
 *           NULL), joined by sep, each reduced by their gcd and written as
 *           "a" or "a/b" (b > 1), as Python writes the reduced Fraction;
 *   FLOATS: k float64 cells num[r * k + c] (num points at doubles), joined
 *           by sep, each written as Python's repr writes it (put_double);
 *   DEVIATIONS: one cell scale[r] |num[r] q - p den[r]| / (den[r] q), p / q
 *           in lowest terms and scale NULL for 1, as RATIOS cells are; in
 *           __int128, since the caller has checked that q > 0 and that
 *           m^2 max(|p|, q) < 2^126, m the largest |num|, den or |scale|.
 * Numerators are formatted from their uint64 magnitudes, so INT64_MIN comes
 * out as Python's str gives it. A RATIOS or FLOATS cell takes at most
 * CELL_MAX bytes. */

enum { LABELS, RATIOS, FLOATS, DEVIATIONS };
#define BAD_DEN (-4)   /* a denominator <= 0 */
#define BAD_LABEL (-5) /* a label index outside -1 .. k - 1 */
#define NO_ROOM (-6)   /* the buffer cannot hold one more row */
#define CELL_MAX 40    /* "-", 19 digits, "/", 19 digits; a float: 24 */
#define CELL128_MAX 80 /* DEVIATIONS: "-", 39 digits, "/", 39 digits */

typedef unsigned __int128 u128;

typedef struct {
    int64_t kind, k;
    const int64_t *num, *den;
    int64_t scalar;
    const char *text;
    const int64_t *ends;
    int64_t sep;
    uint64_t p[2], q[2]; /* DEVIATIONS: two's complement, low word first */
    const int64_t *scale;
    const uint64_t *g; /* FLOATS: put_double's table */
} field;

/* Binary gcd: both odd, then the odd part of their difference replaces the
 * larger, with no branch on which is larger. */
static uint64_t gcd_u64(uint64_t a, uint64_t b) /* b > 0 */
{
    if (a == 0)
        return b;
    int shift = __builtin_ctzll(a | b);
    a >>= __builtin_ctzll(a);
    b >>= __builtin_ctzll(b);
    while (a != b) {
        uint64_t d = a > b ? a - b : b - a;
        a = a < b ? a : b;
        b = d >> __builtin_ctzll(d);
    }
    return a << shift;
}

static char *put_u64(char *p, uint64_t x)
{
    char digits[20], *q = digits + sizeof digits;
    do {
        *--q = (char)('0' + x % 10);
        x /= 10;
    } while (x != 0);
    size_t len = (size_t)(digits + sizeof digits - q);
    memcpy(p, q, len);
    return p + len;
}

/* a / d, d > 0, reduced. */
static char *put_ratio(char *p, int64_t a, int64_t d)
{
    uint64_t m = a < 0 ? 0 - (uint64_t)a : (uint64_t)a, b = (uint64_t)d;
    if (b != 1) {
        uint64_t g = gcd_u64(m, b);
        m /= g;
        b /= g;
    }
    if (a < 0)
        *p++ = '-';
    p = put_u64(p, m);
    if (b != 1) {
        *p++ = '/';
        p = put_u64(p, b);
    }
    return p;
}

static char *put_u128(char *p, u128 x)
{
    if (x >> 64 == 0)
        return put_u64(p, (uint64_t)x);
    uint64_t low = (uint64_t)(x % 10000000000000000000u);
    p = put_u128(p, x / 10000000000000000000u);
    for (int i = 18; i >= 0; i--, low /= 10)
        p[i] = (char)('0' + low % 10);
    return p + 19;
}

/* s |a q - pn d| / (d q), reduced, for d > 0 and pn / q (from its words) in
 * lowest terms with q > 0: as a RATIOS cell when the numerator and d q fit
 * int64, and otherwise with 64-bit gcds. gcd(x, d q) = g1 g2 for
 * g1 = gcd(x mod d, d) and g2 = gcd(x / g1 mod e, e), as e = gcd(d, q) is
 * gcd(x, q); then s x / m needs only gcd(s, m). s is NULL for 1. */
static char *put_deviation(char *p, int64_t a, int64_t d, const uint64_t *pw,
                           const uint64_t *qw, const int64_t *s)
{
    u128 q = (u128)qw[1] << 64 | qw[0], pn = (u128)pw[1] << 64 | pw[0];
    __int128 t = (__int128)a * (__int128)q - (__int128)pn * d;
    u128 x = t < 0 ? -(u128)t : (u128)t, dq = (u128)d * q;
    uint64_t sm = s == NULL ? 1 : *s < 0 ? 0 - (uint64_t)*s : (uint64_t)*s;
    if (s != NULL && *s < 0 && x != 0)
        *p++ = '-';
    if (x >> 63 == 0 && dq >> 63 == 0 && x * sm >> 63 == 0)
        return put_ratio(p, (int64_t)(x * sm), (int64_t)dq);
    uint64_t g1 = gcd_u64((uint64_t)(x % (uint64_t)d), (uint64_t)d);
    uint64_t e = gcd_u64((uint64_t)(q % (uint64_t)d), (uint64_t)d);
    uint64_t g2 = gcd_u64((uint64_t)(x / g1 % e), e);
    u128 m = (u128)((uint64_t)d / g1) * (q / g2);
    x = x / g1 / g2;
    uint64_t h = sm == 0 ? 1 : gcd_u64((uint64_t)(m % sm), sm);
    x *= sm / h;
    m = x == 0 ? 1 : m / h;
    p = put_u128(p, x);
    if (m != 1) {
        *p++ = '/';
        p = put_u128(p, m);
    }
    return p;
}

/* Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020),
 * as in Java's DoubleToDecimal. g holds, for k = -324 .. 292, the words
 * g >> 63 and g mod 2^63 of g = floor(10^-k 2^(125 - floor(-k log2 10))) + 1,
 * which _kernels.py computes exactly. round_to_odd is floor(cp g / 2^127),
 * its last bit set when the bits below it are not all zero. */
static uint64_t round_to_odd(const uint64_t *g, uint64_t cp)
{
    uint64_t x1 = (uint64_t)((u128)g[1] * cp >> 64);
    u128 y = (u128)g[0] * cp;
    uint64_t z = ((uint64_t)y >> 1) + x1, low = UINT64_MAX >> 1;
    return ((uint64_t)(y >> 64) + (z >> 63)) | ((z & low) + low) >> 63;
}

/* The shortest decimal f 10^e in the rounding interval of c 2^q (c > 0, the
 * interval closed for even c), the closest to c 2^q among them and the even
 * one of a tie; returns f and sets *e. Java returns at least two digits,
 * from its C_TINY branch for the least subnormals and a guard s >= 100, and
 * so writes 4.9e-324 where repr writes 5e-324: here s >= 10 and no branch.
 * k's and h's magic constants give floor(q log10 2), floor(q log10 2 +
 * log10 3/4) and floor(e log2 10) over every q and e this meets. */
static uint64_t shortest(uint64_t c, int64_t q, const uint64_t *g, int64_t *e)
{
    uint64_t odd = c & 1, cb = c << 2, cbl = cb - 2, cbr = cb + 2;
    int64_t k = q * INT64_C(661971961083) >> 41;
    if (c == UINT64_C(1) << 52 && q > -1074) { /* the gap below is half */
        cbl = cb - 1;
        k = (q * INT64_C(661971961083) - INT64_C(274743187321)) >> 41;
    }
    int64_t h = q + (-k * INT64_C(913124641741) >> 38) + 2;
    g += 2 * (k + 324);
    uint64_t vb = round_to_odd(g, cb << h), s = vb >> 2;
    uint64_t vbl = round_to_odd(g, cbl << h) + odd; /* open for odd c */
    uint64_t vbr = round_to_odd(g, cbr << h) - odd;
    *e = k;
    if (s >= 10) {
        uint64_t sp10 = s / 10 * 10, tp10 = sp10 + 10;
        int upin = vbl <= sp10 << 2, wpin = tp10 << 2 <= vbr;
        if (upin != wpin)
            return upin ? sp10 : tp10;
    }
    int uin = vbl <= s << 2, win = (s + 1) << 2 <= vbr;
    if (uin != win)
        return uin ? s : s + 1;
    uint64_t mid = 4 * s + 2;
    return vb < mid || (vb == mid && (s & 1) == 0) ? s : s + 1;
}

/* v as Python's repr writes it, in at most 24 bytes: the shortest digits
 * that round-trip, in exponent form ("d.ddde+XX", at least two exponent
 * digits) when the first digit's place is below 10^-4 or at least 10^16,
 * positional otherwise, with ".0" after an integer. No printf, so the C
 * locale changes nothing. */
static char *put_double(char *p, double v, const uint64_t *g)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    uint64_t c = bits & ((UINT64_C(1) << 52) - 1), bq = bits >> 52 & 0x7ff;
    if (bits >> 63 && !(bq == 0x7ff && c != 0)) /* a nan has no sign */
        *p++ = '-';
    if (bq == 0x7ff || (bq == 0 && c == 0)) {
        memcpy(p, c ? "nan" : bq ? "inf" : "0.0", 3);
        return p + 3;
    }
    int64_t q = bq == 0 ? -1074 : (int64_t)bq - 1075, e;
    uint64_t f = shortest(bq == 0 ? c : c | UINT64_C(1) << 52, q, g, &e);
    for (; f % 10 == 0; f /= 10)
        e++;
    char digits[20];
    size_t n = (size_t)(put_u64(digits, f) - digits);
    int64_t point = (int64_t)n + e; /* digits[0]'s place is 10^(point - 1) */
    if (point <= -4 || point > 16) {
        *p++ = digits[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, digits + 1, n - 1);
            p += n - 1;
        }
        *p++ = 'e';
        *p++ = point > 0 ? '+' : '-';
        uint64_t x = (uint64_t)(point > 0 ? point - 1 : 1 - point);
        if (x < 10)
            *p++ = '0';
        return put_u64(p, x);
    }
    if (point <= 0) { /* 0.ddd, 0.0ddd, ... */
        size_t lead = (size_t)(2 - point);
        memcpy(p, "0.000", lead);
        memcpy(p + lead, digits, n);
        return p + lead + n;
    }
    size_t at = (size_t)point;
    if (at >= n) { /* ddd000.0 */
        memcpy(p, digits, n);
        memset(p + n, '0', at - n);
        memcpy(p + at, ".0", 2);
        return p + at + 2;
    }
    memcpy(p, digits, at);
    p[at] = '.';
    memcpy(p + at + 1, digits + at, n - at);
    return p + n + 1;
}

/* The most bytes one row can take. */
static int64_t row_bound(const field *fields, int64_t nfields)
{
    int64_t bound = nfields; /* the commas and the newline */
    for (const field *f = fields; f < fields + nfields; f++) {
        if (f->kind == RATIOS || f->kind == FLOATS)
            bound += f->k * (CELL_MAX + 1);
        else if (f->kind == DEVIATIONS)
            bound += CELL128_MAX;
        else {
            int64_t longest = 0;
            for (int64_t j = 0; j < f->k; j++)
                if (f->ends[j + 1] - f->ends[j] > longest)
                    longest = f->ends[j + 1] - f->ends[j];
            bound += longest;
        }
    }
    return bound;
}

/* Write rows *row, *row + 1, ... into out[0 .. size) while the next row
 * surely fits, stopping before row `rows`; advance *row past them and
 * return the bytes written, or BAD_DEN, BAD_LABEL or NO_ROOM (not even one
 * row fits). With out NULL, return the most bytes a row can take. */
int64_t csv_rows(const field *fields, int64_t nfields, int64_t *row,
                 int64_t rows, char *out, int64_t size)
{
    int64_t bound = row_bound(fields, nfields);
    if (out == NULL)
        return bound;
    if (*row < rows && size < bound)
        return NO_ROOM;
    char *p = out;
    for (; *row < rows && size - (p - out) >= bound; *row += 1) {
        int64_t r = *row;
        for (const field *f = fields; f < fields + nfields; f++) {
            if (f != fields)
                *p++ = ',';
            if (f->kind == LABELS) {
                int64_t i = f->num[r];
                if (i < -1 || i >= f->k)
                    return BAD_LABEL;
                if (i >= 0) {
                    int64_t len = f->ends[i + 1] - f->ends[i];
                    memcpy(p, f->text + f->ends[i], (size_t)len);
                    p += len;
                }
            } else if (f->kind == DEVIATIONS) {
                if (f->den[r] <= 0)
                    return BAD_DEN;
                p = put_deviation(p, f->num[r], f->den[r], f->p, f->q,
                                  f->scale == NULL ? NULL : f->scale + r);
            } else if (f->kind == FLOATS) {
                const double *a = (const void *)(f->num + r * f->k);
                for (int64_t c = 0; c < f->k; c++) {
                    if (c > 0)
                        *p++ = (char)f->sep;
                    p = put_double(p, a[c], f->g);
                }
            } else {
                int64_t d = f->den == NULL ? f->scalar : f->den[r];
                if (d <= 0)
                    return BAD_DEN;
                const int64_t *a = f->num + r * f->k;
                for (int64_t c = 0; c < f->k; c++) {
                    if (c > 0)
                        *p++ = (char)f->sep;
                    p = put_ratio(p, a[c], d);
                }
            }
        }
        *p++ = '\n';
    }
    return p - out;
}
