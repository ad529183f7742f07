/* The package's compiled library: the solver, in C. A solve's restart is
   one call, pairsphere_solve (pairsphere.solver._solve), which runs the
   whole cycle loop. Each cycle runs the fine level's sweeps
   (pairsphere_level): it draws each sweep's order from the solve's numpy bit
   generator as Generator.permutation(n) does, and pairsphere_sweep visits it
   and relabels the slots. Then a coarsening pass (pairsphere_coarsen), level
   after level, builds the rows of the level above from the rows below
   (pairsphere_aggregate), sums its factors and runs its sweeps
   (pairsphere_level), in work that it asks of the caller's callback, sized
   for the pass. pairsphere_rows makes CSR rows from sorted pair ids (a
   graph's edges, a query's sparse support, and the coarse pairs), with each
   entry's pair, so that the vectors on one support share one layout. A level
   is its rows alone. pairsphere_smooth and pairsphere_same_label read a pair
   vector's sorted ids row by row, for its inner products and its alignment
   with a partition. For graph's walk and Jaccard vectors,
   pairsphere_upper_count and pairsphere_upper_fill form the strict upper
   triangle of a sparse product, and nothing below it.

   _kernel._load_kernel builds this file with -ffp-contract=off, so every
   product and sum below is rounded on its own, in the order written: the
   gains carry the bits of solver._node_gain_vector, the builders sum by the
   one rule that the solver's docstring states, and the product sums as
   scipy's does. Arrays are C-ordered; the slot table U is K x ld, with slots
   0..ns-1 in use, the last of them empty, and the columns past them zero.

   A visit scans every slot, or only its candidates: the slots of its row
   neighbours, its own slot and the empty last one. The narrow scan runs when
   the level's rule holds (solver._Instance.narrow_rule: the sign rule, and a
   last term with coefficient c < 0 whose factors are positive integers, so
   that its slot sums count members exactly, as the query constant's do) and
   the row is short, 4 * (row + 2) < ns. It is exact: a live slot a holding
   no row neighbour has W(a) <= s_last * count(a) < 0 = W(empty), so it can
   neither be the argmax nor tie with it. Two bounds make that hold in
   floating point, by the monotony of rounding. neg[k] bounds how far below
   zero round-off has left any slot sum of term k (factors >= 0): the live
   bound, the ordered sum of |s_k| * neg[k] and then s_last, must be < 0, else
   the visit scans every slot. Each of the ndead slots the sweep has emptied
   (count 0) holds W at most the dead bound, that sum without s_last (0
   without round-off): while ndead > 0 the narrow top must exceed it, else
   the visit scans every slot after all. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The argmax over slots 0..ns-1 of W[a] = ((0 + S[0] U[0][a]) + S[1] U[1][a]
   + ...) + B[a], minus self at the own slot cur: the lowest slot of the
   largest W, with that W and the own slot's in *top and *own. The slots go
   in blocks of 4, which the compiler vectorizes. */
static int64_t scan_all(int64_t cur, int64_t K, int64_t ns, int64_t ld, const double *U,
                        const double *S, const double *B, double self, double *top, double *own)
{
    int64_t a, k, l, best = 0;
    double w_top = 0.0;
    for (a = 0; a < ns; a += 4) {
        double w[4] = {0.0, 0.0, 0.0, 0.0};
        for (k = 0; k < K; k++)
            for (l = 0; l < 4; l++)
                w[l] += S[k] * U[k * ld + a + l];
        for (l = 0; l < 4; l++)
            w[l] += B[a + l];
        if (a <= cur && cur < a + 4)
            *own = w[cur - a] -= self;
        for (l = 0; l < 4 && a + l < ns; l++)
            if (a + l == 0 || w[l] > w_top) {
                w_top = w[l];
                best = a + l;
            }
    }
    *top = w_top;
    return best;
}

/* scan_all over the nc slots of cand only (in any order), by the same sum. */
static int64_t scan_cands(const int64_t *cand, int64_t nc, int64_t cur, int64_t K, int64_t ld,
                          const double *U, const double *S, const double *B, double self,
                          double *top, double *own)
{
    int64_t c, k, a, best = -1;
    double w, w_top = 0.0;
    for (c = 0; c < nc; c++) {
        a = cand[c];
        w = 0.0;
        for (k = 0; k < K; k++)
            w += S[k] * U[k * ld + a];
        w += B[a];
        if (a == cur)
            *own = w -= self;
        if (best < 0 || w > w_top || (w == w_top && a < best)) {
            w_top = w;
            best = a;
        }
    }
    *top = w_top;
    return best;
}

/* Node i's best slot, with its W and the own slot's in *top and *own, as
   scan_all finds them, with s_k = coefs[k] * factors[k][i], B[a] its row
   weights summed in row order by slot and self = sum_k s_k factors[k][i].
   Takes the narrow scan when narrow_rule is set and the row is short, and
   the bounds admit it (see the header; ndead counts the slots the sweep has
   emptied); *narrowed tells whether it stood.
   With verify, a narrow scan is checked against scan_all: -1 when they give
   another slot or other bits. B (ld doubles) and mark (ld bytes) are all
   zero between visits; S holds K doubles and cand ld slots. */
static int64_t gains(int64_t i, int64_t n, int64_t K, int64_t ns, int64_t ld,
                     const double *coefs, const double *factors, const int64_t *indptr,
                     const int64_t *nbr, const double *wts, const int64_t *memb, const double *U,
                     int32_t narrow_rule, const double *neg, int64_t ndead, int32_t verify, double *S, double *B,
                     int64_t *cand, uint8_t *mark, double *top, double *own, int *narrowed)
{
    int64_t a, k, t, nc = 0, best, cur = memb[i];
    double self = 0.0, live = 0.0, dead = 0.0, top_all, own_all;
    for (k = 0; k < K; k++) {
        S[k] = coefs[k] * factors[k * n + i];
        self += S[k] * factors[k * n + i];
    }
    /* narrow whenever the rule held, PPM n=1000 walk solves ran 4% slower, PPM n=2000 ones 5% faster */
    *narrowed = narrow_rule && 4 * (indptr[i + 1] - indptr[i] + 2) < ns;
    if (*narrowed) {
        for (k = 0; k < K - 1; k++) {
            live += -S[k] * neg[k];
            dead += -S[k] * neg[k];
        }
        live += S[K - 1];
        *narrowed = live < 0.0;
    }
    if (!*narrowed) {
        for (t = indptr[i]; t < indptr[i + 1]; t++)
            B[memb[nbr[t]]] += wts[t];
        best = scan_all(cur, K, ns, ld, U, S, B, self, top, own);
        if (indptr[i + 1] - indptr[i] > ns) /* a row longer than the slots: each touched slot is below ns */
            memset(B, 0, (size_t)ns * sizeof *B);
        else
            for (t = indptr[i]; t < indptr[i + 1]; t++)
                B[memb[nbr[t]]] = 0.0;
        return best;
    }
    for (t = indptr[i]; t < indptr[i + 1]; t++) {
        a = memb[nbr[t]];
        B[a] += wts[t];
        if (!mark[a]) {
            mark[a] = 1;
            cand[nc++] = a;
        }
    }
    if (!mark[cur])
        cand[nc++] = cur;
    cand[nc++] = ns - 1; /* empty: no neighbour's, not the own slot */
    best = scan_cands(cand, nc, cur, K, ld, U, S, B, self, top, own);
    if (ndead && !(*top > dead)) {
        *narrowed = 0;
        best = scan_all(cur, K, ns, ld, U, S, B, self, top, own);
    } else if (verify) {
        t = scan_all(cur, K, ns, ld, U, S, B, self, &top_all, &own_all);
        if (t != best || memcmp(&top_all, top, sizeof(double)) || memcmp(&own_all, own, sizeof(double)))
            best = -1;
    }
    for (t = 0; t < nc; t++) {
        B[cand[t]] = 0.0;
        mark[cand[t]] = 0;
    }
    return best;
}

/* The dirty marks of a move: node j moves from its slot b to slot c. Each slot's
   members form a list: head[a] holds its first member + 1, next[m] the one
   after m + 1 (0 ends a list). The walk over b's members unlinks j, and j
   goes first in c's list, after c's members are marked: O(members of b and
   c, and the rows of b's), not O(n). */
static void mark_dirty(int64_t j, int64_t c, const int64_t *indptr, const int64_t *nbr,
                       const int64_t *memb, int64_t *head, int64_t *next, uint8_t *dirty)
{
    int64_t m, t, *link = &head[memb[j]];
    for (m = *link - 1; m >= 0; m = *link - 1) {
        for (t = indptr[m]; t < indptr[m + 1]; t++)
            dirty[nbr[t]] = 1;
        if (m == j)
            *link = next[m];
        else
            link = &next[m];
    }
    for (m = head[c] - 1; m >= 0; m = next[m] - 1)
        dirty[m] = 1;
    next[j] = head[c];
    head[c] = j + 1;
}

/* Visits the nodes of order[0..n_order-1], one sweep of a level, then
   relabels the slots: the live ones in label order, the empty one last,
   their columns moved left and the freed ones zeroed. Returns the number of
   moves. info is the level's record (pairsphere_level): the sweep reads [0]
   the slots in use, and leaves there those after the relabel (a move into
   the empty last slot makes the next column the empty slot), [1] whether it
   tracks dirty nodes, [2] the narrow rule and [3] check_skips, and adds its
   visits made, skipped and narrow to [6], [7] and [8]. ld is a multiple of
   4 and at least info[0] + n_order, so the table has room for every move. A
   negative return is an error, with the node in info[10]: -1 when
   check_skips finds that a skipped node would move, -2 for an order entry
   outside 0..n-1, -3 when check_skips finds that a narrow scan differs from
   the full one. work holds ld + 2K doubles, 2ld + n int64 and ld bytes: B,
   S, neg, cand, head, next and mark, of any contents. The sweep zeroes B
   and mark, which every visit leaves zero, and sets up the rest itself
   (neg, and head and next, the slots' member lists of mark_dirty, when it
   tracks; cand holds the new labels at the end). */
int64_t pairsphere_sweep(int64_t n, int64_t K, const double *coefs, const double *factors,
                         const int64_t *indptr, const int64_t *nbr, const double *wts,
                         const int64_t *order, int64_t n_order, int64_t *memb,
                         double *U, int64_t ld, int64_t *info, uint8_t *dirty, double half_eps,
                         double *objective, double *work)
{
    double top, own, *B = work, *S = work + ld, *neg = S + K;
    int64_t *cand = (int64_t *)(neg + K), *head = cand + ld, *next = head + ld;
    uint8_t *mark = (uint8_t *)(next + n);
    int64_t v, k, a, i, cur, best, ns = info[0], moves = 0, skipped = 0, narrow = 0, ndead = 0;
    int32_t tracking = info[1] != 0, narrow_rule = info[2] != 0, check_skips = info[3] != 0;
    int narrowed;
    memset(B, 0, (size_t)ld * sizeof *B);
    memset(mark, 0, (size_t)ld);
    memset(neg, 0, (size_t)K * sizeof *neg);
    if (narrow_rule)
        for (k = 0; k < K; k++)
            for (a = 0; a < ns; a++)
                if (U[k * ld + a] < -neg[k])
                    neg[k] = -U[k * ld + a];
    if (tracking) {
        memset(head, 0, (size_t)ld * sizeof *head);
        for (i = n - 1; i >= 0; i--) {
            next[i] = head[memb[i]];
            head[memb[i]] = i + 1;
        }
    }
    for (v = 0; v < n_order; v++) {
        i = order[v];
        if (i < 0 || i >= n) {
            info[10] = i;
            return -2;
        }
        if (tracking) {
            if (!dirty[i]) {
                skipped++;
                if (check_skips) {
                    best = gains(i, n, K, ns, ld, coefs, factors, indptr, nbr, wts, memb, U, narrow_rule,
                                 neg, ndead, 1, S, B, cand, mark, &top, &own, &narrowed);
                    if (best < 0 || top - own > half_eps) {
                        info[10] = i;
                        return best < 0 ? -3 : -1;
                    }
                }
                continue;
            }
            dirty[i] = 0;
        }
        cur = memb[i];
        best = gains(i, n, K, ns, ld, coefs, factors, indptr, nbr, wts, memb, U, narrow_rule, neg,
                     ndead, check_skips, S, B, cand, mark, &top, &own, &narrowed);
        if (best < 0) {
            info[10] = i;
            return -3;
        }
        narrow += narrowed;
        if (top - own > half_eps) {
            if (tracking)
                mark_dirty(i, best, indptr, nbr, memb, head, next, dirty);
            if (best == ns - 1)
                ns++;
            else if (narrow_rule && U[(K - 1) * ld + best] == 0.0)
                ndead--;
            memb[i] = best;
            for (k = 0; k < K; k++) {
                U[k * ld + cur] -= factors[k * n + i];
                U[k * ld + best] += factors[k * n + i];
                if (U[k * ld + cur] < -neg[k])
                    neg[k] = -U[k * ld + cur];
            }
            if (narrow_rule && U[(K - 1) * ld + cur] == 0.0)
                ndead++;
            *objective += 2.0 * (top - own);
            moves++;
        }
    }
    /* the relabel: cand[a] is -1 for a slot without a node, then each other slot's new label */
    for (a = 0; a < ns - 1; a++)
        cand[a] = -1;
    for (i = 0; i < n; i++)
        cand[memb[i]] = 0;
    cand[ns - 1] = info[0] = 0;
    for (a = 0; a < ns; a++)
        if (cand[a] >= 0) {
            for (k = 0; k < K; k++)
                U[k * ld + info[0]] = U[k * ld + a];
            cand[a] = info[0]++;
        }
    for (k = 0; k < K; k++)
        memset(U + k * ld + info[0], 0, (size_t)(ns - info[0]) * sizeof *U);
    for (i = 0; i < n; i++)
        memb[i] = cand[memb[i]];
    info[6] += n_order - skipped;
    info[7] += skipped;
    info[8] += narrow;
    return moves;
}

/* order = numpy's Generator.permutation(n) from the same bit generator (its
   shuffle of arange(n) by random_interval): for i = n - 1 down to 1, swap
   order[i] and order[j], j the first draw of next_uint32 masked to the
   smallest 2^b - 1 >= i that is <= i. Needs n <= 2^32, as any level that
   fits in memory has. */
static void permutation(int64_t n, int64_t *order, void *state, uint32_t (*next_uint32)(void *))
{
    int64_t i, swap;
    uint32_t mask, j, b;
    for (i = 0; i < n; i++)
        order[i] = i;
    for (i = n - 1; i > 0; i--) {
        for (mask = (uint32_t)i, b = 1; b < 32; b *= 2)
            mask |= mask >> b;
        while ((j = next_uint32(state) & mask) > (uint32_t)i)
            ;
        swap = order[i];
        order[i] = order[j];
        order[j] = swap;
    }
}

/* A level's start on the compact labels memb (0..k-1, each used) of its n
   nodes: U (K x ld) holds each slot's factor sums, from 0 in node order as
   np.bincount sums them, then zeros, and every node is dirty. Returns k + 1,
   the slots in use. */
static int64_t start_level(int64_t n, int64_t K, const double *factors, const int64_t *memb, double *U,
                           int64_t ld, uint8_t *dirty)
{
    int64_t i, t, k = 0;
    for (i = 0; i < n; i++)
        if (memb[i] >= k)
            k = memb[i] + 1;
    memset(U, 0, (size_t)(K * ld) * sizeof *U);
    for (t = 0; t < K; t++)
        for (i = 0; i < n; i++)
            U[t * ld + memb[i]] += factors[t * n + i];
    memset(dirty, 1, (size_t)n);
    return k + 1;
}

/* The local moves of one level (the fine one's in pairsphere_solve, each
   coarse one's in pairsphere_coarsen): up to info[4] sweeps, until one
   makes no move. Each runs pairsphere_sweep on the order that
   permutation draws from a numpy bit generator (its state and next_uint32;
   the caller holds its lock). info is the record that the level and its
   sweeps share: on entry [0] the slots in use, [1] the sign rule, under
   which every sweep tracks dirty nodes, [2] the narrow rule, [3]
   check_skips and [4] the sweep cap; on return [0] the slots in use, [5]
   the sweeps, [6] to [8] the visits made, skipped and narrow, [9] whether
   the cap ended the level and [10] the node of a negative return
   (pairsphere_sweep's code). ld >= 2n + 1 is a multiple of 4; work holds
   the order (n int64), then pairsphere_sweep's work as it asks, of any
   contents. Returns the moves. */
int64_t pairsphere_level(int64_t n, int64_t K, const double *coefs, const double *factors,
                         const int64_t *indptr, const int64_t *nbr, const double *wts, int64_t *memb,
                         double *U, int64_t ld, int64_t *info, uint8_t *dirty, double half_eps,
                         double *objective, void *rng_state, void *next_uint32, int64_t *work)
{
    uint32_t (*next32)(void *);
    int64_t moves = 1, total = 0;
    memcpy(&next32, &next_uint32, sizeof next32); /* a function's address, passed as void * */
    info[6] = info[7] = info[8] = 0;
    for (info[5] = 0; moves && info[5] < info[4]; info[5]++) {
        permutation(n, work, rng_state, next32);
        moves = pairsphere_sweep(n, K, coefs, factors, indptr, nbr, wts, work, n, memb, U, ld, info, dirty,
                                 half_eps, objective, (double *)(work + n));
        if (moves < 0)
            return moves;
        total += moves;
    }
    info[9] = moves != 0;
    return total;
}

/* The sorted pair ids of n nodes, row by row: row i holds the ids
   [rs(i), rs(i + 1)), rs(i) = i(2n - i - 1)/2, and id p of row i is the pair
   (i, p - rs(i) + i + 1). A walk starts at row 0 (walk_start), and walk_to
   moves it to the row of an id at least as large as the last one's (and
   below n(n - 1)/2); it returns the id's j, the walk's i its i. */
typedef struct {
    int64_t n, i, lo, hi; /* row i holds [lo, hi) */
} pair_walk;

static pair_walk walk_start(int64_t n)
{
    pair_walk w = {n, 0, 0, n - 1};
    return w;
}

static int64_t walk_to(pair_walk *w, int64_t id)
{
    while (id >= w->hi) {
        w->i++;
        w->lo = w->hi;
        w->hi += w->n - w->i - 1;
    }
    return id - w->lo + w->i + 1;
}

/* The CSR rows of the symmetric n x n matrix with an entry at (i, j) and
   (j, i) for each of the m pair ids (_kernel._rows), which must ascend
   strictly in [0, n(n - 1)/2): in each row the columns ascend, and pos holds
   each entry's pair index (its place in ids). A counting sort in two passes:
   first each pair's lower entry (row j gets i), then its upper one (row i
   gets j), the pairs of row i being ids' run of that row. indptr holds
   n + 1 words, nbr and pos room for 2m, of any contents. Returns 0, or
   -1 - t when pair t breaks the order or the bounds. */
int64_t pairsphere_rows(int64_t n, int64_t m, const int64_t *ids, int64_t *indptr, int64_t *nbr, int64_t *pos)
{
    int64_t t, r, j;
    pair_walk w = walk_start(n);
    memset(indptr, 0, (size_t)(n + 1) * sizeof *indptr);
    for (t = 0; t < m; t++) {
        if (ids[t] < (t > 0 ? ids[t - 1] + 1 : 0) || ids[t] >= n * (n - 1) / 2)
            return -1 - t;
        j = walk_to(&w, ids[t]);
        indptr[w.i + 1]++;
        indptr[j + 1]++;
    }
    for (r = 0; r < n; r++)
        indptr[r + 1] += indptr[r];
    /* indptr[r] is row r's cursor while the rows fill, then its end */
    for (w = walk_start(n), t = 0; t < m; t++) {
        j = walk_to(&w, ids[t]);
        nbr[indptr[j]] = w.i;
        pos[indptr[j]++] = t;
    }
    for (w = walk_start(n), t = 0; t < m; t++) {
        j = walk_to(&w, ids[t]);
        nbr[indptr[w.i]] = j;
        pos[indptr[w.i]++] = t;
    }
    for (r = n; r > 0; r--)
        indptr[r] = indptr[r - 1];
    indptr[0] = 0;
    return 0;
}

/* The smooth part of a pair vector at its m sorted pair ids
   (geometry._sparse_dot_smooth): out[t] = c + s_1 + s_2 + ..., added in term
   order, with s_k = coefs[k] * factors[k][i] * factors[k][j] rounded product
   by product, as numpy sums `out += coef * factor[ii] * factor[jj]`.
   factors is K x n. Returns 0. */
int64_t pairsphere_smooth(int64_t n, int64_t m, const int64_t *ids, int64_t K, const double *coefs,
                          const double *factors, double c, double *out)
{
    int64_t t, k, j;
    double v;
    pair_walk w = walk_start(n);
    for (t = 0; t < m; t++) {
        j = walk_to(&w, ids[t]);
        v = c;
        for (k = 0; k < K; k++)
            v += coefs[k] * factors[k * n + w.i] * factors[k * n + j];
        out[t] = v;
    }
    return 0;
}

/* same[t] = 1 when both ends of the pair of sorted id ids[t] carry one label
   in labels (n), else 0 (clustering.query_alignment). Returns 0. */
int64_t pairsphere_same_label(int64_t n, int64_t m, const int64_t *ids, const int64_t *labels, uint8_t *same)
{
    int64_t t, j;
    pair_walk w = walk_start(n);
    for (t = 0; t < m; t++) {
        j = walk_to(&w, ids[t]);
        same[t] = labels[w.i] == labels[j];
    }
    return 0;
}

/* The coarse pairs of pairsphere_aggregate, lined up by a stable counting
   sort by the larger label and then by the smaller, into qid (their pair ids
   among k nodes) and qv; returns their count. work holds 4m + 2k + 2 words:
   the counts by each label, each upper entry's row, and two orders of the
   pairs that cross supernodes (in row order first, in by_lo). */
static int64_t sum_in_buckets(int64_t n, const int64_t *indptr, const int64_t *nbr, const double *wts,
                              const int64_t *labels, int64_t k, int64_t *qid, double *qv, int64_t *work)
{
    int64_t i, t, e, u = 0, a, b, lo, hi, c = 0, m = indptr[n] / 2;
    int64_t *at_hi = work, *at_lo = at_hi + k + 1, *row = at_lo + k + 1, *by_hi = row + 2 * m, *by_lo = by_hi + m;
    double f, g;
    memset(work, 0, (size_t)(2 * k + 2) * sizeof *work);
    for (i = 0; i < n; i++)
        for (t = indptr[i]; t < indptr[i + 1]; t++)
            if (nbr[t] > i && (a = labels[i]) != (b = labels[nbr[t]])) {
                row[t] = i;
                at_hi[(a > b ? a : b) + 1]++;
                at_lo[(a < b ? a : b) + 1]++;
                by_lo[u++] = t;
            }
    for (a = 0; a < k; a++) {
        at_hi[a + 1] += at_hi[a];
        at_lo[a + 1] += at_lo[a];
    }
    for (t = 0; t < u; t++) {
        e = by_lo[t];
        a = labels[row[e]];
        b = labels[nbr[e]];
        by_hi[at_hi[a > b ? a : b]++] = e;
    }
    for (t = 0; t < u; t++) {
        e = by_hi[t];
        a = labels[row[e]];
        b = labels[nbr[e]];
        by_lo[at_lo[a < b ? a : b]++] = e;
    }
    for (t = 0; t < u;) {
        a = labels[row[by_lo[t]]];
        b = labels[nbr[by_lo[t]]];
        lo = a < b ? a : b;
        hi = a < b ? b : a;
        f = g = 0.0; /* M[lo][hi] and M[hi][lo] */
        for (; t < u; t++) {
            e = by_lo[t];
            a = labels[row[e]];
            b = labels[nbr[e]];
            if (a == lo && b == hi)
                f += wts[e];
            else if (a == hi && b == lo)
                g += wts[e];
            else
                break;
        }
        if ((f += g) != 0.0) {
            qid[c] = lo * (2 * k - lo - 1) / 2 + hi - lo - 1;
            qv[c++] = f;
        }
    }
    return c;
}

/* The rows of the level above (pairsphere_coarsen), from the rows of a level
   of n nodes labelled 0..k-1. The level's pairs are its upper entries, the t
   of row i with nbr[t] > i, in row order: m = indptr[n] / 2 of them. Each
   coarse pair a < b gets M[a][b] + M[b][a], where M[a][b] is the sum, from 0
   and in that order, of wts over the pairs whose ends carry labels (a, b);
   zero sums are dropped. When k(k-1) is at most 2m, the level's CSR
   entries, or when the buckets do not fit in work, one pass sums the pairs
   into a k x k block; otherwise sum_in_buckets lines each cell's pairs up in
   row order, without k * k memory. Both sum by the one rule and give the
   same bits. The coarse pairs, their ids ascending, are built at the start
   of work, and pairsphere_rows turns them into the coarse rows, whose
   weights are then gathered by pair: cindptr holds k + 1 words, cnbr and
   cwts room for 2r, r = min(m, k(k-1)/2), of any contents, and they may be
   the level's own rows, which are read before they are written. work holds
   `words`, of any contents: 2r and then k * k for the block or 4m + 2k + 2
   for the buckets, either of which holds the 2r pair indices of the rows.
   Returns the count of coarse pairs, or -1 - i when node i carries a label
   outside 0..k-1. */
int64_t pairsphere_aggregate(int64_t n, const int64_t *indptr, const int64_t *nbr, const double *wts,
                             const int64_t *labels, int64_t k, int64_t *cindptr, int64_t *cnbr,
                             double *cwts, int64_t *work, int64_t words)
{
    int64_t i, t, a, b, c = 0, m = indptr[n] / 2, r = m < k * (k - 1) / 2 ? m : k * (k - 1) / 2;
    int64_t *qid = work, *rest = qid + 2 * r;
    double *qv = (double *)(qid + r), *block = (double *)rest, f;
    for (i = 0; i < n; i++)
        if (labels[i] < 0 || labels[i] >= k)
            return -1 - i;
    /* buckets alone: a markov-batch round's 63 block levels 34.8 -> 198.6 ms, grid-desk's 1,131 20.6 -> 50.4 */
    if (k * (k - 1) > 2 * m && 2 * r + 4 * m + 2 * k + 2 <= words)
        c = sum_in_buckets(n, indptr, nbr, wts, labels, k, qid, qv, rest);
    else {
        memset(block, 0, (size_t)(k * k) * sizeof *block);
        for (i = 0; i < n; i++)
            for (t = indptr[i]; t < indptr[i + 1]; t++)
                if (nbr[t] > i && (a = labels[i]) != (b = labels[nbr[t]]))
                    block[a * k + b] += wts[t];
        for (a = 0; a < k; a++)
            for (b = a + 1; b < k; b++)
                if ((f = block[a * k + b] + block[b * k + a]) != 0.0) {
                    qid[c] = a * (2 * k - a - 1) / 2 + b - a - 1;
                    qv[c++] = f;
                }
    }
    pairsphere_rows(k, c, qid, cindptr, cnbr, rest); /* rest: each entry's pair */
    for (t = 0; t < 2 * c; t++)
        cwts[t] = qv[rest[t]];
    return c;
}

/* Does a level of n nodes hold the sign rule (every coefficient <= 0 and
   every factor >= 0), and the narrow rule too (a last coefficient < 0 whose
   factors are positive integers summing below 2^53)? Returns 0, 1 or 2
   (solver._Instance.sign_rule and narrow_rule; each coarse level's in
   pairsphere_coarsen). */
int64_t pairsphere_rules(int64_t n, int64_t K, const double *coefs, const double *factors)
{
    int64_t k, i;
    const double *last;
    double total = 0.0;
    for (k = 0; k < K; k++)
        if (!(coefs[k] <= 0.0))
            return 0;
    for (i = 0; i < K * n; i++)
        if (!(factors[i] >= 0.0))
            return 0;
    if (K == 0 || !(coefs[K - 1] < 0.0))
        return 1;
    for (last = factors + (K - 1) * n, i = 0; i < n; i++) {
        if (!(last[i] >= 1.0 && last[i] < 9007199254740992.0 && (double)(int64_t)last[i] == last[i]))
            return 1;
        total += last[i];
    }
    return total < 9007199254740992.0 ? 2 : 1;
}

/* The work of a pass (pairsphere_coarsen and pairsphere_solve): the address
   of `words` int64 of any contents, which the caller owns and keeps until its
   next call, or NULL when it has none (the call then ends with -6). */
typedef int64_t *(*pairsphere_work)(int64_t words);

/* One coarsening pass of the solver over a fine level of n nodes whose
   solution memb labels them 0..k-1, k = info[0]. Each coarse level
   aggregates the level below by its labels (pairsphere_aggregate), sums its
   factors from 0 in node order, as np.bincount sums them, checks its own
   rules, and runs its sweeps (pairsphere_level) from singletons
   (start_level), objective 0. The pass stops at a level with nothing to
   merge (k labels on k nodes) or whose sweeps make no move; after each level
   that moved, its objective is added to *gain (from 0, in level order) and
   memb is composed with its labels, so memb ends as the fine membership
   reached. The orders come from the bit generator as pairsphere_level draws
   them (the caller holds its lock).

   info is the level record of pairsphere_level, summed over the pass: on
   entry [0] k, [3] check_skips and [4] the sweep cap; on return [0] the
   coarse levels that ran sweeps, [5] to [8] their sweeps and visits made,
   skipped and narrow, [9] how many the cap ended, and [10] the node of a
   negative return: pairsphere_level's -1 or -3, -4 when memb holds a label
   outside 0..k-1, -6 when work_of gives no work (before anything is
   written). Returns 0 or that negative code.

   When k < n, the pass asks work_of once for its work, laid out for the
   first coarse level, whose k supernodes and room r = min(m, k(k-1)/2)
   pairs bound every later level (m: the fine level's pairs): the coarse
   rows (k + 1 + 4r), which each level writes over the rows of the one below,
   two sets of factors (Kk each), used in turn, and the level's labels (k);
   then, in the same words, the aggregate's work, 2r + k^2 when the fine
   level takes the block, else 2r + 4m + 2k + 2, and the level's slot table
   (K x ld, ld = 2k + 1 rounded up to 4), its sweeps' work (2k + 4ld + 2K)
   and its dirty marks ((k + 7) / 8), whichever is longer. A later level, of
   k' < k supernodes and at most r pairs, fits there: its block after a fine
   block, either path after fine buckets; pairsphere_aggregate takes the
   block when its buckets do not fit. */
int64_t pairsphere_coarsen(int64_t n, int64_t K, const double *coefs, const double *factors,
                           const int64_t *indptr, const int64_t *nbr, const double *wts, int64_t *memb,
                           int64_t *info, double *gain, void *rng_state, void *next_uint32,
                           pairsphere_work work_of, double half_eps)
{
    int64_t k = info[0], cn = n, m = indptr[n] / 2, r, ld, aw, i, a, t, side, moves, rules;
    int64_t *work, *facs[2], *labels, *lab, *lwork, *awork, *cip, *cnb, lv[11];
    const int64_t *ip = indptr, *nb = nbr;
    const double *wt = wts, *f = factors;
    double *U, *cf, *cwt, objective;
    uint8_t *dirty;
    info[0] = info[5] = info[6] = info[7] = info[8] = info[9] = 0;
    *gain = 0.0;
    if (k >= n)
        return 0; /* nothing to merge: no level */
    r = m < k * (k - 1) / 2 ? m : k * (k - 1) / 2;
    ld = (2 * k + 4) / 4 * 4;
    aw = 2 * r + (k * (k - 1) <= 2 * m ? k * k : 4 * m + 2 * k + 2);
    if (aw < K * ld + 2 * k + 4 * ld + 2 * K + (k + 7) / 8)
        aw = K * ld + 2 * k + 4 * ld + 2 * K + (k + 7) / 8;
    if (!(work = work_of(k + 1 + 4 * r + 2 * K * k + k + aw)))
        return -6;
    cip = work;
    facs[0] = cip + k + 1 + 4 * r;
    facs[1] = facs[0] + K * k;
    lab = facs[1] + K * k;
    awork = lab + k; /* done with before the level's table, sweep work and marks are set up there */
    U = (double *)awork;
    lwork = (int64_t *)(U + K * ld);
    dirty = (uint8_t *)(lwork + 2 * k + 4 * ld + 2 * K);
    for (labels = memb, side = 0; k < cn; labels = lab, side ^= 1) {
        cnb = cip + k + 1;
        cwt = (double *)(cnb + 2 * r);
        cf = (double *)facs[side];
        if ((t = pairsphere_aggregate(cn, ip, nb, wt, labels, k, cip, cnb, cwt, awork, aw)) < 0) {
            info[10] = -1 - t;
            return -4;
        }
        memset(cf, 0, (size_t)(K * k) * sizeof *cf);
        for (t = 0; t < K; t++)
            for (i = 0; i < cn; i++)
                cf[t * k + labels[i]] += f[t * cn + i];
        rules = pairsphere_rules(k, K, coefs, cf);
        for (a = 0; a < k; a++)
            lab[a] = a;
        lv[0] = start_level(k, K, cf, lab, U, ld, dirty);
        lv[1] = rules > 0;
        lv[2] = rules > 1;
        lv[3] = info[3];
        lv[4] = info[4];
        objective = 0.0;
        moves = pairsphere_level(k, K, coefs, cf, cip, cnb, cwt, lab, U, ld, lv, dirty, half_eps, &objective,
                                 rng_state, next_uint32, lwork);
        if (moves < 0) {
            info[10] = lv[10];
            return moves;
        }
        info[0]++;
        for (t = 5; t < 10; t++)
            info[t] += lv[t];
        if (!moves)
            break;
        *gain += objective;
        for (i = 0; i < n; i++)
            memb[i] = lab[memb[i]];
        ip = cip;
        nb = cnb;
        wt = cwt;
        f = cf;
        cn = k;
        k = lv[0] - 1;
    }
    return 0;
}

/* One restart of the solver's greedy projection (solver._solve) on a fine
   level of n nodes, from singletons, whose objective *objective holds on
   entry. Each cycle runs the fine level's local moves (pairsphere_level) and
   a coarsening pass (pairsphere_coarsen); after a pass that merged, the fine
   level starts again (start_level) on the composed membership, whose labels
   are already compact, and the pass's gain is added to the objective.
   Cycles repeat until one gains no more than eps, for at most info[22]. The
   caller holds the bit generator's lock.

   On entry info[1] to [4] hold the fine level's sign rule, narrow rule,
   check_skips and sweep cap; memb (n), U (K x ld, ld >= 2n + 1 a multiple of
   4), dirty (n bytes) and work (2n + 4ld + 2K words, pairsphere_level's)
   have any contents. On return memb holds the partition reached and U its
   slot table, and info the solve's record: [0] to [10] pairsphere_level's
   for the fine level, [11] to [21] pairsphere_coarsen's for the passes,
   with the counters of both summed over the cycles, [23] the cycles run and
   [24] whether the cap ended them. Each pass asks work_of for its work;
   under check_skips the solve also calls work_of(0) after each cycle.
   Returns 0 or the negative code of a level or pass. */
int64_t pairsphere_solve(int64_t n, int64_t K, const double *coefs, const double *factors,
                         const int64_t *indptr, const int64_t *nbr, const double *wts, int64_t *memb,
                         double *U, int64_t ld, int64_t *info, uint8_t *dirty, double eps, double *objective,
                         void *rng_state, void *next_uint32, int64_t *work, pairsphere_work work_of)
{
    int64_t i, t, code, lv[11], pass[11];
    double before, gain;
    for (i = 0; i < n; i++)
        memb[i] = i;
    info[0] = start_level(n, K, factors, memb, U, ld, dirty);
    for (t = 5; t < 22; t++)
        info[t] = 0;
    for (info[23] = 0, info[24] = 1; info[23] < info[22];) {
        before = *objective;
        memcpy(lv, info, 5 * sizeof *lv);
        code = pairsphere_level(n, K, coefs, factors, indptr, nbr, wts, memb, U, ld, lv, dirty, eps / 2.0,
                                objective, rng_state, next_uint32, work);
        info[0] = lv[0];
        for (t = 5; t < 10; t++)
            info[t] += lv[t];
        if (code < 0) {
            info[10] = lv[10];
            return code;
        }
        pass[0] = lv[0] - 1;
        pass[3] = info[3];
        pass[4] = info[4];
        code = pairsphere_coarsen(n, K, coefs, factors, indptr, nbr, wts, memb, pass, &gain, rng_state,
                                  next_uint32, work_of, eps / 2.0);
        info[11] += pass[0];
        for (t = 5; t < 10; t++)
            info[11 + t] += pass[t];
        if (code < 0) {
            info[10] = pass[10];
            return code;
        }
        if (gain > 0.0) { /* the pass composed memb */
            info[0] = start_level(n, K, factors, memb, U, ld, dirty);
            *objective += gain;
        }
        info[23]++;
        if (info[3] && !work_of(0))
            return -6;
        if (*objective - before <= eps) {
            info[24] = 0;
            break;
        }
    }
    return 0;
}

/* Row i of the strict upper triangle of the product A B (pairsphere_upper_*):
   the columns j > i that some A[i][k] B[k][j] reaches. fp[k] is row k of
   B's first entry past column i - 1; B's rows ascend, so it only moves
   forward as i grows, and the entries at columns <= i cost no test each.
   With ax NULL, the columns are flagged by mark[j] == i + 1 and only
   counted (cols is unused); the scan stops once the row is full. With ax,
   acc[j] += B[k][j] * A[i][k] over row i of A, in its order, into acc as
   the caller set it; with mark, a column's first term is added to 0 and the
   column, flagged as above, goes into cols. */
static int64_t upper_row(int64_t i, int64_t n, const int64_t *aptr, const int64_t *aidx, const double *ax,
                         const int64_t *bptr, const int64_t *bidx, const double *bx, int64_t *fp,
                         int64_t *mark, int64_t *cols, double *acc)
{
    int64_t s, t, k, j, c = 0;
    for (s = aptr[i]; s < aptr[i + 1]; s++) {
        k = aidx[s];
        while (fp[k] < bptr[k + 1] && bidx[fp[k]] <= i)
            fp[k]++;
        if (ax == NULL) {
            for (t = fp[k]; t < bptr[k + 1]; t++)
                if (mark[j = bidx[t]] != i + 1) {
                    mark[j] = i + 1;
                    c++;
                }
            if (c == n - i - 1)
                break;
        } else if (mark == NULL)
            for (t = fp[k]; t < bptr[k + 1]; t++)
                acc[bidx[t]] += bx[t] * ax[s];
        else
            for (t = fp[k]; t < bptr[k + 1]; t++) {
                if (mark[j = bidx[t]] != i + 1) {
                    mark[j] = i + 1;
                    cols[c++] = j;
                    acc[j] = 0.0;
                }
                acc[j] += bx[t] * ax[s];
            }
    }
    return c;
}

static int ascending(const void *x, const void *y)
{
    int64_t a = *(const int64_t *)x, b = *(const int64_t *)y;
    return (a > b) - (a < b);
}

/* The support of the strict upper triangle of A B, for n x n CSR matrices
   whose rows of B ascend (graph._upper_pairs): the count of pairs i < j that
   some A[i][k] B[k][j] reaches, row i's in rows[i]. work holds 2n words, of
   any contents. */
int64_t pairsphere_upper_count(int64_t n, const int64_t *aptr, const int64_t *aidx, const int64_t *bptr,
                               const int64_t *bidx, int64_t *rows, int64_t *work)
{
    int64_t i, total = 0, *fp = work, *mark = fp + n;
    memcpy(fp, bptr, (size_t)n * sizeof *fp);
    memset(mark, 0, (size_t)n * sizeof *mark);
    for (i = 0; i < n; i++)
        total += rows[i] = upper_row(i, n, aptr, aidx, NULL, bptr, bidx, NULL, fp, mark, NULL, NULL);
    return total;
}

/* The pairs of pairsphere_upper_count (rows: its row counts) with their
   values, as graph._upper_pairs returns them: pair ids ascending in ids,
   i(2n - i - 1)/2 + j - i - 1, and each sum of upper_row, from 0 in A's row
   order, times scale in vals; a sum of exactly 0 is left out, as scipy's
   product leaves it out. A row that fills more than 1/16 of its columns
   sums into acc zeroed over i + 1..n - 1 and comes out by a scan of them
   (every other entry there reads 0); a shorter one flags its columns and
   comes out by a sort of them (walk fill times are flat for cut-offs from
   1/8 to 1/256 and rise on either side: sorting full rows costs twice the
   time at t = 4..5). ids and vals have room for the count; work
   holds 4n words, of any contents. Returns the pairs written. */
int64_t pairsphere_upper_fill(int64_t n, const int64_t *aptr, const int64_t *aidx, const double *ax,
                              const int64_t *bptr, const int64_t *bidx, const double *bx,
                              const int64_t *rows, double scale, int64_t *ids, double *vals, int64_t *work)
{
    int64_t i, j, c, t, base, p = 0, *fp = work, *mark = fp + n, *cols = mark + n;
    double *acc = (double *)(cols + n);
    memcpy(fp, bptr, (size_t)n * sizeof *fp);
    memset(mark, 0, (size_t)n * sizeof *mark);
    for (i = 0; i < n; i++) {
        base = i * (2 * n - i - 1) / 2 - i - 1;
        if (16 * rows[i] > n - i - 1) {
            memset(acc + i + 1, 0, (size_t)(n - i - 1) * sizeof *acc);
            upper_row(i, n, aptr, aidx, ax, bptr, bidx, bx, fp, NULL, NULL, acc);
            for (j = i + 1; j < n; j++)
                if (acc[j] != 0.0) {
                    ids[p] = base + j;
                    vals[p++] = acc[j] * scale;
                }
        } else {
            c = upper_row(i, n, aptr, aidx, ax, bptr, bidx, bx, fp, mark, cols, acc);
            qsort(cols, (size_t)c, sizeof *cols, ascending);
            for (t = 0; t < c; t++)
                if (acc[j = cols[t]] != 0.0) {
                    ids[p] = base + j;
                    vals[p++] = acc[j] * scale;
                }
        }
    }
    return p;
}
