/* The visit loop of one local-move sweep (pairsphere.solver._sweep), in C.

   solver._load_kernel builds this file with -ffp-contract=off, so every
   product and sum below is rounded on its own, in the order written: the
   gains carry the bits of numpy's solver._gains, and a sweep makes exactly
   the moves of the numpy sweep. Arrays are C-ordered; the slot table U is
   K x ld, with slots 0..ns-1 in use and the last of them empty.

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

/* solver._mark_dirty: node j moves from its slot b to slot c. */
static void mark_dirty(int64_t j, int64_t c, int64_t n, const int64_t *indptr,
                       const int64_t *nbr, const int64_t *memb, uint8_t *dirty)
{
    int64_t m, t, b = memb[j];
    for (m = 0; m < n; m++) {
        if (memb[m] == b)
            for (t = indptr[m]; t < indptr[m + 1]; t++)
                dirty[nbr[t]] = 1;
        else if (memb[m] == c)
            dirty[m] = 1;
    }
}

/* Visits the nodes of order[0..n_order-1] as solver._sweep does; returns
   the number of moves. info[0] holds the slots in use on entry and on return
   (a move into the empty last slot makes the next column the empty slot);
   ld is a multiple of 4 and at least info[0] + n_order, so the table has
   room for every move. info[1] returns the visits skipped. info[3] holds
   whether the level's narrow rule holds on entry, and the visits that took
   the narrow scan on return. A negative return is an error, with the node in
   info[2]: -1 when check_skips finds that a skipped node would move, -2 for
   an order entry outside 0..n-1, -3 when check_skips finds that a narrow
   scan differs from the full one. work holds ld + 2K + ld doubles and ld
   bytes, all zero: B, S, neg, cand and mark. */
int64_t pairsphere_sweep(int64_t n, int64_t K, const double *coefs, const double *factors,
                         const int64_t *indptr, const int64_t *nbr, const double *wts,
                         const int64_t *order, int64_t n_order, int64_t *memb,
                         double *U, int64_t ld, int64_t *info, uint8_t *dirty,
                         int32_t tracking, int32_t check_skips, double half_eps,
                         double *objective, double *work)
{
    double top, own, *B = work, *S = work + ld, *neg = S + K;
    int64_t *cand = (int64_t *)(neg + K);
    uint8_t *mark = (uint8_t *)(cand + ld);
    int64_t v, k, a, i, cur, best, ns = info[0], moves = 0, skipped = 0, narrow = 0, ndead = 0;
    int32_t narrow_rule = info[3] != 0;
    int narrowed;
    if (narrow_rule)
        for (k = 0; k < K; k++)
            for (a = 0; a < ns; a++)
                if (U[k * ld + a] < -neg[k])
                    neg[k] = -U[k * ld + a];
    for (v = 0; v < n_order; v++) {
        i = order[v];
        if (i < 0 || i >= n) {
            info[2] = i;
            return -2;
        }
        if (tracking) {
            if (!dirty[i]) {
                skipped++;
                if (check_skips) {
                    best = gains(i, n, K, ns, ld, coefs, factors, indptr, nbr, wts, memb, U, narrow_rule,
                                 neg, ndead, 1, S, B, cand, mark, &top, &own, &narrowed);
                    if (best < 0 || top - own > half_eps) {
                        info[2] = i;
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
            info[2] = i;
            return -3;
        }
        narrow += narrowed;
        if (top - own > half_eps) {
            if (tracking)
                mark_dirty(i, best, n, indptr, nbr, memb, dirty);
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
    info[0] = ns;
    info[1] = skipped;
    info[3] = narrow;
    return moves;
}
