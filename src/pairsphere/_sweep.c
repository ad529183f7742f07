/* The visit loop of one local-move sweep (pairsphere.solver._sweep), in C.

   solver._load_kernel builds this file with -ffp-contract=off, so every
   product and sum below is rounded on its own, in the order written: the
   gains carry the bits of numpy's solver._gains, and a sweep makes exactly
   the moves of the numpy sweep. Arrays are C-ordered; the slot table U is
   K x ld, with slots 0..ns-1 in use and the last of them empty. */

#include <stdint.h>

/* Node i's gains W[a] = ((0 + s_0 U[0][a]) + s_1 U[1][a] + ...) + B[a] for
   every slot, with s_k = coefs[k] * factors[k][i] and B[a] its row weights
   summed in row order by slot, minus its self term at its own slot. Returns
   the lowest slot of the largest W, and that W and the own slot's in *top
   and *own. The slots go in blocks of 4, which the compiler vectorizes; B
   (ld doubles, ld a multiple of 4) is all zero between visits, and S holds
   K doubles. */
static int64_t gains(int64_t i, int64_t n, int64_t K, int64_t ns, int64_t ld,
                     const double *coefs, const double *factors, const int64_t *indptr,
                     const int64_t *nbr, const double *wts, const int64_t *memb,
                     const double *U, double *S, double *B, double *top, double *own)
{
    int64_t a, k, l, t, best = 0, cur = memb[i];
    double w_top = 0.0, self = 0.0;
    for (t = indptr[i]; t < indptr[i + 1]; t++)
        B[memb[nbr[t]]] += wts[t];
    for (k = 0; k < K; k++) {
        S[k] = coefs[k] * factors[k * n + i];
        self += S[k] * factors[k * n + i];
    }
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
    for (t = indptr[i]; t < indptr[i + 1]; t++)
        B[memb[nbr[t]]] = 0.0;
    *top = w_top;
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
   room for every move. info[1] returns the visits skipped. A negative return
   is an error, with the node in info[2]: -1 when check_skips finds that a
   skipped node would move, -2 for an order entry outside 0..n-1. work holds
   ld + K doubles, all zero. */
int64_t pairsphere_sweep(int64_t n, int64_t K, const double *coefs, const double *factors,
                         const int64_t *indptr, const int64_t *nbr, const double *wts,
                         const int64_t *order, int64_t n_order, int64_t *memb,
                         double *U, int64_t ld, int64_t *info, uint8_t *dirty,
                         int32_t tracking, int32_t check_skips, double half_eps,
                         double *objective, double *work)
{
    double top, own, *B = work, *S = work + ld;
    int64_t v, k, i, cur, best, ns = info[0], moves = 0, skipped = 0;
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
                    gains(i, n, K, ns, ld, coefs, factors, indptr, nbr, wts, memb, U, S, B, &top, &own);
                    if (top - own > half_eps) {
                        info[2] = i;
                        return -1;
                    }
                }
                continue;
            }
            dirty[i] = 0;
        }
        cur = memb[i];
        best = gains(i, n, K, ns, ld, coefs, factors, indptr, nbr, wts, memb, U, S, B, &top, &own);
        if (top - own > half_eps) {
            if (tracking)
                mark_dirty(i, best, n, indptr, nbr, memb, dirty);
            if (best == ns - 1)
                ns++;
            memb[i] = best;
            for (k = 0; k < K; k++) {
                U[k * ld + cur] -= factors[k * n + i];
                U[k * ld + best] += factors[k * n + i];
            }
            *objective += 2.0 * (top - own);
            moves++;
        }
    }
    info[0] = ns;
    info[1] = skipped;
    return moves;
}
