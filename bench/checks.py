"""Output checks that do not reuse the program's own metric or solver code.

Pair counts come from a contingency table built here, and single-node move
gains come from a scipy sparse-matrix product over the query's raw arrays
(its sparse pair ids and values, rank-one terms and constant). The only thing
taken from a query object is that data.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

METRIC_TOL = 1e-9


def _intra(counts) -> int:
    return sum(c * (c - 1) // 2 for c in counts)


def pair_metrics(labels, planted) -> tuple[float | None, float | None]:
    """(Pearson rho, relative granularity error) of `labels` against `planted`,
    each None where the metric is undefined (a trivial partition)."""
    c = np.asarray(labels, dtype=np.int64)
    t = np.asarray(planted, dtype=np.int64)
    n = c.size
    big_n = n * (n - 1) // 2
    m_c = _intra(np.unique(c, return_counts=True)[1].tolist())
    m_t = _intra(np.unique(t, return_counts=True)[1].tolist())
    m_ct = _intra(np.unique(np.stack([c, t], axis=1), axis=0, return_counts=True)[1].tolist())
    rho = None
    if 0 < m_c < big_n and 0 < m_t < big_n:
        rho = (m_ct * big_n - m_c * m_t) / math.sqrt(m_c * (big_n - m_c) * m_t * (big_n - m_t))
    lat_t = math.acos(1.0 - 2.0 * m_t / big_n)
    gran = None
    if lat_t > 0.0:
        gran = math.acos(max(-1.0, 1.0 - 2.0 * m_c / big_n)) / lat_t - 1.0
    return rho, gran


def compare_metric(name: str, program, own) -> str | None:
    """A failure message when the program's value and the benchmark's disagree."""
    if program is None or own is None:
        if program is None and own is None:
            return None
        return f"{name}: program {program!r}, recomputed {own!r}"
    if abs(program - own) > METRIC_TOL:
        return f"{name}: program {program!r}, recomputed {own!r}"
    return None


def check_detection(labels, planted, rho, granularity_error) -> list[str]:
    """Compare a detection's reported rho and granularity error with our own."""
    own_rho, own_gran = pair_metrics(labels, planted)
    out = [compare_metric("rho", rho, own_rho), compare_metric("granularity_error", granularity_error, own_gran)]
    return [msg for msg in out if msg]


def _pair_ends(pair_ids: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of flat ids in lexicographic pair order, by search over row starts."""
    rows = np.arange(n, dtype=np.int64)
    row_start = rows * (2 * n - rows - 1) // 2
    i = np.searchsorted(row_start, pair_ids, side="right") - 1
    return i, pair_ids - row_start[i] + i + 1


def _smooth_parts(q):
    parts = [(t.coef, np.asarray(t.factor, dtype=np.float64)) for t in q.terms]
    if q.constant != 0.0:
        parts.append((q.constant, np.ones(q.n)))
    return parts


def query_norm(q) -> float:
    """|q| over all n(n-1)/2 pairs: sparse + rank-one terms + constant."""
    n = q.n
    parts = _smooth_parts(q)
    i, j = _pair_ends(q.pair_ids, n)
    smooth_at = np.zeros(q.pair_ids.size)
    for c, u in parts:
        smooth_at += c * u[i] * u[j]
    sq = float(q.values @ q.values) + 2.0 * float(q.values @ smooth_at)
    # off-diagonal half of |M|_F^2 for M = sum_k c_k u_k u_k^T
    frob = sum(ca * cb * float(ua @ ub) ** 2 for ca, ua in parts for cb, ub in parts)
    diag = np.zeros(n)
    for c, u in parts:
        diag += c * u * u
    sq += (frob - float(diag @ diag)) / 2.0
    return math.sqrt(max(sq, 0.0))


def solver_epsilon(q) -> float:
    """The solver's documented move threshold, 1e-12 * |q| * sqrt(N)."""
    return 1e-12 * query_norm(q) * math.sqrt(q.n * (q.n - 1) / 2)


def max_move_gain(q, labels) -> float:
    """Largest change of <q, b(C)> from relabelling one node, to any existing
    community or to a fresh one. 0 when no move improves."""
    n = q.n
    _, lab = np.unique(np.asarray(labels), return_inverse=True)
    lab = lab.astype(np.int64)
    k = int(lab.max()) + 1
    Z = sp.csr_matrix((np.ones(n), (np.arange(n), lab)), shape=(n, k))
    i, j = _pair_ends(q.pair_ids, n)
    S = sp.csr_matrix(
        (np.concatenate([q.values, q.values]), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(n, n),
    )
    W = np.asarray((S @ Z).todense())  # W[i, a] = sum of q_ij over j in a, j != i
    rows = np.arange(n)
    for c, u in _smooth_parts(q):
        W += c * np.outer(u, Z.T @ u)
        W[rows, lab] -= c * u * u
    w_cur = W[rows, lab]
    best = np.maximum(W.max(axis=1), 0.0)  # a fresh community has W = 0
    return float(2.0 * (best - w_cur).max())


def check_local_optimum(q, labels) -> list[str]:
    gain = max_move_gain(q, labels)
    eps = solver_epsilon(q)
    if gain > eps:
        return [f"single-node move improves the objective by {gain:.3e} > eps {eps:.3e}"]
    return []
