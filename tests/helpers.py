"""Shared test oracles: dense reference implementations, independent of the
package's sparse-plus-low-rank closed forms.

Everything here materializes full N-vectors or n x n matrices, which is why
it is test-only and gated to small n.
"""

from __future__ import annotations

import ctypes
import warnings
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from pairsphere import solver
from pairsphere._kernel import _WORK, _address, _compiled
from pairsphere.geometry import LowRankTerm, PairVector


def dense_of(v: PairVector) -> np.ndarray:
    """Materialize a pair vector as a dense length-N array (lex pair order).

    np.triu_indices enumerates pairs in the same lexicographic order the
    package's flat pair ids use, so sparse values land at their ids directly.
    """
    assert v.n <= 64, "dense reference gated to small n"
    iu, ju = np.triu_indices(v.n, k=1)
    out = np.full(iu.size, float(v.constant))
    for t in v.terms:
        out += t.coef * t.factor[iu] * t.factor[ju]
    if v.pair_ids.size:
        out[v.pair_ids] += v.values
    return out


def dense_partition_vector(membership) -> np.ndarray:
    """+-1 pair embedding of a membership array, densely."""
    membership = np.asarray(membership)
    iu, ju = np.triu_indices(membership.size, k=1)
    return np.where(membership[iu] == membership[ju], 1.0, -1.0)


def random_sl_vector(rng, n, sparse_density=0.3, n_terms=2, with_constant=True, sign_rule=False) -> PairVector:
    """Random sparse-plus-low-rank vector for property tests. With sign_rule,
    the same draws give rank-one coefficients and a constant <= 0 and factors
    >= 0 (the solver's sign rule)."""
    pairs = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < sparse_density:
                pairs[(i, j)] = rng.normal()
    terms = tuple(
        LowRankTerm(rng.normal(), rng.normal(size=n)) for _ in range(rng.integers(0, n_terms + 1))
    )
    const = rng.normal() * 0.5 if with_constant else 0.0
    if sign_rule:
        terms = tuple(LowRankTerm(-abs(t.coef), np.abs(t.factor)) for t in terms)
        const = -abs(const)
    return PairVector.from_pairs(n, pairs, terms, const)


def random_membership(rng, n, k_max=None) -> np.ndarray:
    k = int(rng.integers(1, (k_max or n) + 1))
    memb = rng.integers(0, k, size=n)
    return memb


def nontrivial_membership(rng, n) -> np.ndarray:
    """A membership that is neither all-singletons nor one cluster."""
    while True:
        memb = random_membership(rng, n)
        sizes = np.bincount(memb)
        intra = int((sizes * (sizes - 1) // 2).sum())
        if 0 < intra < n * (n - 1) // 2:
            return memb


@lru_cache(maxsize=None)
def all_partitions(n: int) -> tuple:
    """Every set partition of [0, n) as a canonical membership tuple
    (restricted-growth strings, lexicographic order)."""
    results = []

    def grow(prefix, k):
        i = len(prefix)
        if i == n:
            results.append(tuple(prefix))
            return
        for a in range(k):
            grow(prefix + [a], k)
        grow(prefix + [k], k + 1)

    grow([], 0)
    return tuple(results)


def random_graph_edges(rng, n, p) -> list:
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def dense_adjacency(n, edges) -> np.ndarray:
    A = np.zeros((n, n))
    for u, v in edges:
        A[u, v] = A[v, u] = 1.0
    return A


# -- original quality functions (brute-force, dense) ---------------------------------


def erm_objective(A: np.ndarray, membership, gamma: float) -> float:
    """Edge count inside communities minus gamma * density * intra pairs."""
    n = A.shape[0]
    m = A.sum() / 2.0
    N = n * (n - 1) / 2.0
    acc = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            if membership[i] == membership[j]:
                acc += A[i, j] - gamma * m / N
    return acc / (2.0 * m)


def clm_objective(A: np.ndarray, membership, gamma: float) -> float:
    n = A.shape[0]
    deg = A.sum(axis=1)
    m = A.sum() / 2.0
    acc = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            if membership[i] == membership[j]:
                acc += A[i, j] - gamma * deg[i] * deg[j] / (2.0 * m)
    return acc / (2.0 * m)


def markov_trace_objective(A: np.ndarray, membership, t: int) -> float:
    """Trace of H^T (diag(s) P^t - s s^T) H via dense matrix power."""
    deg = A.sum(axis=1)
    P = A / deg[:, None]
    Pt = np.linalg.matrix_power(P, t)
    s = deg / deg.sum()
    X = np.diag(s) @ Pt - np.outer(s, s)
    k = int(np.max(membership)) + 1
    H = np.zeros((A.shape[0], k))
    H[np.arange(A.shape[0]), membership] = 1.0
    return float(np.trace(H.T @ X @ H))


def corclust_objective(w_plus: dict, w_minus: dict, membership, n: int) -> float:
    acc = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            if membership[i] == membership[j]:
                acc += w_plus.get((i, j), 0.0)
            else:
                acc += w_minus.get((i, j), 0.0)
    return acc


def binary_ppm_loglik(A: np.ndarray, membership, p_in: float, p_out: float) -> float:
    acc = 0.0
    n = A.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            p = p_in if membership[i] == membership[j] else p_out
            a = A[i, j]
            acc += np.log(p**a * (1 - p) ** (1 - a))
    return float(acc)


def same_ranking(key1, key2, tol1=None, tol2=None) -> bool:
    """True iff the two key arrays induce the same weak order (ties included)."""
    key1 = np.asarray(key1, dtype=float)
    key2 = np.asarray(key2, dtype=float)
    if tol1 is None:
        tol1 = 1e-9 * max(np.ptp(key1), 1e-30)
    if tol2 is None:
        tol2 = 1e-9 * max(np.ptp(key2), 1e-30)
    d1 = key1[:, None] - key1[None, :]
    d2 = key2[:, None] - key2[None, :]
    s1 = np.where(np.abs(d1) <= tol1, 0, np.sign(d1))
    s2 = np.where(np.abs(d2) <= tol2, 0, np.sign(d2))
    return bool(np.all(s1 == s2))


# -- the solver's numpy references ----------------------------------------------------


class LevelState(solver.SolverState):
    """A solver.SolverState with what a level's compiled sweeps keep beside
    it: dirty[i] is set while node i may have an improving move (every node
    at first); sweeps, visits and skipped count the sweeps run and the node
    visits made and skipped, and narrow the visits that scanned only their
    candidate slots. check_skips evaluates every skipped visit and asserts
    that it would not move, and checks every narrow visit against a scan of
    every slot."""

    def __init__(self, inst, membership, objective, check_skips=False):
        super().__init__(inst, membership, objective)
        self.dirty = np.ones(inst.n, dtype=np.uint8)
        self.check_skips = check_skips
        self.sweeps = self.visits = self.skipped = self.narrow = 0


def build_csr(n, ii, jj, values):
    """Rows of the symmetric n x n matrix holding each value at (i, j) and
    (j, i), in scipy, as int64 indptr and columns: the reference for
    _kernel._rows (whose pair indices gather the values)."""
    U = sp.csr_array((values, (ii, jj)), shape=(n, n))
    A = U + U.T
    return A.indptr.astype(np.int64), A.indices.astype(np.int64), A.data


def apply_move(state, i: int, target: int, gain: float) -> None:
    """Relabel node i into slot `target` and add `gain` to the objective; a
    move into the empty last slot appends a new empty slot."""
    cur = int(state.membership[i])
    if target == state.U.shape[1] - 1:
        state.U = np.concatenate((state.U, np.zeros((state.U.shape[0], 1))), axis=1)
    state.membership[i] = target
    state.U[:, cur] -= state.inst.factors[:, i]
    state.U[:, target] += state.inst.factors[:, i]
    state.objective += gain


def reference_sweep(state, order, eps, tracking=False) -> int:
    """compiled_sweep written as one call per visit: _node_gain_vector for
    the gains, apply_move for each move, the same dirty-set skips and marks
    when tracking, and an np.unique relabel at the end. compiled_sweep visits
    and relabels in the compiled kernel; both must give the same bits.

    When node i moves from its slot b to slot c, the nodes whose best gain
    over staying can rise are marked: i's row neighbours (their sparse sums
    changed), the members of c (their own slot lost value) and every node
    with a row neighbour among the members of b (their gain to b rose).
    Marked before the move, so i counts among b's members."""
    moves = skipped = 0
    half_eps = eps / 2.0
    for i in order.tolist():
        if tracking:
            if not state.dirty[i]:
                skipped += 1
                continue
            state.dirty[i] = 0
        W, w_cur = solver._node_gain_vector(state, i)
        best = int(W.argmax())
        w_best = float(W[best])
        if w_best - w_cur > half_eps:
            if tracking:
                memb, indptr, nbr = state.membership, state.inst.indptr, state.inst.nbr
                b = np.flatnonzero(memb == memb[i])  # the members of i's slot, i among them
                state.dirty[np.concatenate([nbr[indptr[m] : indptr[m + 1]] for m in b])] = 1
                state.dirty[memb == best] = 1
            apply_move(state, i, best, 2.0 * (w_best - w_cur))
            moves += 1
    state.visits += order.size - skipped
    state.skipped += skipped
    labels, state.membership = np.unique(state.membership, return_inverse=True)
    state.U = np.pad(state.U[:, labels], ((0, 0), (0, 1)))
    return moves


def compiled_sweep(state, order, eps, tracking=False, fill=0x00) -> int:
    """One sweep over `order` in _sweep.c's pairsphere_sweep, which ends with
    compact labels and the empty slot last; returns the moves. Each sweep of
    level_call runs this call in C, tracking under the sign rule.
    Every byte of the work holds `fill` on entry."""
    inst = state.inst
    order = np.ascontiguousarray(order, dtype=np.int64)
    memb = state.membership = np.ascontiguousarray(state.membership, dtype=np.int64)
    K, k = state.U.shape
    ld = -(-(k + order.size) // 4) * 4  # a visit makes at most one move
    U = np.zeros((K, ld))
    U[:, :k] = state.U
    work = np.zeros(4 * ld + 2 * K + inst.n)  # B, S, neg, cand, head, next and mark
    work.view(np.uint8)[:] = fill
    info = np.array([k, tracking, inst.sign_rule + inst.narrow_rule, state.check_skips] + [0] * 7, dtype=np.int64)
    objective = np.array([state.objective])
    moves = _compiled().pairsphere_sweep(
        inst.n, K, *map(_address, (inst.coefs, inst.factors, inst.indptr, inst.nbr, inst.wts)), _address(order),
        order.size, _address(memb), _address(U), ld, _address(info), _address(state.dirty), eps / 2.0,
        _address(objective), _address(work),
    )
    if moves == -1:
        raise AssertionError(f"skipped node {info[10]} would move")
    if moves == -2:
        raise ValueError(f"sweep order holds {info[10]}, not a node of 0..{inst.n - 1}")
    if moves == -3:
        raise AssertionError(f"narrow visit of node {info[10]} differs from the full scan")
    state.objective = objective.item()
    state.visits += info.item(6)
    state.skipped += info.item(7)
    state.narrow += info.item(8)
    state.U = U[:, : info.item(0)].copy()
    return moves


def level_call(state, rng, eps) -> int:
    """The local moves of one level on a LevelState in one
    pairsphere_level call, as every level of a solve runs them: sweeps of
    best-gain relabelings until one makes no move, or solver.MAX_SWEEPS of
    them (the cap warns); returns the moves. Each sweep's order is
    rng.permutation(n), drawn in C under the bit generator's lock; each sweep
    ends with compact labels and the empty slot last. Between sweeps at most
    n + 1 slots are in use and a visit adds at most one, so 2n + 1 columns
    hold every sweep."""
    inst, (K, k) = state.inst, state.U.shape
    ld = -(-(2 * inst.n + 1) // 4) * 4  # the kernel's blocks of 4
    U = np.zeros((K, ld))
    U[:, :k] = state.U
    work = np.empty(2 * inst.n + 4 * ld + 2 * K)  # the order, then the sweep's B, S, neg, cand, head, next, mark
    memb = state.membership = np.ascontiguousarray(state.membership, dtype=np.int64)
    info = np.zeros(11, dtype=np.int64)
    info[:5] = k, inst.sign_rule, inst.sign_rule + inst.narrow_rule, state.check_skips, solver.MAX_SWEEPS
    objective = np.array([state.objective])
    bitgen = rng.bit_generator
    with bitgen.lock:
        moves = _compiled().pairsphere_level(
            inst.n, K, *map(_address, (inst.coefs, inst.factors, inst.indptr, inst.nbr, inst.wts)), _address(memb),
            _address(U), ld, _address(info), _address(state.dirty), eps / 2.0, _address(objective),
            bitgen.ctypes.state_address, ctypes.c_void_p.from_buffer(bitgen.ctypes.next_uint32).value, _address(work),
        )
    if moves < 0:
        raise AssertionError(solver._FAULTS[moves].format(info[10]))
    state.U = U[:, : info[0]].copy()
    state.objective = objective.item()
    sweeps, visits, skipped, narrow, capped = info[5:10].tolist()
    state.sweeps += sweeps
    state.visits += visits
    state.skipped += skipped
    state.narrow += narrow
    if capped:
        warnings.warn("sweep cap reached before local convergence")
    return moves


def reference_local_moves(state, rng, eps) -> int:
    """level_call as a Python loop: compiled_sweep over rng.permutation(n)
    until a sweep makes no move, every sweep tracking under the sign rule,
    and the sweep cap's warning."""
    total, n = 0, state.inst.n
    for _ in range(solver.MAX_SWEEPS):
        moves = compiled_sweep(state, rng.permutation(n), eps, tracking=state.inst.sign_rule)
        state.sweeps += 1
        total += moves
        if moves == 0:
            return total
    warnings.warn("sweep cap reached before local convergence")
    return total


def reference_aggregate(inst, membership):
    """The level above `inst` as a solver._Instance, in one compiled
    pairsphere_aggregate call and numpy's slot sums: the coarse level that
    pass_call builds in C. The labels must be compact (0..k-1, each used), as
    every sweep leaves them, and label a becomes supernode a.

    Sparse entries sum between supernode pairs; rank-one factors sum within
    supernodes, so an all-ones factor counts each supernode's members.
    Pairs inside a supernode contribute a fixed amount that is dropped, so
    coarse-level gains equal fine-level gains.

    One call to the compiled library sums the level's pairs (its rows' upper
    entries) by the one rule (see the solver's docstring) and writes the
    coarse rows. A label outside 0..k-1 raises ValueError in the compiled
    library.
    """
    lib = _compiled()
    labels = np.ascontiguousarray(membership, dtype=np.int64)
    if labels.shape != (inst.n,):
        raise ValueError("labels must label every node of the level")
    k = int(labels.max()) + 1
    m = inst.nbr.size // 2
    room = min(m, k * (k - 1) // 2)  # every coarse pair, at most
    indptr, nbr, wts = np.empty(k + 1, dtype=np.int64), np.empty(2 * room, dtype=np.int64), np.empty(2 * room)
    # the coarse pairs, then the k x k block or the buckets' work; the kernel zeroes what it reads
    work = np.empty(2 * room + (k * k if k * (k - 1) <= 2 * m else 4 * m + 2 * k + 2), dtype=np.int64)
    fine = map(_address, (inst.indptr, inst.nbr, inst.wts, labels))
    size = lib.pairsphere_aggregate(inst.n, *fine, k, *map(_address, (indptr, nbr, wts, work)), work.size)
    if size < 0:
        raise ValueError(f"node {-1 - size} carries a label outside 0..{k - 1}")
    factors = solver._slot_sums(inst.factors, labels, k)  # after the check: bincount would raise its own error
    return solver._Instance(k, indptr, nbr[: 2 * size], wts[: 2 * size], inst.coefs, factors)


def pass_call(inst, memb, rng, eps, debug_checks, work=None):
    """One coarsening pass on a fine solution `memb` (compact labels) in one
    pairsphere_coarsen call, as each cycle of a solve runs it: each level
    aggregates the communities of the one below and runs local moves on the
    supernodes, until a level has nothing to merge or no move. Returns the
    fine membership reached, the levels' summed gain (0.0 if none moved) and
    the pass's record: [0] the levels run, [5] to [8] their sweeps and visits
    made, skipped and narrow, [9] how many the sweep cap ended, each of which
    warns. The pass asks `work` (a function of the words, returning the
    address of that many int64, or None) for its work; by default each
    request gets a fresh array."""
    labels = np.array(memb, dtype=np.int64)  # the call composes the fine membership in it
    if labels.shape != (inst.n,):
        raise ValueError("labels must label every node of the level")
    held = []

    def fresh(words):
        held.append(np.empty(words, dtype=np.int64))
        return held[-1].ctypes.data

    k = int(labels.max()) + 1
    info = np.array([k, 0, 0, debug_checks, solver.MAX_SWEEPS] + [0] * 6, dtype=np.int64)
    gain = np.zeros(1)
    bitgen = rng.bit_generator
    with bitgen.lock:
        code = _compiled().pairsphere_coarsen(
            inst.n, inst.coefs.size, *map(_address, (inst.coefs, inst.factors, inst.indptr, inst.nbr, inst.wts)),
            *map(_address, (labels, info, gain)), bitgen.ctypes.state_address,
            ctypes.c_void_p.from_buffer(bitgen.ctypes.next_uint32).value, _WORK(work or fresh), eps / 2.0,
        )
    if code == -4:
        raise ValueError(f"node {info[10]} carries a label outside 0..{k - 1}")
    if code == -6:
        raise MemoryError("the pass got no work")
    if code < 0:
        raise AssertionError(solver._FAULTS[code].format(info[10]))
    for _ in range(info[9]):
        warnings.warn("sweep cap reached before local convergence")
    return labels, gain.item(), info


def reference_coarsen(inst, memb, rng, eps, debug_checks):
    """pass_call as a Python loop: coarse levels on a fine solution `memb`
    (compact labels), each aggregating the communities of the one below
    (reference_aggregate) and running level_call on the supernodes, until a
    level has nothing to merge or no move. Returns the fine membership
    reached, the levels' summed gain (0.0 if none moved) and the counters the
    pass's record sums: levels run, sweeps, visits, skipped, narrow."""
    gain, counts = 0.0, [0] * 5
    level = memb  # the current level's membership; memb maps fine nodes to its labels
    while (coarse := reference_aggregate(inst, level)).n < inst.n:
        state = LevelState(coarse, np.arange(coarse.n), 0.0, debug_checks)  # coarse levels track gains only
        moves = level_call(state, rng, eps)
        counts = [a + b for a, b in zip(counts, (1, state.sweeps, state.visits, state.skipped, state.narrow))]
        if not moves:
            break
        gain += state.objective
        inst, level = coarse, state.membership
        memb = level[memb]
    return memb, gain, counts


FINE_COUNTERS = ("sweeps", "visits", "skipped", "narrow")


def reference_project(inst, q, rng, eps, debug_checks=False):
    """One restart of solver.louvain_project (solver._solve, one compiled
    call) as the Python cycle loop: level_call on the fine level, then
    pass_call on its solution; after a pass that merged, a fresh LevelState
    on the membership reached, its objective plus the
    pass's gain, every node dirty; until a cycle gains no more than eps, or
    solver.MAX_CYCLES of them (the cap warns). Under debug_checks every cycle
    ends with solver._check_cycle. Returns the last state, its FINE_COUNTERS
    summed over the cycles."""
    state = LevelState(inst, np.arange(inst.n), -q.total(), debug_checks)  # singletons: no intra pair
    for _ in range(solver.MAX_CYCLES):
        before = state.objective
        level_call(state, rng, eps)
        memb, gained, _ = pass_call(inst, state.membership, rng, eps, debug_checks)
        if gained > 0.0:
            fresh = LevelState(inst, memb, state.objective + gained, debug_checks)
            for counter in FINE_COUNTERS:
                setattr(fresh, counter, getattr(state, counter))
            state = fresh
        if debug_checks:
            solver._check_cycle(q, inst, state.membership, state.U, state.objective)
        if state.objective - before <= eps:
            return state
    warnings.warn("cycle cap reached before convergence")
    return state
