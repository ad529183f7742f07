"""Projection of a query vector onto the set of clustering vectors.

Minimizing the angular distance to a query equals maximizing the inner
product with the clustering vector, which decomposes over node pairs. The
local-move solver is a greedy relabeling scheme over that objective: each
cycle sweeps best-gain single-node moves, then builds coarse levels, each
sweeping supernodes made of the communities below, and cycles repeat until
nothing improves. A node visit builds the gain over the k live communities
plus one empty slot: a gemv of the node's K scaled factors with the K x k
slot table (K rank-one terms; a nonzero constant c is one of them,
c * 11^T), one bincount of its sparse row by slot, a self-term subtraction,
an argmax and three scalar reads. Sweeps take about 3.7 us per visit at
n=200 (linear grid-search queries) and 5.8 us at n=2000 (cl-modularity and
markov t=2) on a 2-vCPU Xeon. Only the first sweep, from n singletons,
still costs O(n^2).

Dirty-set sweeps skip visits that provably cannot move. The skip is exact
under the sign rule: every rank-one coefficient (the constant's included) is
<= 0 and every factor is >= 0, so every pair outside the sparse rows holds a
value <= 0, and a slot holding none of node i's row neighbours has W_i <= 0,
the fresh slot's value. The rule is checked once per level; coarse factors
are sums of fine ones, so coarse levels inherit it. Modularity, ppm-likelihood
and walk queries, raw or exact-corrected, satisfy it; a positive corrected
constant breaks it (73-76 of the desk grid search's 143 cells on PPM n=200
samples). When node j moves from slot b to slot c, the nodes whose best gain
over staying can have risen are marked dirty: j's row neighbours, the
members of c, and every node with a row neighbour among the members of b.
Any other node's gains stayed or fell, so a node that has not been marked
since its last visit would not move and is skipped. Marking starts on a
level's sweep after the first one that moves fewer than TRACK_BELOW * n
nodes; before that, and on any level where the sign rule fails, every node
is visited. When coarse levels merge communities, the fine level keeps its
marks and adds the members of every merged community and their row
neighbours. The visit order and every computed visit are unchanged, so the
partition is the same as with full sweeps.

For small instances an exhaustive enumerator over set partitions provides an
exact reference optimum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .clustering import Partition, query_alignment
from .geometry import PairVector, _smooth_terms_with_constant
from .pairs import pair_id


# A move must gain more than EPS_SCALE * |q| * sqrt(N) (guards against move
# cycling from round-off); the sweep and cycle caps end a solve with a warning.
# Dirty-set marking starts after a sweep that moves fewer than TRACK_BELOW * n.
EPS_SCALE = 1e-12
MAX_SWEEPS = 1000
TRACK_BELOW = 0.1
MAX_CYCLES = 50


@dataclass
class _Instance:
    """A query vector unpacked into solver-friendly arrays: CSR rows of the
    symmetric sparse part (heads: the row of each entry), the smooth part as K
    rank-one terms coefs[k] * factors[k] factors[k]^T, and per-node rows for
    the visits. sign_rule: is every pair outside the sparse rows <= 0."""

    n: int
    indptr: np.ndarray
    nbr: np.ndarray
    wts: np.ndarray
    coefs: np.ndarray  # (K,)
    factors: np.ndarray  # (K, n)

    def __post_init__(self):
        # per node i, built once: coefs * factors[:, i] (a row view), its self
        # term as a float and its (neighbours, weights) row views
        scaled = np.ascontiguousarray((self.coefs[:, None] * self.factors).T)
        self.scaled = list(scaled)
        self.self_terms = [(s @ f).item() for s, f in zip(scaled, self.factors.T)]
        b = self.indptr.tolist()  # plain slices: np.split costs ~5x more per row
        self.rows = [(self.nbr[s:e], self.wts[s:e]) for s, e in zip(b[:-1], b[1:])]
        self.heads = np.repeat(np.arange(self.n), np.diff(self.indptr))
        self.sign_rule = bool(np.all(self.coefs <= 0.0) and np.all(self.factors >= 0.0))

    @classmethod
    def from_pair_vector(cls, q: PairVector) -> "_Instance":
        n = q.n
        ii, jj = q.sparse_members()
        indptr, tails, vals = _build_csr(n, ii, jj, q.values)
        terms = list(_smooth_terms_with_constant(q))  # a constant c is the term c * 11^T, last
        coefs = np.array([c for c, _ in terms], dtype=np.float64)
        factors = np.array([u for _, u in terms], dtype=np.float64).reshape(len(terms), n)
        return cls(n, indptr, tails, vals, coefs, factors)


def _slot_sums(factors: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """(K, k) sums of every factor row over the nodes carrying each label."""
    sums = [np.bincount(labels, weights=f, minlength=k) for f in factors]
    return np.array(sums).reshape(len(factors), k)


def _build_csr(n, ii, jj, values):
    """Rows of the symmetric n x n matrix holding each value at (i, j) and
    (j, i); repeated pairs are summed. Index arrays come back as int64, which
    the per-visit slicing and fancy indexing read without a cast."""
    U = sp.csr_array((values, (ii, jj)), shape=(n, n))
    A = U + U.T
    return A.indptr.astype(np.int64), A.indices.astype(np.int64), A.data


class SolverState:
    """Mutable solve state: membership plus per-community aggregates.

    For every rank-one term k and compact slot a, U[k, a] holds the sum of the
    term's factor over the slot's members; the last slot is empty and zero.
    The tracked objective is the inner product with the clustering vector of
    the current membership: the caller passes its starting value, and moves
    add their gains. dirty[i] is set while node i may have an improving move
    (every node until the sweeps start tracking); visits and skipped count
    the node visits made and skipped, and check_skips evaluates every skipped
    visit and asserts that it would not move.
    """

    def __init__(self, inst: _Instance, membership: np.ndarray, objective: float, check_skips: bool = False):
        self.inst = inst
        labels, self.membership = np.unique(membership, return_inverse=True)
        if self.membership.shape != (inst.n,):
            raise ValueError("membership must assign every node")
        self.U = _slot_sums(inst.factors, self.membership, labels.size + 1)
        self.objective = objective
        self.dirty = bytearray(b"\x01") * inst.n
        self.dirty_view = np.frombuffer(self.dirty, dtype=np.uint8)  # bulk marks
        self.tracking = False
        self.check_skips = check_skips
        self.visits = 0
        self.skipped = 0

    @classmethod
    def from_partition(cls, q: PairVector, C: Partition) -> "SolverState":
        if q.n != C.n:
            raise ValueError("dimension mismatch between query and partition")
        return cls(_Instance.from_pair_vector(q), C.membership, query_alignment(q, C))


def move_gain(state: SolverState, i: int, target: int) -> float:
    """Objective change from relabeling node i into `target` (2*(W_in - W_out))."""
    if target == int(state.membership[i]):
        return 0.0
    W, w_cur = _node_gain_vector(state, i)
    return 2.0 * (float(W[target]) - w_cur)


def _apply_move(state: SolverState, i: int, target: int, gain: float) -> None:
    cur = int(state.membership[i])
    if target == state.U.shape[1] - 1:  # the empty slot goes live: append a new one
        state.U = np.concatenate((state.U, np.zeros((state.U.shape[0], 1))), axis=1)
    state.membership[i] = target
    state.U[:, cur] -= state.inst.factors[:, i]
    state.U[:, target] += state.inst.factors[:, i]
    state.objective += gain


def _mark_dirty(state: SolverState, j: int, c: int) -> None:
    """Mark the nodes whose best gain over staying can rise when node j moves
    from its slot b to slot c: j's row neighbours (their sparse sums changed),
    the members of c (their own slot lost value) and every node with a row
    neighbour among the members of b (their gain to b rose). Called before
    the move, so j counts among b's members and its neighbours are covered."""
    memb = state.membership
    rows = state.inst.rows
    members_b = np.flatnonzero(memb == memb[j]).tolist()
    state.dirty_view[np.concatenate([rows[m][0] for m in members_b])] = 1
    state.dirty_view[memb == c] = 1


def _merge_marks(inst: _Instance, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """Nodes to mark when whole communities of `before` (labels 0..k-1) merge
    into the communities of `after`: the members of every community made of
    two or more old ones, and their row neighbours. Every other community is
    an old one unchanged, so any other node keeps its own slot's value and
    has W <= 0 on every merged slot; its best gain over staying cannot rise."""
    owner = np.zeros(before.max() + 1, dtype=np.int64)
    owner[before] = after
    hit = (np.bincount(owner) >= 2)[after]
    hit[inst.heads[hit[inst.nbr]]] = True
    return hit


def _gains(srow, U, memb, nbr, wts, cur: int, self_term: float) -> np.ndarray:
    """W_i(a) = sum of q_ij over j in slot a, j != i, for every slot a at once
    (the empty last slot reads 0: a fresh community), from node i's row of
    scaled factors, its (neighbours, weights) row, its slot and its self term."""
    W = srow.dot(U)  # np.dot without its dispatch layer: the bits of scaled[i] @ U
    W += np.bincount(memb[nbr], wts, W.size)
    W[cur] -= self_term
    return W


def _node_gain_vector(state: SolverState, i: int) -> tuple[np.ndarray, float]:
    """Node i's gain vector over every slot (see _gains), and W_i(own)."""
    inst, memb = state.inst, state.membership
    cur = memb.item(i)
    W = _gains(inst.scaled[i], state.U, memb, *inst.rows[i], cur, inst.self_terms[i])
    return W, W.item(cur)


def _sweep(state: SolverState, order: np.ndarray, eps: float) -> int:
    """One pass of best-gain relabelings; returns the number of moves.

    Each node moves to the argmax of its gain vector (ties to the lowest slot,
    so a live W = 0 beats the fresh last slot) when that beats staying by more
    than eps. While the state is tracking, a node not marked dirty since its
    last visit is skipped, and each move marks the nodes it can affect. The
    sweep ends by relabelling slots to the live communities, in label order
    with their sums kept, plus one empty slot last.

    A visit is _gains (one gemv of the node's K scaled factors with the
    K x k slot table, one bincount of its row's weights by slot, one
    self-term subtraction), an argmax and three .item() reads. The per-node
    handles and the state's arrays are bound to locals once per sweep, and a
    move updates the table in place; only a move into the empty slot copies
    it, to append a new empty slot.
    """
    inst = state.inst
    scaled, rows, self_terms, factors = inst.scaled, inst.rows, inst.self_terms, inst.factors
    memb, U = state.membership, state.U
    dirty, tracking, check_skips = state.dirty, state.tracking, state.check_skips
    half_eps = eps / 2.0
    moves = skipped = 0
    for i in order.tolist():
        if tracking:
            if not dirty[i]:
                skipped += 1
                if check_skips:
                    W, w_cur = _node_gain_vector(state, i)
                    if W.max().item() - w_cur > half_eps:
                        raise AssertionError(f"skipped node {i} would move")
                continue
            dirty[i] = 0
        cur = memb.item(i)
        nbr, wts = rows[i]
        W = _gains(scaled[i], U, memb, nbr, wts, cur, self_terms[i])
        best = W.argmax()
        w_best, w_cur = W.item(best), W.item(cur)
        if w_best - w_cur > half_eps:
            if tracking:
                _mark_dirty(state, i, best)
            if best == U.shape[1] - 1:  # the empty slot goes live: append a new one
                U = state.U = np.concatenate((U, np.zeros((U.shape[0], 1))), axis=1)
            memb[i] = best
            f = factors[:, i]
            U[:, cur] -= f
            U[:, best] += f
            state.objective += 2.0 * (w_best - w_cur)
            moves += 1
    state.visits += order.size - skipped
    state.skipped += skipped
    live = np.bincount(memb, minlength=U.shape[1]) > 0
    live[-1] = True  # the empty last slot stays, zero
    state.membership = (np.cumsum(live) - 1)[memb]
    state.U = U[:, live]
    return moves


def _local_moves(state: SolverState, rng, eps: float) -> int:
    """Sweeps until one sweep makes no move: no single-node relabel then
    improves by more than eps. Under the sign rule, the sweeps after the
    first one that moves fewer than TRACK_BELOW * n nodes track dirty nodes."""
    total_moves = 0
    n = state.inst.n
    for _ in range(MAX_SWEEPS):
        moves = _sweep(state, rng.permutation(n), eps)
        total_moves += moves
        if moves == 0:
            return total_moves
        if moves < TRACK_BELOW * n and state.inst.sign_rule:
            state.tracking = True  # every node is still dirty: marks start now
    warnings.warn("sweep cap reached before local convergence")
    return total_moves


def _aggregate(inst: _Instance, membership: np.ndarray) -> _Instance:
    """Collapse communities to supernodes; the labels must be compact (0..k-1,
    each used), as every sweep leaves them, and label a becomes supernode a.

    Sparse entries sum between supernode pairs; rank-one factors sum within
    supernodes, so an all-ones factor counts each supernode's members.
    Pairs inside a supernode contribute a fixed amount that is dropped, so
    coarse-level gains equal fine-level gains.
    """
    k = int(membership.max()) + 1
    keep = inst.heads < inst.nbr  # each sparse pair once
    ai = membership[inst.heads[keep]]
    bj = membership[inst.nbr[keep]]
    cross = ai != bj
    indptr, tails, cvals = _build_csr(k, ai[cross], bj[cross], inst.wts[keep][cross])
    return _Instance(k, indptr, tails, cvals, inst.coefs, _slot_sums(inst.factors, membership, k))


def _coarsen(inst: _Instance, memb: np.ndarray, rng, eps: float, debug_checks: bool) -> tuple[np.ndarray, float]:
    """Coarse levels on a fine solution `memb` (compact labels): each level
    aggregates the communities of the one below and runs local moves on the
    supernodes, until a level has nothing to merge or no move. Returns the
    fine membership reached and the levels' summed gain (0.0 if none moved)."""
    gain = 0.0
    level = memb  # the current level's membership; memb maps fine nodes to its labels
    while (coarse := _aggregate(inst, level)).n < inst.n:
        state = SolverState(coarse, np.arange(coarse.n), 0.0, debug_checks)  # coarse levels track gains only
        if not _local_moves(state, rng, eps):
            break
        gain += state.objective
        inst, level = coarse, state.membership
        memb = level[memb]
    return memb, gain


def louvain_project(
    q: PairVector, seed: int = 0, *, restarts: int = 1, debug_checks: bool = False
) -> Partition:
    """Greedy local-move projection.

    Starts from singletons; sweeps best-gain single-node relabelings in a
    seeded random order (fresh shuffle per sweep, ties to the lowest slot),
    then builds coarse levels of supernodes (see _coarsen), and repeats the
    cycle until the objective stops improving. The returned partition admits
    no improving single-node relabel at the finest level.

    restarts > 1 runs that many independent greedy passes (seed streams
    derived from the given seed) and keeps the best objective; the result is
    still deterministic for a fixed seed. debug_checks compares the tracked
    objective and the slot table with fresh recomputations after every cycle,
    and evaluates every skipped visit to assert that it would not move.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    eps = EPS_SCALE * q.norm() * math.sqrt(q.N)
    inst = _Instance.from_pair_vector(q)
    rngs = (np.random.default_rng([seed, r] if restarts > 1 else seed) for r in range(restarts))
    states = (_project_once(inst, q, rng, debug_checks, eps) for rng in rngs)
    return Partition(max(states, key=lambda state: state.objective).membership)  # first best wins


def _project_once(inst: _Instance, q: PairVector, rng, debug_checks: bool, eps: float) -> SolverState:
    state = SolverState(inst, np.arange(inst.n), -q.total(), debug_checks)  # singletons: no intra pair
    for _ in range(MAX_CYCLES):
        obj_before = state.objective
        _local_moves(state, rng, eps)
        node_memb, gained = _coarsen(inst, state.membership, rng, eps, debug_checks)
        if gained > 0.0:  # the fine level carries its dirty set over the merges
            merged = SolverState(inst, node_memb, state.objective + gained, debug_checks)
            merged.tracking = state.tracking
            merged.dirty_view[:] = state.dirty_view | _merge_marks(inst, state.membership, node_memb)
            state = merged
        if debug_checks:
            drift = abs(query_alignment(q, Partition(state.membership)) - state.objective)
            if drift > 1e-6 * max(1.0, abs(state.objective)):
                raise AssertionError(f"tracked objective drifted by {drift:.3e}")
            fresh = _slot_sums(inst.factors, state.membership, state.U.shape[1])
            scale = np.abs(inst.factors).sum(axis=1, keepdims=True)  # bounds every slot sum
            if state.U[:, -1].any() or np.any(np.abs(state.U - fresh) > 1e-9 * scale):
                raise AssertionError("slot table drifted from the membership")
        if state.objective - obj_before <= eps:
            return state
    warnings.warn("cycle cap reached before convergence")
    return state


def exact_project(q: PairVector, cap: int = 12) -> Partition:
    """Exhaustive optimum over all set partitions, enumerated as
    restricted-growth strings. Ties break toward the lexicographically
    smallest canonical membership. Feasible only for small n (at most cap)."""
    n = q.n
    if n > cap:
        raise ValueError(f"exact projection capped at n={cap} (got n={n})")
    Q = np.zeros((n, n))
    if n >= 2:
        iu, ju = np.triu_indices(n, k=1)
        iu = iu.astype(np.int64)
        ju = ju.astype(np.int64)
        ids = pair_id(iu, ju, n)
        vals = np.zeros(ids.size)
        if q.pair_ids.size:
            _, ix, iv = np.intersect1d(ids, q.pair_ids, assume_unique=True, return_indices=True)
            vals[ix] = q.values[iv]
        vals += q.smooth_at(iu, ju)
        Q[iu, ju] = vals
        Q[ju, iu] = vals
    memb = np.zeros(n, dtype=np.int64)
    best_intra = -math.inf
    best_memb = memb.copy()

    def rec(i: int, k: int, intra: float) -> None:
        nonlocal best_intra, best_memb
        if i == n:
            if intra > best_intra:
                best_intra = intra
                best_memb = memb.copy()
            return
        row = Q[i]
        for a in range(k):
            gain = float(row[:i][memb[:i] == a].sum())
            memb[i] = a
            rec(i + 1, k, intra + gain)
        memb[i] = k
        rec(i + 1, k + 1, intra)

    rec(0, 0, 0.0)
    return Partition(best_memb)


def max_single_move_gain(q: PairVector, C: Partition) -> float:
    """Largest objective gain any single-node relabel could achieve from C,
    checked against every community plus a fresh singleton (the empty slot)."""
    state = SolverState.from_partition(q, C)
    best = 0.0
    for i in range(q.n):
        W, w_cur = _node_gain_vector(state, i)
        best = max(best, 2.0 * (float(W.max()) - w_cur))
    return best

