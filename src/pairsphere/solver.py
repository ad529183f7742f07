"""Projection of a query vector onto the set of clustering vectors.

Minimizing the angular distance to a query equals maximizing the inner
product with the clustering vector, which decomposes over node pairs. The
local-move solver is a greedy relabeling scheme over that objective: each
cycle sweeps best-gain single-node moves, then builds coarse levels, each
sweeping supernodes made of the communities below, and cycles repeat until
nothing improves. A node visit builds the gain over the k live communities
plus one empty slot: the node's K scaled factors times the K x k slot table
(K rank-one terms; a nonzero constant c is one of them, c * 11^T), its
sparse row's weights summed by slot, a self-term subtraction and an argmax.
Under the narrow rule (below) the compiled sweep evaluates only a short
row's candidate slots, so a visit costs O(row), not O(k).

A solve makes one call per restart to a C library, _sweep.c, compiled on
first use and cached (see _kernel): the call runs every cycle, the fine
level's local moves and then a coarsening pass, which builds each coarse
level (below) and runs its local moves, and rebuilds the fine state after a
pass that merged; where the library cannot be built or loaded, a solve raises
OSError naming the reason. Each pass asks a Python callback for its work, so
Python allocates every buffer of a solve. Each level draws its sweeps' orders
from the solve's numpy bit generator as Generator.permutation(n) does (a
Fisher-Yates shuffle by numpy's random_interval on next_uint32), so the
generator keeps numpy's stream; a numpy release that changes that draw fails
the level equivalence test. The kernel follows one summation rule: the
rank-one part is W = 0 + s_1 U_1 + s_2 U_2 + ..., added in term order with
every product rounded on its own (no fused multiply-add); the row sums are
added to it and the self term, summed by the same rule, is subtracted.
_node_gain_vector, which the oracles call, follows it too and gives the
kernel's bits; a BLAS gemv follows no fixed order and differs in the last
bit.

Dirty-set sweeps skip visits that provably cannot move. The skip is exact
under the sign rule: every rank-one coefficient (the constant's included) is
<= 0 and every factor is >= 0, so every pair outside the sparse rows holds a
value <= 0, and a slot holding none of node i's row neighbours has W_i <= 0,
the fresh slot's value. The rule is checked once per level; coarse factors
are sums of fine ones, so coarse levels keep it. Modularity, ppm-likelihood
and walk queries, raw or exact-corrected, satisfy it; a positive corrected
constant breaks it (73-76 of the desk grid search's 143 cells on PPM n=200
samples). When node j moves from slot b to slot c, the nodes whose best gain
over staying can have risen are marked dirty: j's row neighbours, the
members of c, and every node with a row neighbour among the members of b.
The compiled sweep keeps each slot's members in a list while it tracks, so
the marks of a move cost O(members of b and c, and the rows of b's), not
O(n). Any other node's gains stayed or fell, so a node that has not been
marked since its last visit would not move and is skipped. Under the sign
rule every sweep of a level tracks, from the first, and a level starts with
every node dirty; on a level where the rule fails every node is visited.
After a cycle whose coarse levels merged communities, the fine level starts
again with every node dirty. The visit order and every computed visit are
unchanged, so the partition is the same as with full sweeps.

Narrow visits. _Instance.narrow_rule holds when the sign rule does and the
last term has a coefficient c < 0 and positive integer factors, whose slot
sums are then exact member counts: a negative query constant (factor 1, the
supernode sizes at coarse levels), or raw cl-modularity's degree term on a
graph without isolated nodes. Under it, the compiled sweep computes W for
node i only at its candidate slots (those of its row neighbours, its own and
the empty last one) whenever 4 * (row + 2) < the slots in use. Any other
live slot a holds W(a) <= c * f_i * count(a) < 0 = W(empty), so it can be
neither the argmax nor tied with it; each candidate's W is the same ordered
sum, ties go to the lowest slot, and every move keeps its bits. Two bounds
keep that true in floating point. Round-off can leave a slot sum of factors
>= 0 just below zero: the kernel tracks how far, and a visit whose bound
could lift a non-candidate to 0 scans every slot. A slot emptied during the
sweep holds W of about 0: while one exists, a narrow top that does not beat
their bound is redone as a full scan. debug_checks checks every narrow visit
against a full scan, and the solve's record counts them.

A level's sparse part is its CSR rows, columns ascending; its pairs are the
rows' upper entries (column > row), in row order. The same library builds
every level. The fine rows are the query's support layout
(PairVector.support_rows, from _kernel._rows): a counting sort of the
sorted pair ids in two passes, first each pair's lower entry and then its
upper one, so the columns of every row ascend, with each entry's pair
index. Every vector on one support (a query, its scaled and corrected
copies, the grid's cells on one sparse part, a graph's edge-set queries
and the graph) shares that layout, built once; a solve gathers values[pos]. A query
that holds an exact zero (an underflowed scaled value) gets rows of its
nonzero pairs alone, built for that solve and not shared. A coarse level
maps the pairs below through the community labels and sums them by one rule
(pairsphere_aggregate): coarse pair a < b gets M[a, b] + M[b, a], where
M[a, b] is the sum, from 0 and in row order, of the fine pairs whose ends
carry labels (a, b); zero sums are dropped. When the k supernodes give
k * (k - 1) at most the CSR entry count of the level below, one pass sums
the pairs into a dense k x k block, no larger than that level; otherwise a
stable counting sort by label lines each cell's pairs up in row order,
without k * k memory. The same call turns the coarse pairs' ids into the
coarse rows by the same counting sort and gathers their weights, and the
pass sums the coarse factors from 0 in node order.

For small instances an exhaustive enumerator over set partitions provides an
exact reference optimum.
"""

from __future__ import annotations

import ctypes
import math
import operator
import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from ._kernel import _WORK, _address, _compiled, _rows
from .clustering import Partition, query_alignment
from .geometry import PairVector, _smooth_terms_with_constant


# A move must gain more than EPS_SCALE * |q| * sqrt(N) (guards against move
# cycling from round-off); the sweep and cycle caps end a solve with a warning.
EPS_SCALE = 1e-12
MAX_SWEEPS = 1000
MAX_CYCLES = 50


@dataclass
class _Instance:
    """A query vector unpacked into solver-friendly arrays: CSR rows of the
    symmetric sparse part (columns ascending, no zero entry) and the smooth
    part as K rank-one terms coefs[k] * factors[k] factors[k]^T; the oracles
    slice them in place. sign_rule: is every pair outside the sparse rows
    <= 0. narrow_rule: does the sign rule hold with a last term of
    coefficient < 0 and positive integer factors (such as the query constant:
    ones, summed to supernode sizes at coarse levels), so that the compiled
    sweep may visit a node's candidate slots only. The compiled library
    checks both, here and at every coarse level (pairsphere_rules)."""

    n: int
    indptr: np.ndarray
    nbr: np.ndarray
    wts: np.ndarray
    coefs: np.ndarray  # (K,)
    factors: np.ndarray  # (K, n)

    def __post_init__(self):
        # the compiled library reads these through raw pointers
        self.indptr, self.nbr = (np.ascontiguousarray(a, dtype=np.int64) for a in (self.indptr, self.nbr))
        self.wts, self.coefs, self.factors = (
            np.ascontiguousarray(a, dtype=np.float64) for a in (self.wts, self.coefs, self.factors)
        )
        if self.factors.shape != (self.coefs.size, self.n) or self.indptr.shape != (self.n + 1,):
            raise ValueError("factors must be (K, n) and indptr (n + 1,)")
        if not self.nbr.size == self.wts.size == self.indptr[-1]:
            raise ValueError("the rows must hold indptr[-1] neighbours and weights")
        rules = _compiled().pairsphere_rules(self.n, self.coefs.size, _address(self.coefs), _address(self.factors))
        self.sign_rule, self.narrow_rule = rules > 0, rules > 1

    @classmethod
    def from_pair_vector(cls, q: PairVector) -> "_Instance":
        n, vals = q.n, q.values
        if vals.all():
            indptr, nbr, pos = q.support_rows()
        else:  # the rows hold no explicit zero
            nz = np.flatnonzero(vals)
            vals = vals[nz]
            indptr, nbr, pos = _rows(n, q.pair_ids[nz])
        wts = vals[pos]
        terms = list(_smooth_terms_with_constant(q))  # a constant c is the term c * 11^T, last
        coefs = np.array([c for c, _ in terms], dtype=np.float64)
        factors = np.array([u for _, u in terms], dtype=np.float64).reshape(len(terms), n)
        return cls(n, indptr, nbr, wts, coefs, factors)


def _slot_sums(factors: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """(K, k) sums of every factor row over the nodes carrying each label."""
    sums = [np.bincount(labels, weights=f, minlength=k) for f in factors]
    return np.array(sums).reshape(len(factors), k)


class SolverState:
    """A membership plus per-community aggregates, for the oracles
    (move_gain, max_single_move_gain); a solve keeps its state in the
    buffers of its one compiled call (_solve).

    For every rank-one term k and compact slot a, U[k, a] holds the sum of the
    term's factor over the slot's members; the last slot is empty and zero.
    The tracked objective is the inner product with the clustering vector of
    the current membership: the caller passes its starting value, and moves
    add their gains.
    """

    def __init__(self, inst: _Instance, membership, objective: float):
        self.inst = inst
        labels, self.membership = np.unique(membership, return_inverse=True)
        if self.membership.shape != (inst.n,):
            raise ValueError("membership must assign every node")
        self.U = _slot_sums(inst.factors, self.membership, labels.size + 1)
        self.objective = objective

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


def _node_gain_vector(state: SolverState, i: int) -> tuple[np.ndarray, float]:
    """Node i's gains W_i(a) = sum of q_ij over j in slot a, j != i, for every
    slot a at once (the empty last slot reads 0: a fresh community), and
    W_i(own). The rank-one part is summed in term order, as the compiled
    sweep sums it (a BLAS gemv may reorder or fuse it and differ in the last
    bit); the row's weights are then summed by slot and the self term is
    subtracted."""
    inst, memb = state.inst, state.membership
    cur, lo, hi = memb.item(i), inst.indptr.item(i), inst.indptr.item(i + 1)
    f = inst.factors[:, i]
    s = inst.coefs * f
    W = (s[:, None] * state.U).sum(0)
    W += np.bincount(memb[inst.nbr[lo:hi]], inst.wts[lo:hi], W.size)
    W[cur] -= reduce(operator.add, (s * f).tolist(), 0.0)  # from 0.0 in term order, as _sweep.c sums it
    return W, W.item(cur)


# a compiled solve's negative return, with the node in info[10]
_FAULTS = {-1: "skipped node {} would move", -3: "narrow visit of node {} differs from the full scan"}


def louvain_project(
    q: PairVector, seed: int = 0, *, restarts: int = 1, debug_checks: bool = False
) -> Partition:
    """Greedy local-move projection.

    Starts from singletons; sweeps best-gain single-node relabelings in a
    seeded random order (each sweep's order is rng.permutation(n), drawn in
    the compiled library; ties to the lowest slot), then builds coarse levels
    of supernodes, and repeats the cycle until the objective stops improving
    (see _solve). The returned partition admits no improving single-node
    relabel at the finest level.

    restarts > 1 runs that many independent greedy passes (seed streams
    derived from the given seed) and keeps the best objective; the result is
    still deterministic for a fixed seed. debug_checks compares the tracked
    objective and the slot table with fresh recomputations after every cycle,
    and evaluates every skipped visit to assert that it would not move.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    eps = EPS_SCALE * q.norm() * math.sqrt(q.N)
    if not math.isfinite(eps):  # no move could pass an infinite threshold: the solve would return singletons
        raise ValueError(f"the query's norm {q.norm()} is not finite, so no move threshold can be set")
    inst = _Instance.from_pair_vector(q)
    rngs = (np.random.default_rng([seed, r] if restarts > 1 else seed) for r in range(restarts))
    solves = (_solve(inst, q, rng, eps, debug_checks) for rng in rngs)
    return Partition(max(solves, key=lambda solve: solve[1])[0])  # first best wins


def _solve(inst: _Instance, q: PairVector, rng, eps: float, debug_checks: bool) -> tuple:
    """One restart from singletons in one call to the compiled library
    (pairsphere_solve), which runs every cycle. Returns the membership
    reached (compact labels), its tracked objective and the call's record:
    [5] to [8] the fine levels' sweeps and visits made, skipped and narrow,
    [9] and [20] the fine and coarse levels that the sweep cap ended, [11]
    the coarse levels, [23] the cycles. The call asks each pass's work of a
    callback, which holds it until the next request; under debug_checks the
    call also calls it after each cycle, and each call first runs
    _check_cycle. An error in the callback reaches the library as a null
    pointer, and is raised here once the call returns."""
    n, K = inst.n, inst.coefs.size
    ld = -(-(2 * n + 1) // 4) * 4  # n + 1 slots between sweeps, one more per visit, in the kernel's blocks of 4
    memb, U, dirty = np.empty(n, dtype=np.int64), np.empty((K, ld)), np.empty(n, dtype=np.uint8)
    work = np.empty(2 * n + 4 * ld + 2 * K)  # the level's order, then its sweeps' B, S, neg, cand, head, next, mark
    info = np.zeros(25, dtype=np.int64)
    info[1:5] = inst.sign_rule, inst.narrow_rule, debug_checks, MAX_SWEEPS
    info[22] = MAX_CYCLES
    objective = np.array([-q.total()])  # singletons: no intra pair
    held, raised = [], []

    def pass_work(words: int):
        try:
            if debug_checks:
                _check_cycle(q, inst, memb, U[:, : info[0]], objective.item())
            held.clear()  # the last pass's work goes before the next is allocated
            held.append(np.empty(words, dtype=np.int64))
        except MemoryError:
            raised.append(MemoryError(f"cannot allocate the {words} words of work of a coarsening pass"))
            return None
        except BaseException as exc:  # raised below, once the call returns
            raised.append(exc)
            return None
        return held[0].ctypes.data

    bitgen = rng.bit_generator
    with bitgen.lock:
        code = _compiled().pairsphere_solve(
            n, K, *map(_address, (inst.coefs, inst.factors, inst.indptr, inst.nbr, inst.wts, memb, U)), ld,
            _address(info), _address(dirty), eps, _address(objective), bitgen.ctypes.state_address,
            ctypes.c_void_p.from_buffer(bitgen.ctypes.next_uint32).value, _address(work), _WORK(pass_work),
        )
    if raised:
        raise raised[0]
    if code < 0:
        raise AssertionError(_FAULTS[code].format(info[10]))
    for _ in range(info[9] + info[20]):
        warnings.warn("sweep cap reached before local convergence")
    if info[24]:
        warnings.warn("cycle cap reached before convergence")
    return memb, objective.item(), info


def _check_cycle(q: PairVector, inst: _Instance, memb: np.ndarray, U: np.ndarray, objective: float) -> None:
    """debug_checks' test of a solve's fine state: the tracked objective
    against the alignment of the membership, and the slot table (live slots,
    then the empty one) against fresh slot sums."""
    drift = abs(query_alignment(q, Partition(memb)) - objective)
    if drift > 1e-6 * max(1.0, abs(objective)):
        raise AssertionError(f"tracked objective drifted by {drift:.3e}")
    fresh = _slot_sums(inst.factors, memb, U.shape[1])
    scale = np.abs(inst.factors).sum(axis=1, keepdims=True)  # bounds every slot sum
    if U[:, -1].any() or np.any(np.abs(U - fresh) > 1e-9 * scale):
        raise AssertionError("slot table drifted from the membership")


def exact_project(q: PairVector, cap: int = 12) -> Partition:
    """Exhaustive optimum over all set partitions, enumerated as
    restricted-growth strings. Ties break toward the lexicographically
    smallest canonical membership. Feasible only for small n (at most cap)."""
    n = q.n
    if n > cap:
        raise ValueError(f"exact projection capped at n={cap} (got n={n})")
    Q = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            Q[i, j] = Q[j, i] = q.entry(i, j)
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

