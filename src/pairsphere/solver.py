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

A sweep's visits run in one call to a C kernel, _sweep.c, compiled on first
use and cached (see _load_kernel), which also builds the levels (below);
where it cannot be built or loaded, numpy runs both instead. SWEEP_KERNEL
names the kernel that runs ("c" or "numpy"), and SWEEP_KERNEL_REASON says
why the numpy one does. The two sweeps give the same bits because both
follow one summation rule: the rank-one part is W = 0 + s_1 U_1 + s_2 U_2 +
..., added in term order with every product rounded on its own (no fused
multiply-add); the row sums are added to it and the self term, summed by
the same rule, is subtracted. A BLAS gemv follows no fixed order and
differs in the last bit.

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
The compiled sweep keeps each slot's members in a list while it tracks, so
the marks of a move cost O(members of b and c, and the rows of b's), not
O(n). Any other node's gains stayed or fell, so a node that has not been
marked since its last visit would not move and is skipped. Marking starts on
a level's sweep after the first one that moves fewer than TRACK_BELOW * n
nodes; before that, and on any level where the sign rule fails, every node
is visited. After a cycle whose coarse levels merged communities, the fine
level starts again with every node dirty and keeps tracking. The visit order
and every computed visit are unchanged, so the partition is the same as with
full sweeps.

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
against a full scan, and SolverState.narrow counts them. The numpy sweep
always scans every slot.

A level's sparse part is its CSR rows, columns ascending; its pairs are the
rows' upper entries (column > row), in row order. The same library builds
every level. _rows turns the query's sorted pair list into the fine rows by
a counting sort in two passes, first each pair's lower entry and then its
upper one, so the columns of every row ascend and no value is summed. A
coarse level maps the pairs below through the community labels and sums
them by one rule (_aggregate): coarse pair a < b gets M[a, b] + M[b, a],
where M[a, b] is the sum, from 0 and in row order, of the fine pairs whose
ends carry labels (a, b); zero sums are dropped. When the k supernodes give
k * (k - 1) at most the CSR entry count of the level below, one pass sums the
pairs into a dense k x k block, no larger than that level; otherwise a
stable counting sort by label lines each cell's pairs up in row order,
without k * k memory. The same call turns the coarse pairs into the coarse
rows. The numpy fallback follows the same rule (np.unique numbers the
unordered cells, one bincount per orientation sums them, and scipy builds the
rows, which sums nothing here), so both kernels give the same bytes at every
level.

For small instances an exhaustive enumerator over set partitions provides an
exact reference optimum.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import shutil
import subprocess
import sysconfig
import tempfile
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp  # the numpy fallback's rows (_build_csr)

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

# The compiled sweep: _sweep.c built with these flags (-ffp-contract=off keeps
# every product and sum rounded on its own, as numpy rounds them).
_SOURCE = Path(__file__).with_name("_sweep.c")
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
# The parameters of _sweep.c's functions, as it lists them. Keep each under 20:
# with 20, each call left a 200-byte block that only a gc pass freed
# (tracemalloc), which raised grid-desk's peak RSS by about 0.4 MB.
_KERNEL_ARGS = {
    "pairsphere_sweep": (
        (ctypes.c_int64,) * 2 + (ctypes.c_void_p,) * 6 + (ctypes.c_int64,) + (ctypes.c_void_p,) * 2
        + (ctypes.c_int64,) + (ctypes.c_void_p,) * 2 + (ctypes.c_int32,) * 2 + (ctypes.c_double,)
        + (ctypes.c_void_p,) * 2
    ),
    "pairsphere_rows": (ctypes.c_int64,) * 2 + (ctypes.c_void_p,) * 6,
    "pairsphere_aggregate": (ctypes.c_int64,) + (ctypes.c_void_p,) * 4 + (ctypes.c_int64,) + (ctypes.c_void_p,) * 4,
}
_kernel = None  # (_Kernels or None, reason), set by _compiled on first use


class _Kernels(NamedTuple):
    """The functions of the compiled library: a sweep's visits, the fine
    level's rows from its pair list, and the rows of the level above."""

    sweep: object
    rows: object
    aggregate: object


@dataclass
class _Instance:
    """A query vector unpacked into solver-friendly arrays: CSR rows of the
    symmetric sparse part (columns ascending, no zero entry), the smooth part
    as K rank-one terms coefs[k] * factors[k] factors[k]^T, and per-node
    views for the numpy sweep. sign_rule: is every pair outside the sparse
    rows <= 0. narrow_rule: does the sign rule hold
    with a last term of coefficient < 0 and positive integer factors (such as
    the query constant: ones, summed to supernode sizes at coarse levels), so
    that the compiled sweep may visit a node's candidate slots only."""

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
        self.sign_rule = bool(np.all(self.coefs <= 0.0) and np.all(self.factors >= 0.0))
        counts = self.factors[-1] if self.coefs.size else None
        self.narrow_rule = bool(
            self.sign_rule and counts is not None and self.coefs[-1] < 0.0 and np.all(counts >= 1.0)
            and np.all(counts == np.floor(counts)) and counts.sum() < 2.0**53
        )

    # Built on first use: the compiled sweep reads the arrays through their
    # addresses, and only the numpy sweep, move_gain and the oracles read the
    # per-node views.

    @cached_property
    def addresses(self) -> tuple:
        """Addresses of coefs, factors, indptr, nbr and wts, for the compiled
        sweep; the instance holds the arrays."""
        return tuple(a.ctypes.data for a in (self.coefs, self.factors, self.indptr, self.nbr, self.wts))

    @cached_property
    def scaled(self) -> list:
        """Per node i, the row view coefs * factors[:, i]."""
        return list(np.ascontiguousarray((self.coefs[:, None] * self.factors).T))

    @cached_property
    def self_terms(self) -> list:
        """Per node i, sum_k coefs[k] * factors[k, i]^2 as a float, summed in
        term order (the rule _gains follows)."""
        return (self.coefs[:, None] * self.factors * self.factors).sum(0).tolist()

    @cached_property
    def rows(self) -> list:
        """Per node i, its (neighbours, weights) row views."""
        b = self.indptr.tolist()  # plain slices: np.split costs ~5x more per row
        return [(self.nbr[s:e], self.wts[s:e]) for s, e in zip(b[:-1], b[1:])]

    @classmethod
    def from_pair_vector(cls, q: PairVector) -> "_Instance":
        n = q.n
        ii, jj = q.sparse_members()
        vals = q.values
        if not vals.all():  # the rows hold no explicit zero
            nz = vals != 0.0
            ii, jj, vals = ii[nz], jj[nz], vals[nz]
        indptr, tails, wts = _rows(n, ii, jj, vals)
        terms = list(_smooth_terms_with_constant(q))  # a constant c is the term c * 11^T, last
        coefs = np.array([c for c, _ in terms], dtype=np.float64)
        factors = np.array([u for _, u in terms], dtype=np.float64).reshape(len(terms), n)
        return cls(n, indptr, tails, wts, coefs, factors)


def _slot_sums(factors: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """(K, k) sums of every factor row over the nodes carrying each label."""
    sums = [np.bincount(labels, weights=f, minlength=k) for f in factors]
    return np.array(sums).reshape(len(factors), k)


def _rows(n: int, pi: np.ndarray, pj: np.ndarray, pv: np.ndarray) -> tuple:
    """(indptr, nbr, wts): the CSR rows of the symmetric n x n matrix holding
    pv[t] at (pi[t], pj[t]) and (pj[t], pi[t]), from a pair list sorted by
    (pi, pj) with pi < pj and no repeats, nor zero values. In the compiled
    library where it loaded (a counting sort), in _build_csr otherwise; no
    value is summed, so both give the same bytes. The compiled builder
    raises ValueError on a list out of that order."""
    kernels = _compiled()
    if kernels is None:
        return _build_csr(n, pi, pj, pv)
    pi, pj = (np.ascontiguousarray(a, dtype=np.int64) for a in (pi, pj))
    pv = np.ascontiguousarray(pv, dtype=np.float64)
    if not pi.size == pj.size == pv.size:
        raise ValueError("pi, pj and pv must have the same length")
    indptr = np.zeros(n + 1, dtype=np.int64)
    nbr, wts = np.empty(2 * pi.size, dtype=np.int64), np.empty(2 * pi.size)
    if pi.size:
        code = kernels.rows(n, pi.size, *map(_address, (pi, pj, pv, indptr, nbr, wts)))
        if code < 0:
            raise ValueError(f"pair {-1 - code} breaks the order (pi, pj), pi < pj < {n}, without repeats")
    return indptr, nbr, wts


def _build_csr(n, ii, jj, values):
    """Rows of the symmetric n x n matrix holding each value at (i, j) and
    (j, i), in scipy: the reference for _rows and its fallback. Index arrays
    come back as int64, which the per-visit slicing and fancy indexing read
    without a cast."""
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
    the node visits made and skipped, and narrow the visits that scanned only
    their candidate slots (compiled sweep only). check_skips evaluates every
    skipped visit and asserts that it would not move, and checks every narrow
    visit against a scan of every slot.
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
        self.narrow = 0

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


def _gains(srow, U, memb, nbr, wts, cur: int, self_term: float) -> np.ndarray:
    """W_i(a) = sum of q_ij over j in slot a, j != i, for every slot a at once
    (the empty last slot reads 0: a fresh community), from node i's row of
    scaled factors, its (neighbours, weights) row, its slot and its self term.
    The rank-one part is summed in term order, as the compiled sweep sums it
    (a BLAS gemv may reorder or fuse it and differ in the last bit)."""
    W = (srow[:, None] * U).sum(0)
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
    visits run in the compiled kernel when it loaded, in _visit_numpy
    otherwise; both give the same bits. The sweep ends by relabelling slots to
    the live communities, in label order with their sums kept, plus one empty
    slot last.
    """
    kernels = _compiled()
    if kernels is None:
        moves, skipped, U = _visit_numpy(state, order, eps / 2.0)
    else:
        moves, skipped, U = _visit_c(kernels.sweep, state, order, eps / 2.0)
    state.visits += order.size - skipped
    state.skipped += skipped
    live = np.bincount(state.membership, minlength=U.shape[1]) > 0
    live[-1] = True  # the empty last slot stays, zero
    state.membership = (np.cumsum(live) - 1)[state.membership]
    state.U = U[:, live]
    return moves


def _visit_c(kernel, state: SolverState, order: np.ndarray, half_eps: float) -> tuple[int, int, np.ndarray]:
    """The visits of _sweep in _sweep.c; returns the moves, the visits skipped
    and the slot table, whose used columns are the old ones plus one per move
    into the empty slot, and adds the narrow visits to state.narrow. A visit
    makes at most one move, so k + len(order) columns (rounded up to the
    kernel's blocks of 4) have room for all of them."""
    if not order.size:
        return 0, 0, state.U
    inst = state.inst
    order = np.ascontiguousarray(order, dtype=np.int64)
    memb = state.membership = np.ascontiguousarray(state.membership, dtype=np.int64)
    K, k = state.U.shape
    ld = -(-(k + order.size) // 4) * 4
    buf = np.zeros((K + 4) * ld + 2 * K + inst.n)  # the table, then the work: B, S, neg, cand, head, next, mark
    U = buf[: K * ld].reshape(K, ld)
    U[:, :k] = state.U
    info = np.array([k, 0, 0, inst.narrow_rule], dtype=np.int64)
    objective = np.array([state.objective])
    table = _address(buf)
    moves = kernel(
        inst.n, K, *inst.addresses, _address(order), order.size, _address(memb), table, ld, _address(info),
        _address(state.dirty), state.tracking, state.check_skips, half_eps, _address(objective),
        table + U.nbytes,
    )
    if moves == -1:
        raise AssertionError(f"skipped node {info[2]} would move")
    if moves == -2:
        raise ValueError(f"sweep order holds {info[2]}, not a node of 0..{inst.n - 1}")
    if moves == -3:
        raise AssertionError(f"narrow visit of node {info[2]} differs from the full scan")
    state.objective = objective.item()
    state.narrow += info.item(3)
    return moves, info.item(1), U[:, : info.item(0)]


def _address(a) -> int:
    """The address of a C-contiguous, non-empty buffer: for a writable one
    at about a third of the cost of ndarray.ctypes.data."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except TypeError:  # read-only
        return a.ctypes.data


def _visit_numpy(state: SolverState, order: np.ndarray, half_eps: float) -> tuple[int, int, np.ndarray]:
    """The visits of _sweep in numpy, the reference for _sweep.c; returns the
    moves, the visits skipped and the slot table.

    A visit is _gains (the node's K scaled factors times the K x k slot
    table, summed over the terms, one bincount of its row's weights by slot,
    one self-term subtraction), an argmax and three .item() reads. The
    per-node handles and the state's arrays are bound to locals once per
    sweep, and a move updates the table in place; only a move into the empty
    slot copies it, to append a new empty slot.
    """
    inst = state.inst
    scaled, rows, self_terms, factors = inst.scaled, inst.rows, inst.self_terms, inst.factors
    memb, U = state.membership, state.U
    dirty, tracking, check_skips = state.dirty, state.tracking, state.check_skips
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
    return moves, skipped, U


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

    One call to the compiled library sums the level's pairs (its rows' upper
    entries) by the one rule (see the module docstring) and writes the coarse
    rows; without it, _coarse_pairs_numpy sums them and _build_csr makes the
    rows, with the same bytes. A label outside 0..k-1 raises ValueError in
    the compiled library.
    """
    k = int(membership.max()) + 1
    factors = _slot_sums(inst.factors, membership, k)
    kernels = _compiled()
    if kernels is None:
        return _Instance(k, *_build_csr(k, *_coarse_pairs_numpy(inst, membership, k)), inst.coefs, factors)
    labels = np.ascontiguousarray(membership, dtype=np.int64)
    if labels.shape != (inst.n,):
        raise ValueError("labels must label every node of the level")
    m = inst.nbr.size // 2
    room = min(m, k * (k - 1) // 2)  # every coarse pair, at most
    indptr, nbr, wts = np.zeros(k + 1, dtype=np.int64), np.empty(2 * room, dtype=np.int64), np.empty(2 * room)
    size = 0
    if room:
        work = np.empty(3 * room + 4 * m + 2 * k + 2, dtype=np.int64)  # the kernel zeroes what it reads
        fine = map(_address, (inst.indptr, inst.nbr, inst.wts, labels))
        size = kernels.aggregate(inst.n, *fine, k, *map(_address, (indptr, nbr, wts, work)))
        if size < 0:
            raise ValueError(f"node {-1 - size} carries a label outside 0..{k - 1}")
    return _Instance(k, indptr, nbr[: 2 * size], wts[: 2 * size], inst.coefs, factors)


def _coarse_pairs_numpy(inst: _Instance, labels: np.ndarray, k: int) -> tuple:
    """The coarse pairs (pi, pj, pv) of _aggregate in numpy, sorted by
    (pi, pj), the reference for the compiled library: each cross pair is keyed
    by its unordered cell lo * k + hi, one bincount sums each orientation in
    row order, and the two sums add as M[lo, hi] + M[hi, lo] (0.0 + x is x:
    a bincount sum is never -0.0)."""
    heads = np.repeat(np.arange(inst.n), np.diff(inst.indptr))
    up = heads < inst.nbr
    a, b = labels[heads[up]], labels[inst.nbr[up]]
    cross = a != b
    a, b, w = a[cross], b[cross], inst.wts[up][cross]
    cells, cell = np.unique(np.minimum(a, b) * k + np.maximum(a, b), return_inverse=True)
    vals = np.zeros(cells.size)  # float64 even when no pair crosses
    for side in (a < b, a > b):
        vals += np.bincount(cell[side], w[side], cells.size)
    nz = vals != 0.0
    pi, pj = np.divmod(cells[nz], k)
    return pi, pj, vals[nz]


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
        if gained > 0.0:  # the fine level starts again with every node dirty
            merged = SolverState(inst, node_memb, state.objective + gained, debug_checks)
            merged.tracking = state.tracking
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


def _kernel_path() -> Path:
    """Where the compiled sweep is cached: $XDG_CACHE_HOME/pairsphere (default
    ~/.cache/pairsphere), under a name carrying the sha256 of the source, the
    flags and the platform."""
    key = hashlib.sha256(_SOURCE.read_bytes())
    key.update(" ".join(_CFLAGS).encode() + b"\0" + sysconfig.get_platform().encode())
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "pairsphere"
    return cache / f"sweep-{key.hexdigest()[:32]}.so"


def _compile(lib: Path) -> str:
    """Build _sweep.c into lib; returns "" or why not. The library gets the
    sha256 of its bytes appended (the loader ignores trailing bytes), and it
    is written to a temp file that os.replace moves into place, so processes
    compiling at once each leave a whole library."""
    cc = shutil.which("cc")
    if cc is None:
        return "no C compiler (cc) on PATH"
    try:
        lib.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=lib.parent)
    except OSError as exc:
        return f"cache not writable: {exc}"
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *_CFLAGS, "-o", tmp, str(_SOURCE)], capture_output=True, text=True, errors="replace", timeout=120
        )
        if proc.returncode != 0:
            return (proc.stderr.strip().splitlines() or [f"{cc} exited with {proc.returncode}"])[0]
        body = Path(tmp).read_bytes()
        with open(tmp, "ab") as f:
            f.write(hashlib.sha256(body).digest())
        os.chmod(tmp, 0o700)
        os.replace(tmp, lib)
        return ""
    except (OSError, subprocess.SubprocessError) as exc:
        return f"cannot compile: {exc}"
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_kernel() -> tuple:
    """(the compiled library's _Kernels, "") or (None, why numpy runs them).

    A process that finds the library loads it; otherwise it compiles it
    first. A library or cache directory that another user owns, or that group
    or others can write, is not loaded, nor is a library whose bytes do not
    end with their own sha256 (mapping a truncated library can kill the
    process with SIGBUS)."""
    try:
        lib = _kernel_path()
        if not lib.exists() and (reason := _compile(lib)):
            return None, reason
        for path in (lib.parent, lib):
            st = path.stat()
            if st.st_uid != os.getuid():
                return None, f"{path} belongs to another user"
            if st.st_mode & 0o022:
                return None, f"{path} is writable by group or others"
        data = lib.read_bytes()
        if data[-32:] != hashlib.sha256(data[:-32]).digest():
            return None, f"{lib} is damaged: its bytes do not end with their sha256"
        dll = ctypes.CDLL(str(lib))
        fns = [getattr(dll, name) for name in _KERNEL_ARGS]
    except (OSError, AttributeError, RuntimeError) as exc:  # RuntimeError: Path.home() without a home
        return None, f"cannot load the compiled library: {exc}"
    for fn, argtypes in zip(fns, _KERNEL_ARGS.values()):
        fn.argtypes = argtypes
        fn.restype = ctypes.c_int64
    return _Kernels(*fns), ""


def _compiled() -> _Kernels | None:
    """The compiled library's functions, or None where numpy runs them."""
    global _kernel
    if _kernel is None:
        _kernel = _load_kernel()
    return _kernel[0]


def __getattr__(name: str):
    """SWEEP_KERNEL ("c" or "numpy") names the sweep that runs, and
    SWEEP_KERNEL_REASON says why the numpy one does ("" for "c")."""
    if name == "SWEEP_KERNEL":
        return "numpy" if _compiled() is None else "c"
    if name == "SWEEP_KERNEL_REASON":
        _compiled()
        return _kernel[1]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
