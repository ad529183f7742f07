import ctypes
import dataclasses
import hashlib
import math
import re
import shutil
import subprocess
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from pairsphere import _kernel, geometry, graph, solver
from pairsphere.clustering import (
    Partition,
    evaluate,
    query_alignment,
    query_angular_distance,
    query_correlation_distance,
)
from pairsphere.generators import GeneratorSpec, generate
from pairsphere.geometry import LowRankTerm, PairVector
from pairsphere.graph import Graph, jaccard_vector, walk_distribution
from pairsphere.pairs import pair_members
from pairsphere.queries import QuerySpec, build_query, er_modularity_query
from pairsphere.solver import (
    SolverState,
    _Instance,
    _node_gain_vector,
    _solve,
    exact_project,
    louvain_project,
    max_single_move_gain,
    move_gain,
)
from pairsphere.tune import detect_once

from helpers import (
    FINE_COUNTERS,
    LevelState,
    all_partitions,
    apply_move,
    build_csr,
    compiled_sweep,
    dense_of,
    level_call,
    pass_call,
    random_membership,
    random_sl_vector,
    reference_aggregate,
    reference_coarsen,
    reference_local_moves,
    reference_project,
    reference_sweep,
)


def _random_query(rng, n, density=0.35):
    return random_sl_vector(rng, n, sparse_density=density)


# -- move gains ------------------------------------------------------------------


def test_move_gain_to_own_community_is_zero():
    rng = np.random.default_rng(0)
    q = _random_query(rng, 10)
    C = Partition(random_membership(rng, 10))
    state = SolverState.from_partition(q, C)
    for i in range(10):
        assert move_gain(state, i, int(C.membership[i])) == 0.0


def test_move_gain_constant_query_join_gain():
    # all-ones query: joining a community of size s from a singleton gains 2s
    q = PairVector.constant_vector(7, 1.0)
    C = Partition(np.array([0, 0, 0, 1, 1, 2, 3]))  # node 6 is a singleton
    state = SolverState.from_partition(q, C)
    assert move_gain(state, 6, 0) == pytest.approx(6.0)
    assert move_gain(state, 6, 1) == pytest.approx(4.0)


def test_move_gain_matches_full_reevaluation():
    rng = np.random.default_rng(1)
    for _ in range(20):
        q = _random_query(rng, 15)
        memb = random_membership(rng, 15)
        C = Partition(memb)
        state = SolverState.from_partition(q, C)
        i = int(rng.integers(15))
        target = int(rng.integers(C.k + 1))  # may be a fresh community
        before = query_alignment(q, Partition(C.membership))
        after_memb = C.membership.copy()
        after_memb[i] = target if target < C.k else C.k
        after = query_alignment(q, Partition(after_memb))
        tgt_slot = target if target < C.k else int(np.argmin(np.bincount(state.membership, minlength=15)))
        got = move_gain(state, i, tgt_slot)
        assert got == pytest.approx(after - before, rel=1e-9, abs=1e-9)


def test_state_objective_matches_alignment():
    rng = np.random.default_rng(2)
    q = _random_query(rng, 12)
    C = Partition(random_membership(rng, 12))
    state = SolverState.from_partition(q, C)
    assert state.objective == pytest.approx(query_alignment(q, C), rel=1e-10)


# -- compact slot table -------------------------------------------------------------

QUERY_KINDS = {
    "sparse-only": dict(n_terms=0, with_constant=False),
    "constant-only": dict(n_terms=0, with_constant=True),
    "mixed": dict(n_terms=2, with_constant=True),
    # sparse rows under the sign rule with a negative constant: the compiled
    # sweep's narrow visits run
    "sign-rule": dict(n_terms=2, with_constant=True, sign_rule=True, sparse_density=0.1),
}


def _assert_compact(state):
    """Labels 0..k-1, each used (what the coarsening pass relies on), and a
    slot table of the k live slots plus one empty slot."""
    k = state.U.shape[1] - 1
    np.testing.assert_array_equal(np.unique(state.membership), np.arange(k))
    assert state.U.shape[0] == state.inst.factors.shape[0]
    assert not state.U[:, -1].any()


@pytest.mark.parametrize("kind", QUERY_KINDS)
def test_slot_table_holds_live_communities_plus_one_empty_slot(kind):
    rng = np.random.default_rng(list(QUERY_KINDS).index(kind))
    for trial in range(10):
        n = int(rng.integers(5, 30))
        q = random_sl_vector(rng, n, **{"sparse_density": 0.3, **QUERY_KINDS[kind]})
        C = Partition(random_membership(rng, n))
        state = LevelState.from_partition(q, C)
        _assert_compact(state)
        eps = 1e-12 * q.norm() * math.sqrt(q.N)
        while compiled_sweep(state, rng.permutation(n), eps):
            _assert_compact(state)
            assert state.objective == pytest.approx(
                query_alignment(q, Partition(state.membership)), rel=1e-9, abs=1e-9
            )
        _assert_compact(state)


def test_move_into_empty_slot_appends_a_zero_column():
    rng = np.random.default_rng(20)
    q = random_sl_vector(rng, 8, n_terms=2)
    state = SolverState.from_partition(q, Partition(np.array([0, 0, 0, 1, 1, 2, 2, 2])))
    fresh = state.U.shape[1] - 1
    assert fresh == 3
    apply_move(state, 0, fresh, move_gain(state, 0, fresh))
    assert state.U.shape[1] == 5
    assert not state.U[:, -1].any()
    np.testing.assert_array_equal(state.U[:, fresh], state.inst.factors[:, 0])
    assert state.objective == pytest.approx(query_alignment(q, Partition(state.membership)), rel=1e-12)


@pytest.mark.parametrize("kind", QUERY_KINDS)
def test_node_gain_vector_matches_dense_on_every_slot(kind):
    rng = np.random.default_rng(30 + list(QUERY_KINDS).index(kind))
    for _ in range(10):
        n = int(rng.integers(3, 12))
        q = random_sl_vector(rng, n, **{"sparse_density": 0.4, **QUERY_KINDS[kind]})
        Q = np.zeros((n, n))
        iu, ju = np.triu_indices(n, k=1)
        Q[iu, ju] = dense_of(q)
        Q += Q.T
        state = LevelState.from_partition(q, Partition(random_membership(rng, n)))
        k = state.U.shape[1]  # live slots plus the empty last one
        for i in range(n):
            W, w_cur = _node_gain_vector(state, i)
            ref = np.bincount(state.membership, weights=Q[i], minlength=k)  # Q[i, i] = 0
            np.testing.assert_allclose(W, ref, rtol=1e-9, atol=1e-12)
            assert ref[-1] == 0.0 and w_cur == W[state.membership[i]]


@pytest.mark.parametrize("K", range(6))
def test_node_gain_vector_keeps_the_bits_of_the_matmul_form(K):
    """The gains keep the bits of the (n, K) matrix's row times U summed over
    the terms in order, from 0.0 and with no fused multiply-add (the rule
    _sweep.c follows), on fresh, grown and relabelled tables."""
    rng = np.random.default_rng(60 + K)
    for trial in range(6):
        n = int(rng.integers(4, 40))
        terms = tuple(LowRankTerm(rng.normal(), rng.normal(size=n)) for _ in range(K))
        pairs = {(i, j): rng.normal() for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3}
        q = PairVector.from_pairs(n, pairs, terms, 0.0)
        state = LevelState.from_partition(q, Partition(random_membership(rng, n)))
        scaled = np.ascontiguousarray((state.inst.coefs[:, None] * state.inst.factors).T)
        for sweep in range(3):
            for i in range(n):
                W, w_cur = _node_gain_vector(state, i)
                lo, hi = state.inst.indptr[i], state.inst.indptr[i + 1]
                nbr, wts = state.inst.nbr[lo:hi], state.inst.wts[lo:hi]
                ref, self_term = np.zeros(state.U.shape[1]), 0.0
                for k in range(K):
                    ref += scaled[i, k] * state.U[k]
                    self_term += scaled[i, k] * state.inst.factors[k, i]
                ref += np.bincount(state.membership[nbr], weights=wts, minlength=ref.size)
                cur = int(state.membership[i])
                ref[cur] -= self_term
                assert W.tobytes() == ref.tobytes() and w_cur == float(ref[cur])
            compiled_sweep(state, rng.permutation(n), 0.0)


@pytest.mark.parametrize("tracking", [False, True], ids=["full", "tracking"])
@pytest.mark.parametrize("kind", QUERY_KINDS)
def test_sweep_matches_the_per_visit_reference(kind, tracking):
    """helpers.compiled_sweep against helpers.reference_sweep, sweep after
    sweep: the same moves, membership, slot table, objective, counters and
    marks, bit for bit, with the empty slot going live along the way; every
    sweep leaves compact labels. The sign-rule queries take the narrow
    visits."""
    rng = np.random.default_rng(70 + 2 * list(QUERY_KINDS).index(kind) + tracking)
    grew = skipped = narrow = 0
    for trial in range(8):
        n = int(rng.integers(5, 40))
        q = random_sl_vector(rng, n, **{"sparse_density": 0.3, **QUERY_KINDS[kind]})
        start = random_membership(rng, n, k_max=4) if trial % 2 else np.arange(n)
        inst, eps = _Instance.from_pair_vector(q), 1e-12 * q.norm() * math.sqrt(q.N)
        new, ref = (LevelState(inst, start, query_alignment(q, Partition(start))) for _ in range(2))
        if tracking:
            marks = rng.random(n) < 0.5
            for state in (new, ref):
                state.dirty[:] = marks
        for _ in range(30):
            live = new.U.shape[1] - 1
            order = rng.permutation(n)
            moves = compiled_sweep(new, order, eps, tracking)
            assert reference_sweep(ref, order, eps, tracking) == moves
            assert new.membership.dtype == ref.membership.dtype
            assert new.membership.tobytes() == ref.membership.tobytes()
            assert new.U.shape == ref.U.shape and new.U.tobytes() == ref.U.tobytes()
            assert new.objective == ref.objective
            assert (new.visits, new.skipped, new.dirty.tobytes()) == (ref.visits, ref.skipped, ref.dirty.tobytes())
            _assert_compact(new)
            grew += new.U.shape[1] - 1 > live
            if moves == 0:
                break
        skipped += new.skipped
        narrow += new.narrow
    assert grew > 0
    assert (skipped > 0) == tracking
    if kind == "sign-rule":
        assert narrow > 0


def test_sweep_ties_go_to_the_lowest_slot():
    """With weights of +-1 and no rank-one part, gains tie exactly, between
    slots that hold a row neighbour of the node and slots that do not; the
    sweep breaks every tie to the lowest slot, as numpy's argmax does."""
    rng = np.random.default_rng(90)
    for trial in range(20):
        n = int(rng.integers(5, 30))
        pairs = {(i, j): rng.choice([-1.0, 1.0]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4}
        q = PairVector.from_pairs(n, pairs)
        start = random_membership(rng, n, k_max=4)
        inst = _Instance.from_pair_vector(q)
        new, ref = (LevelState(inst, start, query_alignment(q, Partition(start))) for _ in range(2))
        for _ in range(10):
            order = rng.permutation(n)
            moves = compiled_sweep(new, order, 0.0)
            assert reference_sweep(ref, order, 0.0) == moves
            assert new.membership.tobytes() == ref.membership.tobytes() and new.objective == ref.objective
            if moves == 0:
                break


# Either side of powers of two, where the order's draw changes its mask, and
# multiples of 10 up to 50, small levels between them.
LEVEL_SIZES = (2, 3, 4, 5, 8, 9, 16, 17, 20, 30, 40, 50, 1024, 1025)


@pytest.mark.parametrize("kind", QUERY_KINDS)
def test_a_level_call_matches_the_loop_of_sweeps(kind):
    """helpers.level_call, one compiled call per level, against
    helpers.reference_local_moves, one compiled sweep per rng.permutation(n):
    the same moves, membership, slot table and objective bits, counters and
    dirty marks, and the same bit generator state after, from singletons and
    from random starts (as the fine level after a merge), with check_skips
    on."""
    rng = np.random.default_rng(110 + list(QUERY_KINDS).index(kind))
    for n in LEVEL_SIZES:
        q = random_sl_vector(rng, n, **{"sparse_density": min(0.3, 8.0 / n), **QUERY_KINDS[kind]})
        inst, eps = _Instance.from_pair_vector(q), 1e-12 * q.norm() * math.sqrt(q.N)
        for start in (np.arange(n), random_membership(rng, n, k_max=max(1, n // 4))):
            objective = query_alignment(q, Partition(start))
            new, ref = (LevelState(inst, start, objective, check_skips=True) for _ in range(2))
            seed = int(rng.integers(2**32))
            new_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert level_call(new, new_rng, eps) == reference_local_moves(ref, ref_rng, eps)
            assert new.membership.dtype == ref.membership.dtype
            assert new.membership.tobytes() == ref.membership.tobytes()
            assert new.U.shape == ref.U.shape and new.U.tobytes() == ref.U.tobytes()
            assert new.objective == ref.objective
            counters = ("sweeps", "visits", "skipped", "narrow")
            assert [getattr(new, c) for c in counters] == [getattr(ref, c) for c in counters]
            assert new.dirty.tobytes() == ref.dirty.tobytes()
            assert new_rng.bit_generator.state == ref_rng.bit_generator.state
            _assert_compact(new)


def test_singletons_start_from_the_factors(monkeypatch):
    """A solve starts from singletons, each slot summing one node's factors
    from 0.0, so -0.0 factors read 0.0: the table that SolverState gives the
    start np.arange(n), bit for bit. Where no node moves (every pair
    negative), debug_checks reads that table after the cycle."""
    check_cycle, tables = solver._check_cycle, []

    def recording(q, inst, memb, U, objective):
        tables.append(U.copy())
        check_cycle(q, inst, memb, U, objective)

    monkeypatch.setattr(solver, "_check_cycle", recording)
    f = np.arange(12.0)
    f[::3] = -0.0
    for terms in ((), (LowRankTerm(-1.0, f),), (LowRankTerm(-0.5, f), LowRankTerm(-2.0, f + 1.0))):
        q = PairVector.from_pairs(12, {(0, 1): -1.0}, terms, -1.0)
        tables.clear()
        assert louvain_project(q, seed=0, debug_checks=True).k == 12
        want = SolverState(_Instance.from_pair_vector(q), np.arange(12), 0.0).U
        assert len(tables) == 1 and tables[0].tobytes() == want.tobytes()
        assert np.signbit(want).sum() == 0


SMALL_PARTITIONS = [
    (PairVector.constant_vector(1, -1.0), [0]),
    (PairVector.constant_vector(1, 1.0), [0]),
    (PairVector.from_pairs(2, {(0, 1): 1.0}), [0, 0]),
    (PairVector.from_pairs(2, {(0, 1): -1.0}), [0, 1]),
    (PairVector.from_pairs(2, {(0, 1): 0.5}, (LowRankTerm(-1.0, np.array([1.0, 2.0])),), 0.25), [0, 1]),
    (PairVector.constant_vector(2, 1.0), [0, 0]),
    (PairVector.constant_vector(2, -1.0), [0, 1]),
    (PairVector.constant_vector(1, 0.0), [0]),
    (PairVector.constant_vector(2, 0.0), [0, 1]),
    (PairVector.constant_vector(9, 0.0), list(range(9))),
    (PairVector.from_pairs(9, {}, (LowRankTerm(0.0, np.ones(9)),)), list(range(9))),
]


@pytest.mark.parametrize("q, expected", SMALL_PARTITIONS)
def test_one_and_two_nodes_and_the_zero_vector_keep_their_partitions(q, expected):
    for seed in (0, 1):
        assert louvain_project(q, seed=seed, debug_checks=True).membership.tolist() == expected


def _recording_solves(monkeypatch):
    """The records of the solves that louvain_project runs from here on."""
    solve, records = solver._solve, []

    def recording(*args):
        result = solve(*args)
        records.append(result[2])
        return result

    monkeypatch.setattr(solver, "_solve", recording)
    return records


def test_the_sweep_cap_warns_and_still_returns_a_partition(monkeypatch):
    """MAX_SWEEPS, read when each solve is called: with a cap of 1, every
    level makes one sweep, the cap warns, and the solve returns a partition.
    The solve's record counts one sweep per fine level (one per cycle) and
    per coarse level, and the solve warns once per capped level, fine (one
    that moved in its sweep) and coarse."""
    G, T = _ppm200()
    q = build_query(G, QuerySpec("cl-modularity", heuristic="exact"), T)
    records = _recording_solves(monkeypatch)
    monkeypatch.setattr(solver, "MAX_SWEEPS", 1)
    with pytest.warns(UserWarning, match="sweep cap reached before local convergence") as caught:
        C = louvain_project(q, seed=3)
    assert C.n == q.n and 1 <= C.k < q.n
    [info] = records
    assert info[23] >= 1 and info[5] == info[23]  # fine sweeps: one per cycle
    assert info[16] == info[11] > 0  # coarse sweeps: one per level
    assert info[9] > 0 and info[20] > 0
    cap_warnings = [w for w in caught if "sweep cap reached" in str(w.message)]
    assert len(cap_warnings) == info[9] + info[20]


def test_the_cycle_cap_warns_and_still_returns_a_partition(monkeypatch):
    G, T = _ppm200()
    q = build_query(G, QuerySpec("cl-modularity", heuristic="exact"), T)
    monkeypatch.setattr(solver, "MAX_CYCLES", 1)
    with pytest.warns(UserWarning, match="cycle cap reached before convergence"):
        C = louvain_project(q, seed=3)
    assert C.n == q.n and 1 <= C.k < q.n


@pytest.mark.parametrize("slot", [0, -1])
def test_debug_checks_catch_a_drifted_slot_table(monkeypatch, slot):
    """The solve's work callback runs solver._check_cycle on the solve's own
    buffers: a slot of the live table drifted there, or the empty slot made
    nonzero, raises through the compiled call."""
    check_cycle = solver._check_cycle

    def drifting(q, inst, memb, U, objective):
        U[:, slot] += 1e-12 if slot == -1 else 1e-6  # the empty slot must stay exactly 0
        check_cycle(q, inst, memb, U, objective)

    monkeypatch.setattr(solver, "_check_cycle", drifting)
    with pytest.raises(AssertionError, match="slot table"):
        louvain_project(PairVector.constant_vector(6, -1.0), seed=0, debug_checks=True)


def test_debug_checks_catch_a_drifted_objective(monkeypatch):
    """The tracked objective is checked against the membership's alignment."""
    check_cycle = solver._check_cycle

    def drifted(q, inst, memb, U, objective):
        check_cycle(q, inst, memb, U, objective + 1.0)

    monkeypatch.setattr(solver, "_check_cycle", drifted)
    with pytest.raises(AssertionError, match="tracked objective drifted by 1.000e\\+00"):
        louvain_project(PairVector.constant_vector(6, 1.0), seed=0, debug_checks=True)


# -- louvain ----------------------------------------------------------------------


def test_constant_queries():
    assert louvain_project(PairVector.constant_vector(6, -1.0), seed=0).k == 6
    assert louvain_project(PairVector.constant_vector(6, 1.0), seed=0).k == 1


def test_two_triangles_recovered_and_exact():
    G = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    q = er_modularity_query(G, 1.0)
    C = louvain_project(q, seed=3)
    assert C == Partition(np.array([0, 0, 0, 1, 1, 1]))
    # verified against exhaustive enumeration over all 203 partitions of 6 nodes
    objs = [query_alignment(q, Partition(np.array(m))) for m in all_partitions(6)]
    assert query_alignment(q, C) == pytest.approx(max(objs), rel=1e-12)


def test_determinism_and_seed_sensitivity():
    rng = np.random.default_rng(4)
    q = _random_query(rng, 40)
    a = louvain_project(q, seed=11)
    b = louvain_project(q, seed=11)
    assert a == b


def test_single_node():
    """One node goes through the general path and stays a singleton."""
    queries = [PairVector.constant_vector(1, c) for c in (-1.0, 0.0, 1.0)]
    queries.append(PairVector.from_pairs(1, {}, (LowRankTerm(0.7, np.array([1.5])),)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in queries:
            assert louvain_project(q, seed=0, debug_checks=True).membership.tolist() == [0]


def test_local_optimality_moderate_size():
    rng = np.random.default_rng(5)
    for trial in range(5):
        q = _random_query(rng, 60, density=0.15)
        C = louvain_project(q, seed=trial)
        eps = 1e-12 * q.norm() * math.sqrt(q.N)
        assert max_single_move_gain(q, C) <= eps


def test_objective_beats_or_equals_exact_sample():
    rng = np.random.default_rng(6)
    hits = 0
    for trial in range(20):
        q = _random_query(rng, 7)
        best = exact_project(q)
        got = louvain_project(q, seed=trial, restarts=5)
        obj_best = query_alignment(q, best)
        obj_got = query_alignment(q, got)
        assert obj_got <= obj_best + 1e-9
        if obj_best > 0:
            assert obj_got >= 0.9 * obj_best - 1e-9
        if abs(obj_got - obj_best) <= 1e-9:
            hits += 1
    assert hits >= 14  # soft regression bound on the exact-hit rate


def test_restarts_deterministic_and_not_worse():
    rng = np.random.default_rng(60)
    q = _random_query(rng, 25)
    single = louvain_project(q, seed=4)
    multi = louvain_project(q, seed=4, restarts=4)
    again = louvain_project(q, seed=4, restarts=4)
    assert multi == again
    assert query_alignment(q, multi) >= query_alignment(q, single) - 1e-12


def test_a_query_whose_norm_overflows_is_rejected():
    """Squared, 1e300 overflows: the norm, and with it the move threshold,
    is inf, and a solve would return singletons without a move."""
    q = PairVector.from_pairs(4, {(0, 1): 1e300, (2, 3): 1e300})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow in the norm
        with pytest.raises(ValueError, match="the query's norm inf is not finite"):
            louvain_project(q, seed=0)


def test_restarts_below_one_rejected():
    q = PairVector.constant_vector(4, 1.0)
    for restarts in (0, -2):
        with pytest.raises(ValueError, match="restarts must be at least 1"):
            louvain_project(q, seed=0, restarts=restarts)


def test_debug_checks_pass():
    rng = np.random.default_rng(7)
    q = _random_query(rng, 30)
    louvain_project(q, seed=1, debug_checks=True)


def test_aggregation_exactness():
    # a query that forces several aggregation levels: two nested clique scales
    edges = []
    for blk in range(6):
        base = 4 * blk
        edges += [(base + i, base + j) for i in range(4) for j in range(i + 1, 4)]
    for blk in range(3):
        edges.append((8 * blk, 8 * blk + 4))
    G = Graph.from_edges(24, edges)
    q = er_modularity_query(G, 0.4)
    C = louvain_project(q, seed=9, debug_checks=True)
    state = SolverState.from_partition(q, C)
    assert state.objective == pytest.approx(query_alignment(q, C), rel=1e-10)


def test_local_optimality_sparse_query():
    rng = np.random.default_rng(8)
    q = _random_query(rng, 50, density=0.1)
    C = louvain_project(q, seed=0)
    eps = 1e-12 * q.norm() * math.sqrt(q.N)
    assert max_single_move_gain(q, C) <= eps


def test_purely_sparse_query_has_no_smooth_terms():
    # no rank-one term and no constant: K = 0, so every visit's smooth gain is
    # the empty product li @ U, the zero vector
    rng = np.random.default_rng(12)
    for trial in range(15):
        n = int(rng.integers(4, 9))
        q = random_sl_vector(rng, n, sparse_density=0.5, n_terms=0, with_constant=False)
        assert _Instance.from_pair_vector(q).factors.shape == (0, n)
        C = louvain_project(q, seed=trial, restarts=5, debug_checks=True)
        eps = 1e-12 * q.norm() * math.sqrt(q.N)
        assert max_single_move_gain(q, C) <= eps
        obj_best = query_alignment(q, exact_project(q))
        obj_got = query_alignment(q, C)
        assert obj_got <= obj_best + 1e-9
        assert obj_got >= 0.9 * obj_best - 1e-9


# Membership SHA-1s of detect_once (generator seed 1, solver seed 3). The six
# n=400 pins were recorded before the compact slot table replaced the n-slot
# one; all of them satisfy the sign rule. The linear query's corrected constant
# is positive, so it breaks the rule and its solve visits every node in every
# sweep.
PINNED_PARTITIONS = [
    (
        GeneratorSpec(family, n=400, k=None if family == "hppm" else 20),
        QuerySpec(method, t=2, isolated="zero", heuristic=heuristic),
        sha,
    )
    for family, method, heuristic, sha in [
        ("ppm", "cl-modularity", "exact", "a919c13b23e361bef2ae4a57188dbc6435a0b06f"),
        ("hppm", "cl-modularity", "exact", "1a937616a7829e3279c323fd5787ffa65f255c9c"),
        ("dcppm", "cl-modularity", "exact", "e44382aec2f45cf897fae7666dd0d1179c13f8b2"),
        ("ppm", "markov", "exact", "c5c99a0a400cf984907b43af4dd6509872833d18"),
        ("hppm", "markov", "exact", "4d0901256e502104e046e29b216a4e237d34fd45"),
        ("ppm", "cl-modularity", "off", "496d2faec6269ab27f9e8bd98bccab66ba600330"),
    ]
] + [
    (
        GeneratorSpec("ppm", n=200, k=10),
        QuerySpec("linear", c_j=0.0, c_d=-6.0, heuristic="exact"),
        "af8c595db02e31d68ed824b8b1be8f7b55332495",
    ),
]


def test_partitions_pinned(monkeypatch):
    """The pins hold, and the fine levels make narrow visits on the queries
    under the narrow rule only."""
    records = _recording_solves(monkeypatch)
    for gen, spec, sha in PINNED_PARTITIONS:
        G, T = generate(gen, 1)
        records.clear()
        C, _ = detect_once(G, spec, T, seed=3)
        got = hashlib.sha1(C.membership.astype("<i8").tobytes()).hexdigest()
        assert got == sha, (gen.family, spec.label)
        rule = _Instance.from_pair_vector(build_query(G, spec, T)).narrow_rule
        assert (sum(info[8] for info in records) > 0) == rule, (gen.family, spec.label)


# -- dirty-set sweeps --------------------------------------------------------------


def _sign_rule_query(rng, n):
    """Random query under the sign rule: sparse values of both signs, rank-one
    terms with coef <= 0 and factors >= 0, constant <= 0."""
    pairs = {}
    density = rng.uniform(0.02, 0.2)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                pairs[(i, j)] = rng.normal()
    terms = tuple(
        LowRankTerm(-rng.exponential(0.02), rng.exponential(size=n)) for _ in range(rng.integers(0, 3))
    )
    return PairVector.from_pairs(n, pairs, terms, -rng.exponential(0.1))


def _seeded_sign_rule_query(seed):
    rng = np.random.default_rng(seed)
    return _sign_rule_query(rng, int(rng.integers(20, 201)))


def _ppm200():
    return generate(GeneratorSpec("ppm", n=200, k=10), 1)


SIGN_RULE_SPECS = [
    QuerySpec("cl-modularity", heuristic="exact"),
    QuerySpec("er-modularity", heuristic="exact"),
    QuerySpec("ppm", p_in=0.3, p_out=0.05, heuristic="exact"),
] + [QuerySpec("markov", t=t, isolated="zero", heuristic=h) for t in range(1, 6) for h in ("off", "exact")]


@pytest.mark.parametrize("spec", SIGN_RULE_SPECS, ids=lambda spec: spec.label)
def test_sign_rule_holds_for_graph_queries(spec):
    G, T = _ppm200()
    assert _Instance.from_pair_vector(build_query(G, spec, T)).sign_rule


def test_sign_rule_fails_for_positive_smooth_parts():
    u = np.linspace(0.5, 1.5, 6)
    assert _Instance.from_pair_vector(PairVector.from_pairs(6, {(0, 1): 1.0}, (LowRankTerm(-1.0, u),), -0.1)).sign_rule
    assert not _Instance.from_pair_vector(PairVector.constant_vector(6, 0.5)).sign_rule
    assert not _Instance.from_pair_vector(PairVector.from_pairs(6, {}, (LowRankTerm(0.2, u),))).sign_rule
    assert not _Instance.from_pair_vector(PairVector.from_pairs(6, {}, (LowRankTerm(-0.2, u - 1.0),))).sign_rule


def test_coarse_instance_keeps_the_sign_rule():
    G, T = _ppm200()
    inst = _Instance.from_pair_vector(build_query(G, QuerySpec("cl-modularity", heuristic="exact"), T))
    coarse = reference_aggregate(inst, T.membership)  # Partition labels are compact
    assert inst.sign_rule and coarse.sign_rule and coarse.n == T.k
    assert inst.narrow_rule and coarse.narrow_rule  # coarse constant factors: supernode sizes


def _fine_level_counts(q, seed):
    state = LevelState(_Instance.from_pair_vector(q), np.arange(q.n), -q.total(), check_skips=True)
    level_call(state, np.random.default_rng(seed), 1e-12 * q.norm() * math.sqrt(q.N))
    return state.visits, state.skipped, state.narrow, state.sweeps


def test_visit_counters_skip_only_under_the_sign_rule():
    """Visits are skipped only under the sign rule; a level runs at least two
    sweeps from singletons (the last one moves nothing), and each visits at
    most n nodes."""
    G, T = generate(GeneratorSpec("ppm", n=400, k=20), 1)
    visits, skipped, _, sweeps = _fine_level_counts(build_query(G, QuerySpec("cl-modularity", heuristic="exact"), T), 3)
    assert skipped > 0 and visits > 0
    assert sweeps >= 2 and visits + skipped == sweeps * G.n
    G, T = _ppm200()
    q = build_query(G, QuerySpec("linear", c_j=0.0, c_d=-6.0, heuristic="exact"), T)
    assert q.constant > 0.6  # the corrected constant breaks the rule
    visits, skipped, narrow, sweeps = _fine_level_counts(q, 3)
    assert skipped == 0 and visits % q.n == 0 and visits >= 2 * q.n and narrow == 0
    assert sweeps >= 2 and visits == sweeps * q.n


def test_a_sign_rule_level_skips_from_its_second_sweep():
    """Under the sign rule a level tracks from its first sweep: a 20-node
    clique of weight-1 pairs and 20 nodes without a sparse pair, under a
    constant of -0.01. The first sweep merges the clique (more than n/10
    moves), and the second moves nothing and skips every node that no move
    marked, the 20 without a pair among them."""
    n = 40
    q = PairVector.from_pairs(n, {(i, j): 1.0 for i in range(20) for j in range(i + 1, 20)}, (), -0.01)
    state = LevelState(_Instance.from_pair_vector(q), np.arange(q.n), -q.total(), check_skips=True)
    moves = level_call(state, np.random.default_rng(7), 1e-12 * q.norm() * math.sqrt(q.N))
    assert state.inst.sign_rule and state.sweeps == 2 and moves > n / 10
    assert state.skipped >= 20 and state.visits + state.skipped == 2 * n


def test_dirty_set_solves_are_locally_optimal():
    rng = np.random.default_rng(40)
    for trial in range(12):
        q = _sign_rule_query(rng, int(rng.integers(20, 201)))
        assert _Instance.from_pair_vector(q).sign_rule
        C = louvain_project(q, seed=trial, debug_checks=True)
        assert max_single_move_gain(q, C) <= 1e-12 * q.norm() * math.sqrt(q.N)


def test_compiled_sweep_checks_its_skips():
    """With every mark cleared while a node can still move, the compiled
    level's check_skips (the solve's debug_checks) finds the skipped visit
    that would move."""
    q = _seeded_sign_rule_query(22)
    louvain_project(q, seed=22, debug_checks=True)
    state = LevelState(_Instance.from_pair_vector(q), np.arange(q.n), -q.total(), check_skips=True)
    state.dirty[:] = 0  # from singletons, some node can still move
    with pytest.raises(AssertionError, match="would move"):
        level_call(state, np.random.default_rng(22), _eps(q))


def test_a_sweep_does_not_depend_on_its_scratch_contents():
    """pairsphere_sweep sets up the scratch that it reads: with its whole
    work filled with 0xFF bytes (NaN as doubles, -1 as slots, 255 as marks),
    tracking sweeps under the narrow rule give the bytes of zero-filled ones:
    membership, slot table, objective, counters and marks."""
    rng = np.random.default_rng(48)
    narrow = skipped = moved = 0
    for _ in range(6):
        n = int(rng.integers(30, 90))
        q = random_sl_vector(rng, n, **QUERY_KINDS["sign-rule"])
        inst, eps = _Instance.from_pair_vector(q), 1e-12 * q.norm() * math.sqrt(q.N)
        assert inst.narrow_rule
        zero, full = (LevelState(inst, np.arange(n), -q.total()) for _ in range(2))
        marks = rng.random(n) < 0.5
        for state in (zero, full):
            state.dirty[:] = marks
        for _ in range(4):
            order = rng.permutation(n)
            moves = compiled_sweep(zero, order, eps, tracking=True)
            assert compiled_sweep(full, order, eps, tracking=True, fill=0xFF) == moves
            assert zero.membership.tobytes() == full.membership.tobytes() and zero.U.tobytes() == full.U.tobytes()
            assert zero.objective == full.objective and zero.dirty.tobytes() == full.dirty.tobytes()
            assert (zero.visits, zero.skipped, zero.narrow) == (full.visits, full.skipped, full.narrow)
            moved += moves
        narrow += zero.narrow
        skipped += zero.skipped
    assert narrow > 0 and skipped > 0 and moved > 0


def test_every_library_call_is_typed():
    """Each _KERNEL_ARGS function comes typed from _compiled(), and every
    pairsphere_*( call in the package and its tests names one of them: any
    other name would resolve on the CDLL untyped, and ctypes would pass its
    64-bit pointers as C ints."""
    lib = _kernel._compiled()
    for name, argtypes in _kernel._KERNEL_ARGS.items():
        fn = getattr(lib, name)
        assert fn.argtypes == argtypes and fn.restype is ctypes.c_int64
    tests = Path(__file__).parent
    files = [_kernel._SOURCE, *Path(solver.__file__).parent.glob("*.py"), *tests.glob("*.py")]
    called = {name for f in files for name in re.findall(r"\b(pairsphere_\w+)\(", f.read_text())}
    assert {"pairsphere_solve", "pairsphere_level", "pairsphere_coarsen"} <= called <= set(_kernel._KERNEL_ARGS)


def test_compiled_sweep_rejects_an_order_outside_the_nodes():
    q = _seeded_sign_rule_query(5)
    state = LevelState(_Instance.from_pair_vector(q), np.arange(q.n), -q.total())
    for bad in (q.n, -1):
        with pytest.raises(ValueError, match="not a node"):
            compiled_sweep(state, np.array([0, bad]), 0.0)


# -- narrow visits ------------------------------------------------------------------


def test_narrow_rule_needs_a_negative_counting_last_term():
    """The narrow rule: the sign rule, and a last term with coefficient < 0
    and positive integer factors. The query constant is such a term; so is
    raw cl-modularity's degree term when no node is isolated."""

    def rule(q):
        return _Instance.from_pair_vector(q).narrow_rule

    G, T = _ppm200()
    assert rule(build_query(G, QuerySpec("cl-modularity", heuristic="exact"), T))
    assert rule(build_query(G, QuerySpec("markov", t=2, heuristic="exact"), T))
    assert rule(build_query(G, QuerySpec("cl-modularity"), T))
    assert not rule(build_query(G, QuerySpec("markov", t=2), T))  # last factor d / 2m
    assert not rule(build_query(G, QuerySpec("linear", c_j=0.0, c_d=-6.0, heuristic="exact"), T))  # c > 0
    u = np.array([1.0, 2.0, 0.0, 3.0])
    assert not rule(PairVector.from_pairs(4, {}, (LowRankTerm(-1.0, u),)))
    assert rule(PairVector.from_pairs(4, {}, (LowRankTerm(-1.0, u + 1.0),)))
    assert not rule(PairVector.from_pairs(4, {}, (LowRankTerm(-1.0, u + 1.5),)))
    assert not rule(PairVector.constant_vector(4, 0.0))


def test_most_fine_visits_are_narrow_under_a_negative_constant():
    """On a PPM n=2000 exact-corrected cl-modularity query most fine visits
    take the narrow scan; with the constant made positive (no sign rule) none
    do. A walk query without a constant (its last factor, d / 2m, counts
    nothing) keeps the sign rule, and most of its visits are narrow too."""
    G, T = generate(GeneratorSpec("ppm", n=2000, k=100), 1)
    q = build_query(G, QuerySpec("cl-modularity", heuristic="exact"), T)
    assert q.constant < 0.0
    visits, _, narrow, _ = _fine_level_counts(q, 3)
    assert narrow > visits / 2
    positive = PairVector(q.n, q.pair_ids, q.values, q.terms, -q.constant)
    assert _fine_level_counts(positive, 3)[2] == 0
    visits, _, narrow, _ = _fine_level_counts(build_query(G, QuerySpec("markov", t=2), T), 3)
    assert narrow > visits / 2


@pytest.mark.parametrize("kind", ["markov-t1", "cl-modularity-isolated"])
def test_a_sign_rule_level_without_a_counting_term_visits_narrowly(kind):
    """Raw walk queries and raw cl-modularity on a graph with an isolated node
    hold the sign rule but not the narrow rule (their last term counts no
    members). On PPM n=3000 most of their fine visits are narrow still; the
    solve passes debug_checks, which checks every narrow visit against a full
    scan, and its membership is helpers.reference_project's."""
    G, T = generate(GeneratorSpec("ppm", n=3000, k=150), 1)
    if kind == "markov-t1":
        q = build_query(G, QuerySpec("markov", t=1, isolated="zero"), T)
    else:  # node 0's edges removed: an isolated node
        q = build_query(Graph.from_edges(G.n, G.edges[(G.edges != 0).all(axis=1)]), QuerySpec("cl-modularity"), T)
    inst, eps = _Instance.from_pair_vector(q), _eps(q)
    assert inst.sign_rule and not inst.narrow_rule
    memb, _, info = _solve(inst, q, np.random.default_rng(3), eps, True)
    assert info[8] > info[6] / 2
    ref = reference_project(inst, q, np.random.default_rng(3), eps)
    assert memb.tobytes() == ref.membership.tobytes()


def test_an_isolated_node_without_a_constant_keeps_the_full_scan():
    """A degree term and no constant, with node 0 isolated: its degree factor
    is 0, so every slot gives it W = 0, and node 0's slot gives every node
    W = 0, tying live slots with the empty one. The degree term counts no
    member there, so the narrow rule fails; the sign rule holds, so short
    rows take narrow visits (from singletons; the random starts leave too few
    slots), a top of 0 goes to the full scan, and the sweep matches
    helpers.reference_sweep bit for bit."""
    rng = np.random.default_rng(96)
    for trial in range(6):
        n = int(rng.integers(30, 60))
        edges = [(i, j) for i in range(1, n) for j in range(i + 1, n) if rng.random() < 0.1]
        deg = np.bincount(np.array(edges).ravel(), minlength=n).astype(np.float64)
        q = PairVector.from_pairs(n, dict.fromkeys(edges, 1.0), (LowRankTerm(-1.0 / deg.sum(), deg),))
        inst = _Instance.from_pair_vector(q)
        assert inst.sign_rule and not inst.narrow_rule
        start = random_membership(rng, n, k_max=n // 2) if trial % 2 else np.arange(n)
        new, ref = (LevelState(inst, start, query_alignment(q, Partition(start))) for _ in range(2))
        for _ in range(30):
            order = rng.permutation(n)
            moves = compiled_sweep(new, order, 0.0)
            assert reference_sweep(ref, order, 0.0) == moves
            assert new.membership.tobytes() == ref.membership.tobytes()
            assert new.U.tobytes() == ref.U.tobytes() and new.objective == ref.objective
            if moves == 0:
                break
        assert (new.narrow > 0) == (trial % 2 == 0)


def test_narrow_visits_break_ties_to_the_lowest_slot():
    """Weights of +-1 and a constant of -0.5: every gain is a multiple of 0.5,
    so candidates tie exactly. Node 0's row lists node 1 (slot 22) before
    node 2 (slot 21), both worth 0.5: it joins slot 21. Random sparse queries
    of the same kind match helpers.reference_sweep bit for bit."""
    n = 24
    q = PairVector.from_pairs(n, {(0, 1): 1.0, (0, 2): 1.0}, (), -0.5)
    start = np.arange(n)[::-1]
    state = LevelState(_Instance.from_pair_vector(q), start, query_alignment(q, Partition(start)))
    assert compiled_sweep(state, np.array([0]), 0.0) == 1
    assert state.membership[0] == state.membership[2] != state.membership[1]
    assert state.narrow == 1
    rng = np.random.default_rng(91)
    narrow = 0
    for trial in range(20):
        n = int(rng.integers(20, 60))
        pairs = {(i, j): rng.choice([-1.0, 1.0]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.08}
        q = PairVector.from_pairs(n, pairs, (), -0.5)
        start = random_membership(rng, n) if trial % 2 else np.arange(n)
        inst = _Instance.from_pair_vector(q)
        new, ref = (LevelState(inst, start, query_alignment(q, Partition(start))) for _ in range(2))
        for _ in range(10):
            order = rng.permutation(n)
            moves = compiled_sweep(new, order, 0.0)
            assert reference_sweep(ref, order, 0.0) == moves
            assert new.membership.tobytes() == ref.membership.tobytes() and new.objective == ref.objective
            if moves == 0:
                break
        narrow += new.narrow
    assert narrow > 0


def test_a_slot_sum_below_zero_keeps_the_full_scan():
    """Round-off can leave a live slot's sum of factors >= 0 below zero. Slot
    0 holds nodes 1, 2 and 3 (factors 1, 2^-60 and 0, summed to 1); once 1
    and 2 leave, before the sweep or in it, its sum is -2^-60. Times node 0's
    scaled factor -2^40 that outweighs the constant -2^-30, so slot 0 gives
    node 0 W = 2^-20 - 2^-30 > 0, though it holds none of its row neighbours.
    The kernel's bound on such sums sends the visit to the full scan, and
    node 0 joins node 3, as in helpers.reference_sweep."""
    n = 12
    f = np.zeros(n)
    f[:3] = 2.0**40, 1.0, 2.0**-60
    q = PairVector.from_pairs(n, {}, (LowRankTerm(-1.0, f),), -(2.0**-30))
    start = np.array([1, 0, 0, 0] + list(range(2, n - 2)))
    inst = _Instance.from_pair_vector(q)
    assert inst.narrow_rule
    for order in ([0], [1, 2, 0]):
        new, ref = (LevelState(inst, start, query_alignment(q, Partition(start))) for _ in range(2))
        if order == [0]:
            for state in (new, ref):
                for i in (1, 2):
                    apply_move(state, i, state.U.shape[1] - 1, move_gain(state, i, state.U.shape[1] - 1))
            assert new.U[0, 0] == -(2.0**-60)
        moves = compiled_sweep(new, np.array(order), 0.0)
        assert reference_sweep(ref, np.array(order), 0.0) == moves == len(order)
        assert new.membership.tobytes() == ref.membership.tobytes() and new.objective == ref.objective
        assert new.membership[0] == new.membership[3]
        assert new.narrow == len(order) - 1  # nodes 1 and 2: narrow visits


def test_debug_checks_catch_a_narrow_visit_that_misses_a_slot():
    """With slot 0's constant sum (its member count) set to -1e6 on the
    fine level, slot 0 holds the largest W for every node, and a narrow
    visit to a node without a row neighbour there misses it; check_skips
    compares each narrow visit with a scan of every slot and raises."""
    G, T = _ppm200()
    q = build_query(G, QuerySpec("cl-modularity", heuristic="exact"), T)
    louvain_project(q, seed=3, debug_checks=True)
    state = LevelState(_Instance.from_pair_vector(q), np.arange(q.n), -q.total(), check_skips=True)
    state.U[-1, 0] = -1e6
    with pytest.raises(AssertionError, match="narrow visit of node"):
        level_call(state, np.random.default_rng(3), _eps(q))


def test_a_solve_checks_its_skips_under_debug_checks(monkeypatch):
    """debug_checks reaches the solve's fine level as check_skips: 100
    disjoint weight-1 pairs under a term -0.01 * 0.5 * 0.5 on every pair
    (no narrow rule: the factors count nothing) pair up in the first cycle,
    whose pass merges nothing, so the second cycle's fine level starts with
    every mark clear. With slot 0's factor sum set to -1e6 after the first
    cycle's check (the callback's second call, after the pass's request),
    every node would move there, and the skipped visits raise."""
    q = PairVector.from_pairs(200, {(i, i + 1): 1.0 for i in range(0, 200, 2)}, (LowRankTerm(-0.01, np.full(200, 0.5)),))
    check_cycle, calls = solver._check_cycle, []

    def miscounting(q, inst, memb, U, objective):
        check_cycle(q, inst, memb, U, objective)
        calls.append(U.shape[1])
        if len(calls) == 2:
            U[-1, 0] = -1e6

    monkeypatch.setattr(solver, "_check_cycle", miscounting)
    with pytest.raises(AssertionError, match="skipped node \\d+ would move"):
        louvain_project(q, seed=3, debug_checks=True)
    assert calls == [101, 101]


# -- the compiled sweep's loader ---------------------------------------------------

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")


@pytest.fixture
def kernel_cache(tmp_path, monkeypatch):
    """An empty cache directory for the compiled sweep."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    return tmp_path / "pairsphere"


def test_sweep_source_ships_next_to_the_solver():
    assert Path(solver.__file__).with_name("_sweep.c").is_file()


@needs_cc
def test_a_second_load_reuses_the_library(kernel_cache, monkeypatch):
    kernel, reason = _kernel._load_kernel()
    assert kernel is not None and reason == ""
    assert _kernel._kernel_path().parent == kernel_cache and kernel_cache.stat().st_mode & 0o077 == 0

    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran again")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    kernel, reason = _kernel._load_kernel()
    assert kernel is not None and reason == ""


def test_without_a_compiler_solves_and_products_raise_the_reason(kernel_cache, monkeypatch):
    """The library is required: with no compiler, the solver, a graph's
    adjacency, the walk and the Jaccard vector raise OSError naming the
    reason. The failed load is kept, so the next call does not try again."""
    G = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    monkeypatch.setattr(shutil, "which", lambda *args, **kwargs: None)
    monkeypatch.setattr(_kernel, "_loaded", None)
    message = "the compiled library did not load: no C compiler \\(cc\\) on PATH"
    with pytest.raises(OSError, match=message):
        louvain_project(PairVector.constant_vector(4, -1.0))
    assert _kernel._loaded == (None, "no C compiler (cc) on PATH")

    def load_again():
        raise AssertionError("the load ran again")

    monkeypatch.setattr(_kernel, "_load_kernel", load_again)
    q = er_modularity_query(G, 1.0)
    calls = (
        lambda: louvain_project(q),
        lambda: Graph.from_edges(4, [(0, 1)]),
        lambda: walk_distribution(G, 2),
        lambda: jaccard_vector(G),
    )
    for call in calls:
        with pytest.raises(OSError, match=message):
            call()


@needs_cc
def test_a_cache_that_cannot_be_written_gives_the_reason(tmp_path, monkeypatch):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    kernel, reason = _kernel._load_kernel()
    assert kernel is None and reason.startswith("cache not writable")


@needs_cc
@pytest.mark.parametrize("target", ["directory", "library"])
def test_a_library_others_can_write_is_not_loaded(kernel_cache, target):
    assert _kernel._load_kernel()[0] is not None
    (kernel_cache if target == "directory" else _kernel._kernel_path()).chmod(0o720)
    kernel, reason = _kernel._load_kernel()
    assert kernel is None and "writable by group or others" in reason


@needs_cc
def test_a_truncated_library_is_not_loaded(tmp_path, monkeypatch):
    """Checked before it is mapped: most cuts would kill the process with
    SIGBUS. The truncated copy sits at a path this process never loaded."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "whole"))
    assert _kernel._load_kernel()[0] is not None
    whole = _kernel._kernel_path().read_bytes()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cut"))
    lib = _kernel._kernel_path()
    lib.parent.mkdir(mode=0o700, parents=True)
    lib.write_bytes(whole[: len(whole) // 2])
    lib.chmod(0o700)
    kernel, reason = _kernel._load_kernel()
    assert kernel is None and "damaged" in reason


@needs_cc
def test_the_kernel_source_compiles_without_warnings(tmp_path):
    flags = (*_kernel._CFLAGS, "-Wall", "-Wextra", "-Werror")
    proc = subprocess.run(
        [shutil.which("cc"), *flags, "-o", str(tmp_path / "sweep.so"), str(_kernel._SOURCE)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


_C_KINDS = {"int64_t": ctypes.c_int64, "int32_t": ctypes.c_int32, "double": ctypes.c_double}


def _c_kinds(params):
    """The ctypes kinds of a C parameter list: a pointer, a number, or the
    work callback, pairsphere_work."""
    kinds = []
    for param in params.split(","):
        ctype = " ".join(param.replace("*", " * ").split()[:-1])  # drop the parameter's name
        named = {**_C_KINDS, "pairsphere_work": _kernel._WORK}
        kinds.append(ctypes.c_void_p if "*" in ctype else named[ctype.removeprefix("const ")])
    return tuple(kinds)


def test_kernel_args_match_the_c_prototypes():
    """Each exported int64_t pairsphere_*(...) definition in _sweep.c takes
    the parameters _KERNEL_ARGS declares, in count and kind (int64, int32,
    double, a pointer or the work callback), under 20 of them; every
    _KERNEL_ARGS entry is defined there. The callback's typedef,
    pairsphere_work, returns a pointer and takes what _kernel._WORK
    declares. A mismatch passes wrong values through ctypes."""
    source = re.sub(r"/\*.*?\*/", "", _kernel._SOURCE.read_text(), flags=re.S)
    typedef = r"^typedef\s+\w+\s*\*\s*\(\*(pairsphere_\w+)\)\s*\(([^)]*)\);"  # returns a pointer
    assert re.findall(typedef, source, flags=re.M) == [("pairsphere_work", "int64_t words")]
    assert _kernel._WORK._restype_ is ctypes.c_void_p and _kernel._WORK._argtypes_ == _c_kinds("int64_t words")
    defined = {
        name: _c_kinds(params)
        for name, params in re.findall(r"^int64_t\s+(pairsphere_\w+)\s*\(([^)]*)\)\s*\{", source, flags=re.M)
    }
    assert defined == _kernel._KERNEL_ARGS
    assert all(len(kinds) < 20 for kinds in defined.values())


# -- exact projection ---------------------------------------------------------------


def test_exact_single_positive_entry():
    # argmax set is {[0,0,0], [0,0,1]} (the zero entries contribute nothing);
    # the documented tie-break picks the lexicographically smallest membership
    q = PairVector.from_pairs(3, {(0, 1): 1.0})
    best = exact_project(q)
    top = query_alignment(q, best)
    assert top == pytest.approx(query_alignment(q, Partition(np.array([0, 0, 1]))))
    assert best.membership.tolist() == [0, 0, 0]
    # perturbing the other pairs negative makes {{0,1},{2}} the unique optimum
    q2 = PairVector.from_pairs(3, {(0, 1): 1.0, (0, 2): -0.1, (1, 2): -0.1})
    assert exact_project(q2) == Partition(np.array([0, 0, 1]))


def test_exact_tie_break_lex_smallest():
    q = PairVector.constant_vector(3, 0.0)  # every partition ties at 0
    best = exact_project(q)
    assert best.membership.tolist() == [0, 0, 0]  # first RGS enumerated


def test_exact_cap():
    with pytest.raises(ValueError):
        exact_project(PairVector.constant_vector(13, 1.0))
    with pytest.raises(ValueError):
        exact_project(PairVector.constant_vector(6, 1.0), cap=5)
    assert exact_project(PairVector.constant_vector(5, 1.0), cap=5).k == 1


def test_exact_matches_brute_force_enumeration():
    rng = np.random.default_rng(9)
    for _ in range(10):
        q = _random_query(rng, 6)
        best = exact_project(q)
        objs = {m: query_alignment(q, Partition(np.array(m))) for m in all_partitions(6)}
        top = max(objs.values())
        assert query_alignment(q, best) == pytest.approx(top, rel=1e-12, abs=1e-12)
        # lex tie-break: no lexicographically smaller membership attains the top
        for m in all_partitions(6):
            if m < tuple(best.membership.tolist()):
                assert objs[m] < top - 1e-12


# -- evaluate ---------------------------------------------------------------------


def test_evaluate_self_detection():
    rng = np.random.default_rng(10)
    G = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    q = er_modularity_query(G, 1.0)
    T = Partition(np.array([0, 0, 0, 1, 1, 1]))
    res = evaluate(q, T, T, seed=5)
    assert res.rho == pytest.approx(1.0)
    assert res.granularity_error == 0.0
    assert res.excess_ratio == pytest.approx(0.0)
    assert res.seed == 5


def test_evaluate_handles_degenerate_metrics():
    q = PairVector.constant_vector(4, 1.0)
    res = evaluate(q, Partition.singletons(4), Partition.one_cluster(4))
    assert res.rho is None
    assert res.granularity_error is not None  # planted latitude is pi, fine
    assert res.d_cc_qT is None  # query on the pole axis
    res2 = evaluate(q, Partition.one_cluster(4), Partition.singletons(4))
    assert res2.granularity_error is None  # planted latitude 0


def _bits(x):
    return None if x is None else np.float64(x).tobytes()


@pytest.mark.parametrize("heuristic", ["off", "exact"], ids=["raw", "exact-corrected"])
def test_evaluate_reuses_the_planted_angle_exactly(heuristic):
    """evaluate computes <q, b(T)> once: its d_a_qT and d_cc_qT are, bit for
    bit, the two distances computed on their own."""
    G, T = generate(GeneratorSpec("ppm", n=80, k=4, lambda_in=5, lambda_out=2), 3)
    q = build_query(G, QuerySpec("markov", t=2, isolated="zero", heuristic=heuristic), T)
    res = evaluate(q, louvain_project(q, seed=1), T)
    assert res.d_a_qT is not None and res.d_cc_qT is not None
    assert _bits(res.d_a_qT) == _bits(query_angular_distance(q, T))
    assert _bits(res.d_cc_qT) == _bits(query_correlation_distance(q, T))


def test_evaluate_on_the_pole_axis_keeps_its_none():
    T = Partition(np.array([0, 0, 1, 1, 2]))
    # a constant query has an angle to T but no meridian
    q = PairVector.constant_vector(5, 1.0)
    res = evaluate(q, Partition.one_cluster(5), T)
    assert _bits(res.d_a_qT) == _bits(query_angular_distance(q, T))
    assert res.d_cc_qT is None
    # the zero query has neither
    res = evaluate(PairVector.constant_vector(5, 0.0), Partition.one_cluster(5), T)
    assert res.d_a_qT is None and res.d_cc_qT is None


def test_evaluate_excess_sign():
    G = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    q = er_modularity_query(G, 1.0)
    T = Partition(np.array([0, 0, 0, 1, 1, 1]))
    worse = Partition(np.array([0, 0, 1, 1, 2, 2]))
    res = evaluate(q, worse, T)
    assert res.excess_ratio > 0  # detected is farther from the query than planted


# -- aggregation -----------------------------------------------------------------


AGGREGATE_CASES = ["random", "shared-pairs", "no-sparse-part", "near-singletons"]
# which side of the dense-block rule k * (k - 1) <= CSR entries each case's draws reach
AGGREGATE_PATHS = {"random": {True, False}, "shared-pairs": {True}, "no-sparse-part": {True, False}, "near-singletons": {False}}


def _upper_pairs(inst):
    """A level's pairs (i, j, value), i < j: its rows' upper entries, in row
    order, read in plain Python."""
    bounds, nbr, wts = inst.indptr.tolist(), inst.nbr.tolist(), inst.wts.tolist()
    return [(i, nbr[t], wts[t]) for i in range(inst.n) for t in range(bounds[i], bounds[i + 1]) if nbr[t] > i]


def _coarse_pair_reference(inst, memb):
    """The coarse pairs by their rule, in plain Python floats: M[a, b] sums
    from 0, in row order, the fine pairs whose ends carry labels (a, b), and
    coarse pair a < b gets M[a, b] + M[b, a]; zero sums are dropped."""
    M = {}
    for i, j, v in _upper_pairs(inst):
        a, b = int(memb[i]), int(memb[j])
        if a != b:
            M[a, b] = M.get((a, b), 0.0) + v
    cells = {(min(a, b), max(a, b)) for a, b in M}
    pairs = [(a, b, M.get((a, b), 0.0) + M.get((b, a), 0.0)) for a, b in sorted(cells)]
    return [pair for pair in pairs if pair[2] != 0.0]


def _rows_of(n, pairs):
    """The bytes of helpers.build_csr's rows of a list of (i, j, value)
    pairs, i < j."""
    pi, pj, pv = (np.array([pair[x] for pair in pairs], dtype=t) for x, t in enumerate((np.int64, np.int64, float)))
    return tuple(a.tobytes() for a in build_csr(n, pi, pj, pv))


def _row_bytes(inst):
    return tuple(a.tobytes() for a in (inst.indptr, inst.nbr, inst.wts))


def _assert_coarse_bytes(inst, memb, coarse):
    """The coarse level's pairs are those of the rule, and its rows carry the
    bytes helpers.build_csr makes of them."""
    want = _coarse_pair_reference(inst, memb)
    assert _upper_pairs(coarse) == want
    assert _row_bytes(coarse) == _rows_of(coarse.n, want)


@pytest.mark.parametrize("case", AGGREGATE_CASES)
def test_aggregate_matches_dense_block_sums(case):
    """Every coarse pair (a, b), a != b, holds the sum of the fine entries
    between supernodes a and b; the coarse rows hold no self entry, and
    their upper entries are the fine rows' upper entries summed by the one
    rule, with the bytes of the rule's rows."""
    rng = np.random.default_rng(AGGREGATE_CASES.index(case))
    paths = set()
    for _ in range(15):
        n = int(rng.integers(6 if case == "near-singletons" else 2, 13))
        density = {"shared-pairs": 1.0, "no-sparse-part": 0.0}.get(case, 0.4)
        q = random_sl_vector(rng, n, sparse_density=density)
        if case == "shared-pairs":  # at most 3 supernodes: many fine pairs per coarse pair
            memb = rng.integers(0, 3, size=n)
        elif case == "near-singletons":  # one merged pair: too many supernodes for a block
            memb = np.minimum(np.arange(n), n - 2)
        else:
            memb = random_membership(rng, n)
        memb = np.unique(memb, return_inverse=True)[1]  # compact labels, as every sweep leaves them
        inst = _Instance.from_pair_vector(q)
        coarse = reference_aggregate(inst, memb)
        k = coarse.n
        paths.add(k * (k - 1) <= inst.nbr.size)
        fine = np.zeros((n, n))
        iu, ju = np.triu_indices(n, k=1)
        fine[iu, ju] = dense_of(q)
        fine += fine.T
        H = np.zeros((n, k))
        H[np.arange(n), memb] = 1.0
        ref = H.T @ fine @ H
        got = np.einsum("t,ta,tb->ab", coarse.coefs, coarse.factors, coarse.factors)
        for a in range(k):
            lo, hi = coarse.indptr[a], coarse.indptr[a + 1]
            assert not np.any(coarse.nbr[lo:hi] == a)
            np.add.at(got[a], coarse.nbr[lo:hi], coarse.wts[lo:hi])
        off = ~np.eye(k, dtype=bool)
        np.testing.assert_allclose(got[off], ref[off], rtol=0, atol=1e-12)
        _assert_coarse_bytes(inst, memb, coarse)
        if case == "no-sparse-part":
            assert coarse.nbr.size == 0
    assert paths == AGGREGATE_PATHS[case]


def test_rows_are_the_bytes_of_build_csr():
    """_kernel._rows of sorted pair ids gives helpers.build_csr's indptr and
    columns, and its pair indices gather build_csr's values, on random
    supports from empty to complete, on n = 1 and 2, and on a support whose
    only pair is in the last row."""
    rng = np.random.default_rng(40)
    cases = [(1, []), (2, []), (2, [0]), (7, [20]), (7, [0, 20])]  # pair id 20 = (5, 6), the last row's
    for _ in range(40):
        n = int(rng.integers(1, 60))
        keep = rng.random(n * (n - 1) // 2) < rng.choice([0.0, 0.05, 0.3, 1.0])
        cases.append((n, np.flatnonzero(keep)))
    for n, ids in cases:
        ids = np.asarray(ids, dtype=np.int64)
        pi, pj = pair_members(ids, n)
        pv = rng.normal(size=ids.size)
        indptr, nbr, pos = _kernel._rows(n, ids)
        for got, want in zip((indptr, nbr, pv[pos]), build_csr(n, pi, pj, pv)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", ["block", "buckets"])
def test_coarse_levels_are_the_same_bytes_on_both_kernels(shape):
    """With k(k-1) on either side of the level's CSR entry count and many
    fine pairs per coarse pair, both of the aggregate's summing kernels (one
    pass into a block, or a counting sort by label) give the bytes of the
    one rule."""
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(80, 200))
        inst = _Instance.from_pair_vector(random_sl_vector(rng, n, sparse_density=0.1))
        k_block = max(k for k in range(1, n + 1) if k * (k - 1) <= inst.nbr.size)
        k = int(rng.integers(2, k_block + 1) if shape == "block" else rng.integers(k_block + 1, n + 1))
        memb = np.empty(n, dtype=np.int64)
        memb[rng.permutation(n)] = np.arange(n) % k  # k labels, each used
        coarse = reference_aggregate(inst, memb)
        assert coarse.n == k and (k * (k - 1) <= inst.nbr.size) == (shape == "block")
        _assert_coarse_bytes(inst, memb, coarse)


COARSE_EDGE_CASES = {
    # name: (n, sparse pairs, labels, coarse pairs)
    "cancel-in-a-block": (4, {(0, 2): 0.5, (0, 3): 0.25, (1, 2): -0.75}, [0, 0, 1, 1], []),
    "cancel-across-orientations": (4, {(0, 1): 1.0, (1, 3): -1.0, (2, 3): 2.0}, [0, 1, 2, 0], [(0, 2, 2.0)]),
    "cancel-in-buckets": (6, {(0, 4): 1.0, (0, 5): -1.0, (1, 2): 2.0}, [0, 1, 2, 3, 4, 4], [(1, 2, 2.0)]),
    "k=1": (4, {(0, 1): 1.0, (2, 3): -2.0}, [0, 0, 0, 0], []),
    "n=1": (1, {}, [0], []),
    "no-pairs": (5, {}, [0, 1, 0, 2, 1], []),
}


@pytest.mark.parametrize("case", COARSE_EDGE_CASES)
def test_coarse_level_edge_cases(case):
    """Sums that cancel to 0.0 are dropped, within one orientation or across
    the two; one supernode, one node and no sparse pair give no coarse pair."""
    n, pairs, labels, want = COARSE_EDGE_CASES[case]
    q = PairVector.from_pairs(n, pairs, (LowRankTerm(-0.5, np.ones(n)),), -0.25)
    coarse = reference_aggregate(_Instance.from_pair_vector(q), np.array(labels))
    assert coarse.n == max(labels) + 1 and _upper_pairs(coarse) == want
    assert _row_bytes(coarse) == _rows_of(coarse.n, want)


@pytest.mark.parametrize(
    "n, ids, bad",
    [(3, [1, 0], 1), (3, [2, 1], 1), (3, [0, 0], 1), (1, [0], 0), (3, [0, 3], 1), (3, [-1], 0)],
    ids=["columns-descend", "rows-descend", "repeat", "diagonal", "past-n", "negative"],
)
def test_compiled_rows_reject_a_list_out_of_order(n, ids, bad):
    """Pair ids must ascend strictly in [0, n(n - 1)/2), and the error names
    the first pair that does not. With n = 3, ids 0, 1, 2 are the pairs (0, 1),
    (0, 2), (1, 2); one node has no pair, not even the diagonal (0, 0)."""
    with pytest.raises(ValueError, match=rf"pair {bad} \(id {ids[bad]}\) breaks the order"):
        _kernel._rows(n, np.array(ids, dtype=np.int64))


@pytest.mark.parametrize(
    "labels, message",
    [([0, -1, 1], "node 1 carries a label outside 0..1"), ([0, 1], "labels must label every node of the level")],
    ids=["negative", "short"],
)
@pytest.mark.parametrize(
    "pairs, constant",
    [({(0, 1): 1.0, (1, 2): 1.0}, 0.0), ({(0, 1): 1.0, (1, 2): 1.0}, -0.5), ({}, -0.5)],
    ids=["K=0", "constant", "constant-no-pairs"],
)
def test_compiled_aggregate_rejects_a_label_outside_the_supernodes(pairs, constant, labels, message):
    """The labels are checked before the slot sums, so a level with a
    rank-one term raises the error of one without; the compiled check runs
    also when the level has no sparse pair."""
    inst = _Instance.from_pair_vector(PairVector.from_pairs(3, pairs, (), constant))
    assert inst.coefs.size == (constant != 0.0)
    with pytest.raises(ValueError, match=message):
        reference_aggregate(inst, np.array(labels))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: _Instance(3, np.zeros(4), [], [], [-1.0], np.ones((1, 2))), "factors must be (K, n)"),
        (lambda: _Instance(3, np.zeros(3), [], [], [-1.0], np.ones((1, 3))), "and indptr (n + 1,)"),
        (lambda: _Instance(3, [0, 1, 2, 2], [1], [1.0], [], np.ones((0, 3))), "the rows must hold indptr[-1]"),
        (lambda: SolverState(_Instance(3, [0, 0, 0, 0], [], [], [], np.ones((0, 3))), [0, 1], 0.0), "every node"),
        (lambda: _kernel._rows(3, [[0, 1]]), "pair ids must be one-dimensional"),
    ],
    ids=["factors", "indptr", "rows", "membership", "pairs"],
)
def test_arrays_for_the_compiled_library_are_checked_first(call, message):
    """The arrays that the compiled library reads through raw pointers are
    checked for shape before any call."""
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def _compiled_coarse_rows(inst, labels, fill):
    """The coarse rows from one call to the compiled aggregate, as bytes,
    with its work and its row buffers filled with the byte `fill`."""
    k = int(labels.max()) + 1
    m = inst.nbr.size // 2
    room = min(m, k * (k - 1) // 2)
    words = (k + 1, 2 * room, 2 * room, 2 * room + (k * k if k * (k - 1) <= 2 * m else 4 * m + 2 * k + 2))
    indptr, nbr, wts, work = (np.full(8 * w, fill, dtype=np.uint8) for w in words)
    fine = map(_kernel._address, (inst.indptr, inst.nbr, inst.wts, labels))
    args = (indptr, nbr, wts, work)
    size = _kernel._compiled().pairsphere_aggregate(inst.n, *fine, k, *map(_kernel._address, args), words[3])
    assert size >= 0
    return indptr.tobytes(), nbr[: 16 * size].tobytes(), wts[: 16 * size].tobytes()


@pytest.mark.parametrize("shape", ["block", "buckets"])
def test_coarse_rows_do_not_depend_on_the_work_contents(shape):
    """The compiled aggregate zeroes what it reads: with its work filled with
    0xFF bytes (NaN as doubles, -1 as counts), on the block side and on the
    bucket side, it writes the bytes of a zero-filled run and of the rule's
    rows."""
    rng = np.random.default_rng(43)
    for _ in range(6):
        n = int(rng.integers(30, 120))
        inst = _Instance.from_pair_vector(random_sl_vector(rng, n, sparse_density=0.15))
        k_block = max(k for k in range(1, n + 1) if k * (k - 1) <= inst.nbr.size)
        k = int(rng.integers(2, k_block + 1) if shape == "block" else rng.integers(k_block + 1, n + 1))
        labels = np.empty(n, dtype=np.int64)
        labels[rng.permutation(n)] = np.arange(n) % k
        want = _rows_of(k, _coarse_pair_reference(inst, labels))
        assert _compiled_coarse_rows(inst, labels, 0x00) == _compiled_coarse_rows(inst, labels, 0xFF) == want


def _measured_work(monkeypatch):
    """The words and the traced peak of every pass work that a solve asks
    for from here on: each request runs the solve's own callback under
    tracemalloc."""
    work_type, requests = solver._WORK, []

    def measuring(give):
        def work(words):
            tracemalloc.start()
            try:
                return give(words)
            finally:
                requests.append((words, tracemalloc.get_traced_memory()[1]))
                tracemalloc.stop()

        return work_type(work)

    monkeypatch.setattr(solver, "_WORK", measuring)
    return requests


def test_a_block_level_takes_no_bucket_work(monkeypatch):
    """On the block side a coarsening pass's aggregate work is the coarse
    pairs and the k x k block alone: the t=5 walk of a PPM n=400 sample holds
    nearly every pair, and one pass from the 20 planted communities traces
    under 64 KB plus its coarse rows, where work for the buckets would take 4
    words per fine pair (2.5 MB). So does every pass work that a solve of
    that walk asks for."""
    G, T = generate(GeneratorSpec("ppm", n=400, k=20), 1)
    q = walk_distribution(G, 5, isolated="zero")
    inst = _Instance.from_pair_vector(q)
    assert T.k * (T.k - 1) <= inst.nbr.size and inst.nbr.size // 2 > 75_000
    rows = 8 * (T.k + 1 + 4 * (T.k * (T.k - 1) // 2))  # room for every pair of the 20
    tracemalloc.start()
    try:
        memb, _, info = pass_call(inst, T.membership, np.random.default_rng(3), _eps(q), False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert memb.shape == (G.n,) and info[0] >= 1 and peak < 64 * 1024 + rows
    requests = _measured_work(monkeypatch)
    _, _, info = _solve(inst, q, np.random.default_rng(3), _eps(q), False)
    assert requests and info[11] >= 1
    assert all(8 * words <= peak < 64 * 1024 + rows for words, peak in requests)


def _eps(q):
    return 1e-12 * q.norm() * math.sqrt(q.N)


# query kinds of the coarsening pass: (random_sl_vector's arguments, the
# fine level's sign and narrow rules, the term counts K drawn). The sign rule
# alone has a last rank-one term that counts nothing; "neither" has
# constants of both signs.
PASS_KINDS = {
    "narrow-rule": (dict(n_terms=2, with_constant=True, sign_rule=True), (True, True), {1, 2, 3}),
    "sign-rule": (dict(n_terms=3, with_constant=False, sign_rule=True), (True, False), {0, 1, 2, 3}),
    "neither": (dict(n_terms=2, with_constant=True), (False, False), {1, 2, 3}),
    "sparse-only": (dict(n_terms=0, with_constant=False), (True, False), {0}),
}


@pytest.mark.parametrize("kind", PASS_KINDS)
def test_a_coarsening_pass_matches_the_python_levels(kind):
    """helpers.pass_call, one compiled call, against helpers.reference_coarsen,
    a Python loop of aggregations and level calls, from the same fine
    solution and seed: the same composed membership bytes, gain bits, bit
    generator state and summed counters (levels, sweeps, visits, skipped,
    narrow), from the fine level's local moves, from random labels (the
    bucket side of the first aggregation among them) and from singletons,
    which cannot merge; n = 1 and 2 included."""
    rng = np.random.default_rng(150 + list(PASS_KINDS).index(kind))
    kwargs, rule, terms = PASS_KINDS[kind]
    paths, merged, rules, Ks = set(), 0, set(), set()
    for n in (1, 2, 3, 5, 8, 13, 30, 60, 120):
        for _ in range(4):
            density = float(rng.choice([0.02, 0.1, 0.4]))
            q = random_sl_vector(rng, n, **{"sparse_density": density, **kwargs})
            inst, eps = _Instance.from_pair_vector(q), _eps(q)
            rules.add((inst.sign_rule, inst.narrow_rule))
            Ks.add(inst.coefs.size)
            fine = LevelState(inst, np.arange(n), -q.total())
            level_call(fine, rng, eps)
            labels = np.unique(rng.integers(0, max(1, n // 2), n), return_inverse=True)[1]
            for start in (fine.membership, labels, np.arange(n)):
                k, m = int(start.max()) + 1, inst.nbr.size // 2
                if k < n:
                    paths.add(k * (k - 1) <= 2 * m)
                seed, check = int(rng.integers(2**32)), bool(rng.integers(2))
                new_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                memb, gain, info = pass_call(inst, start.astype(np.int64), new_rng, eps, check)
                ref_memb, ref_gain, counts = reference_coarsen(inst, start.astype(np.int64), ref_rng, eps, check)
                assert memb.dtype == ref_memb.dtype and memb.tobytes() == ref_memb.tobytes()
                assert np.float64(gain).tobytes() == np.float64(ref_gain).tobytes()
                assert new_rng.bit_generator.state == ref_rng.bit_generator.state
                assert info[[0, 5, 6, 7, 8]].tolist() == counts and info[9] == 0
                merged += gain > 0.0
    assert paths == {True, False} and merged > 0
    assert rule in rules and Ks == terms


def test_a_coarsening_pass_allocates_the_layout_it_needs(monkeypatch):
    """Each pass asks the solve's callback for the words it lays out, and
    writes within them: answered instead with 0xFF bytes (NaN as doubles,
    -1 as counts) and 64 guard words past the words asked, every guard
    keeps its bytes and every solve gives the partition of an unpatched one.
    A pass that gets no work returns -6 before writing anything."""
    work_type, given = solver._WORK, []

    def guarded(give):
        def work(words):
            given.append(np.full(words + 64, -1, dtype=np.int64))
            return given[-1].ctypes.data

        return work_type(work)

    rng = np.random.default_rng(160)
    queries = [random_sl_vector(rng, n, sparse_density=d) for n, d in ((40, 0.02), (60, 0.3), (120, 0.05))]
    want = [louvain_project(q, seed=1).membership.tobytes() for q in queries]
    monkeypatch.setattr(solver, "_WORK", guarded)
    assert [louvain_project(q, seed=1).membership.tobytes() for q in queries] == want
    assert given and all((buf[-64:] == -1).all() for buf in given)
    q = queries[2]
    inst, start = _Instance.from_pair_vector(q), np.repeat(np.arange(60), 2)
    labels = start.copy()
    with pytest.raises(MemoryError, match="the pass got no work"):
        pass_call(inst, labels, np.random.default_rng(0), _eps(q), False, work=lambda words: None)
    assert np.array_equal(labels, start)


def test_a_solve_whose_work_cannot_be_allocated_raises_memory_error(monkeypatch):
    """A pass whose work cannot be allocated ends the solve with a
    MemoryError naming the words, raised once the compiled call returns:
    here the solve's own callback is asked for 2^50 words (8 PiB) by every
    pass."""
    work_type = solver._WORK
    monkeypatch.setattr(solver, "_WORK", lambda give: work_type(lambda words: give(2**50 if words else 0)))
    q = random_sl_vector(np.random.default_rng(161), 40, sparse_density=0.1)
    with pytest.raises(MemoryError, match="cannot allocate the 1125899906842624 words of work of a coarsening pass"):
        louvain_project(q, seed=1)


@pytest.mark.parametrize(
    "labels, message", [([0, -1, 1], "node 1 carries a label outside 0..1"), ([0, 1], "every node")]
)
def test_a_coarsening_pass_rejects_a_label_outside_the_supernodes(labels, message):
    q = PairVector.from_pairs(3, {(0, 1): 1.0, (1, 2): 1.0}, (), -0.5)
    with pytest.raises(ValueError, match=message):
        pass_call(_Instance.from_pair_vector(q), np.array(labels), np.random.default_rng(0), 0.0, False)


@pytest.mark.parametrize("kind", PASS_KINDS)
def test_a_solve_call_matches_the_python_cycle_loop(kind, monkeypatch):
    """solver._solve, one compiled call per restart, against
    helpers.reference_project, the Python cycle loop of level and pass calls
    and fine state rebuilds, restart by restart as louvain_project runs
    them: the same membership bytes, objective bits, fine counters (sweeps,
    visits, skipped, narrow) and bit generator state after, and the same cap
    warnings; louvain_project keeps the reference's best restart. n = 1..120,
    restarts 1 and 3, and the caps MAX_SWEEPS = 1 and MAX_CYCLES = 1."""
    rng = np.random.default_rng(170 + list(PASS_KINDS).index(kind))
    kwargs = PASS_KINDS[kind][0]
    capped = cycles = 0
    for sweeps, max_cycles in ((solver.MAX_SWEEPS, solver.MAX_CYCLES), (1, solver.MAX_CYCLES), (solver.MAX_SWEEPS, 1)):
        monkeypatch.setattr(solver, "MAX_SWEEPS", sweeps)
        monkeypatch.setattr(solver, "MAX_CYCLES", max_cycles)
        for n in (1, 2, 3, 5, 8, 13, 21, 30, 45, 60, 90, 120):
            q = random_sl_vector(rng, n, **{"sparse_density": float(rng.choice([0.02, 0.1, 0.4])), **kwargs})
            inst, eps = _Instance.from_pair_vector(q), _eps(q)
            seed, restarts, check = int(rng.integers(2**32)), int(rng.choice([1, 3])), bool(rng.integers(2))
            best = None
            for r in range(restarts):
                new_rng, ref_rng = (np.random.default_rng([seed, r] if restarts > 1 else seed) for _ in range(2))
                with warnings.catch_warnings(record=True) as new_caught:
                    warnings.simplefilter("always")
                    memb, objective, info = _solve(inst, q, new_rng, eps, check)
                with warnings.catch_warnings(record=True) as ref_caught:
                    warnings.simplefilter("always")
                    ref = reference_project(inst, q, ref_rng, eps, check)
                assert memb.dtype == ref.membership.dtype and memb.tobytes() == ref.membership.tobytes()
                assert np.float64(objective).tobytes() == np.float64(ref.objective).tobytes()
                assert info[5:9].tolist() == [getattr(ref, counter) for counter in FINE_COUNTERS]
                assert new_rng.bit_generator.state == ref_rng.bit_generator.state
                texts = [sorted(str(w.message) for w in caught) for caught in (new_caught, ref_caught)]
                assert texts[0] == texts[1]
                capped += len(texts[0])
                cycles += info[23]
                if best is None or ref.objective > best.objective:
                    best = ref
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # compared above
                C = louvain_project(q, seed, restarts=restarts, debug_checks=check)
            assert C.membership.tobytes() == Partition(best.membership).membership.tobytes()
    assert capped > 0 and cycles > 0


def test_explicit_zero_pairs_are_left_out():
    """A sparse pair stored as 0.0 is not in the rows, so it marks no
    neighbour: the solve visits and skips exactly as without it."""
    rng = np.random.default_rng(31)
    n = 60
    q = _sign_rule_query(rng, n)
    ii, jj = pair_members(q.pair_ids, n)
    pairs = {(int(i), int(j)): v for i, j, v in zip(ii, jj, q.values) if (i, j) != (0, 1)}
    absent = [(int(i), int(j)) for i, j in zip(*np.triu_indices(n, k=1)) if (int(i), int(j)) not in pairs]
    zeros = {pair: 0.0 for pair in [(0, 1)] + [absent[i] for i in rng.choice(len(absent), 40, replace=False)]}
    without = PairVector.from_pairs(n, pairs, q.terms, q.constant)
    with_zeros = PairVector.from_pairs(n, {**pairs, **zeros}, q.terms, q.constant)
    states = []
    for v in (without, with_zeros):
        inst = _Instance.from_pair_vector(v)
        assert inst.sign_rule and inst.wts.all() and inst.nbr.size == 2 * len(pairs)
        states.append(_solve(inst, v, np.random.default_rng(4), 1e-12 * v.norm() * math.sqrt(v.N), True))
    (a, _, a_info), (b, _, b_info) = states
    assert a_info[7] > 0
    assert np.array_equal(a, b) and a_info[6:8].tolist() == b_info[6:8].tolist()


def test_an_underflowed_zero_leaves_the_shared_layout_untouched(monkeypatch):
    """A scaled copy whose value underflows to an exact 0 gets rows of its
    nonzero pairs alone; the layout it shares with its source is neither
    changed nor, when not yet built, built."""
    rng = np.random.default_rng(52)
    n = 25
    q = random_sl_vector(rng, n, sparse_density=0.4)
    tiny = PairVector(n, q.pair_ids, np.where(np.arange(q.values.size) % 3 == 0, 1e-300, q.values), q.terms)
    layout = tiny.support_rows()
    before = [a.tobytes() for a in layout]
    s = tiny.scaled(1e-30)  # 1e-330 underflows to 0.0
    nz = np.flatnonzero(s.values)
    assert 0 < nz.size < s.values.size
    inst = _Instance.from_pair_vector(s)
    ii, jj = pair_members(s.pair_ids[nz], n)
    for got, want in zip((inst.indptr, inst.nbr, inst.wts), build_csr(n, ii, jj, s.values[nz])):
        assert got.tobytes() == want.tobytes()
    assert s.support_rows() is layout and [a.tobytes() for a in layout] == before

    def built(n, ids):
        raise AssertionError("the shared layout was built")

    fresh = PairVector(n, tiny.pair_ids, tiny.values, tiny.terms).scaled(1e-30)
    monkeypatch.setattr(geometry, "_rows", built)
    assert _Instance.from_pair_vector(fresh).wts.tobytes() == inst.wts.tobytes()


@pytest.mark.parametrize(
    "spec, n, first, again",
    [(QuerySpec("markov", t=5, isolated="zero", heuristic="exact"), 1000, 56, 24),
     (QuerySpec("cl-modularity", heuristic="exact"), 20_000, None, 160)],
    ids=["walk-t5", "cl-modularity"],
)
def test_a_solve_traces_a_bounded_peak_per_support_pair(spec, n, first, again):
    """A solve's traced peak per support pair. The first solve on a support
    builds its rows (32 bytes a pair) and the weights (16): 48.5 measured on
    the t=5 walk (490,627 pairs). A later one gathers only the weights: 16.5
    there, and 132 on the sparse cl-modularity query (80,155 pairs), where
    the coarsening passes' work sets the peak; a pass's work is released
    before the next is allocated (246 while both were held)."""
    G, T = generate(GeneratorSpec("ppm", n=n, k=n // 20, lambda_in=6.0, lambda_out=2.0), 1)
    q = build_query(G, spec, T)
    P = q.pair_ids.size
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(2):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            louvain_project(q, seed=3)
            peaks.append((tracemalloc.get_traced_memory()[1] - before) / P)
    finally:
        tracemalloc.stop()
    assert (first is None or peaks[0] <= first) and peaks[1] <= again, peaks


@pytest.mark.parametrize("heuristic", ["off", "exact"], ids=["raw", "corrected"])
@pytest.mark.parametrize(
    "spec",
    [QuerySpec("er-modularity"), QuerySpec("cl-modularity"), QuerySpec("ppm", p_in=0.3, p_out=0.05)],
    ids=["er-modularity", "cl-modularity", "ppm"],
)
def test_edge_set_queries_solve_on_the_graphs_rows(monkeypatch, spec, heuristic):
    """A query whose sparse support is the edge set reads the graph's own
    rows: once the graph exists, no solve builds rows, raw or corrected."""
    G, T = generate(GeneratorSpec("ppm", n=200, k=10), 4)

    def built(n, ids):
        raise AssertionError("rows were built again")

    for module in (_kernel, geometry, graph, solver):
        monkeypatch.setattr(module, "_rows", built)
    q = build_query(G, dataclasses.replace(spec, heuristic=heuristic), T)
    assert q.support_rows() is G._support["rows"]
    assert louvain_project(q, seed=3).k > 1


def test_an_edge_set_detection_traces_a_bounded_peak_per_edge():
    """A whole cl-modularity detection with the exact correction (the query
    and its solve) at PPM n=2*10^5, 800,114 edges: 142 traced bytes per edge
    measured, 184 while the query built rows of its own, and 10 held after
    it, besides the graph."""
    G, T = generate(GeneratorSpec("ppm", n=200_000, k=10_000), 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        q = build_query(G, QuerySpec("cl-modularity", heuristic="exact"), T)
        louvain_project(q, seed=3)
        held, peak = (b - before for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert peak <= 160 * G.m and held <= 24 * G.m, (peak / G.m, held / G.m)
