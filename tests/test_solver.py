import hashlib
import math
import warnings

import numpy as np
import pytest

from pairsphere import solver
from pairsphere.clustering import Partition, evaluate, query_alignment
from pairsphere.generators import GeneratorSpec, generate
from pairsphere.geometry import LowRankTerm, PairVector
from pairsphere.graph import Graph
from pairsphere.queries import QuerySpec, build_query, er_modularity_query
from pairsphere.solver import (
    SolverState,
    _aggregate,
    _apply_move,
    _Instance,
    _local_moves,
    _node_gain_vector,
    _project_once,
    _sweep,
    exact_project,
    louvain_project,
    max_single_move_gain,
    move_gain,
)
from pairsphere.tune import detect_once

from helpers import all_partitions, dense_of, random_membership, random_sl_vector, reference_sweep


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
}


def _assert_compact(state):
    """Labels 0..k-1, each used (what _aggregate relies on), and a slot table
    of the k live slots plus one empty slot."""
    k = state.U.shape[1] - 1
    np.testing.assert_array_equal(np.unique(state.membership), np.arange(k))
    assert state.U.shape[0] == state.inst.factors.shape[0]
    assert not state.U[:, -1].any()


@pytest.mark.parametrize("kind", QUERY_KINDS)
def test_slot_table_holds_live_communities_plus_one_empty_slot(kind):
    rng = np.random.default_rng(list(QUERY_KINDS).index(kind))
    for trial in range(10):
        n = int(rng.integers(5, 30))
        q = random_sl_vector(rng, n, sparse_density=0.3, **QUERY_KINDS[kind])
        C = Partition(random_membership(rng, n))
        state = SolverState.from_partition(q, C)
        _assert_compact(state)
        eps = 1e-12 * q.norm() * math.sqrt(q.N)
        while _sweep(state, rng.permutation(n), eps):
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
    _apply_move(state, 0, fresh, move_gain(state, 0, fresh))
    assert state.U.shape[1] == 5
    assert not state.U[:, -1].any()
    np.testing.assert_array_equal(state.U[:, fresh], state.inst.factors[:, 0])
    assert state.objective == pytest.approx(query_alignment(q, Partition(state.membership)), rel=1e-12)


@pytest.mark.parametrize("kind", QUERY_KINDS)
def test_node_gain_vector_matches_dense_on_every_slot(kind):
    rng = np.random.default_rng(30 + list(QUERY_KINDS).index(kind))
    for _ in range(10):
        n = int(rng.integers(3, 12))
        q = random_sl_vector(rng, n, sparse_density=0.4, **QUERY_KINDS[kind])
        Q = np.zeros((n, n))
        iu, ju = np.triu_indices(n, k=1)
        Q[iu, ju] = dense_of(q)
        Q += Q.T
        state = SolverState.from_partition(q, Partition(random_membership(rng, n)))
        k = state.U.shape[1]  # live slots plus the empty last one
        for i in range(n):
            W, w_cur = _node_gain_vector(state, i)
            ref = np.bincount(state.membership, weights=Q[i], minlength=k)  # Q[i, i] = 0
            np.testing.assert_allclose(W, ref, rtol=1e-9, atol=1e-12)
            assert ref[-1] == 0.0 and w_cur == W[state.membership[i]]


@pytest.mark.parametrize("K", range(6))
def test_node_gain_vector_keeps_the_bits_of_the_matmul_form(K):
    """np.dot of a row view with the slot table gives the bits of the
    (n, K) matrix's row @ U, on fresh, grown and relabelled tables."""
    rng = np.random.default_rng(60 + K)
    for trial in range(6):
        n = int(rng.integers(4, 40))
        terms = tuple(LowRankTerm(rng.normal(), rng.normal(size=n)) for _ in range(K))
        pairs = {(i, j): rng.normal() for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3}
        q = PairVector.from_pairs(n, pairs, terms, 0.0)
        state = SolverState.from_partition(q, Partition(random_membership(rng, n)))
        scaled = np.ascontiguousarray((state.inst.coefs[:, None] * state.inst.factors).T)
        for sweep in range(3):
            for i in range(n):
                W, w_cur = _node_gain_vector(state, i)
                nbr, wts = state.inst.rows[i]
                ref = scaled[i] @ state.U
                ref += np.bincount(state.membership[nbr], weights=wts, minlength=ref.size)
                cur = int(state.membership[i])
                ref[cur] -= scaled[i] @ state.inst.factors[:, i]
                assert W.tobytes() == ref.tobytes() and w_cur == float(ref[cur])
            _sweep(state, rng.permutation(n), 0.0)


@pytest.mark.parametrize("tracking", [False, True], ids=["full", "tracking"])
@pytest.mark.parametrize("kind", QUERY_KINDS)
def test_sweep_matches_the_per_visit_reference(kind, tracking):
    """_sweep against helpers.reference_sweep, sweep after sweep: the same
    moves, membership, slot table, objective, counters and marks, bit for
    bit, with the empty slot going live along the way; every sweep leaves
    compact labels."""
    rng = np.random.default_rng(70 + 2 * list(QUERY_KINDS).index(kind) + tracking)
    grew = skipped = 0
    for trial in range(8):
        n = int(rng.integers(5, 40))
        q = random_sl_vector(rng, n, sparse_density=0.3, **QUERY_KINDS[kind])
        start = random_membership(rng, n, k_max=4) if trial % 2 else np.arange(n)
        inst, eps = _Instance.from_pair_vector(q), 1e-12 * q.norm() * math.sqrt(q.N)
        new, ref = (SolverState(inst, start, query_alignment(q, Partition(start))) for _ in range(2))
        if tracking:
            marks = rng.random(n) < 0.5
            for state in (new, ref):
                state.tracking = True
                state.dirty_view[:] = marks
        for _ in range(30):
            live = new.U.shape[1] - 1
            order = rng.permutation(n)
            moves = _sweep(new, order, eps)
            assert reference_sweep(ref, order, eps) == moves
            assert new.membership.dtype == ref.membership.dtype
            assert new.membership.tobytes() == ref.membership.tobytes()
            assert new.U.shape == ref.U.shape and new.U.tobytes() == ref.U.tobytes()
            assert new.objective == ref.objective
            assert (new.visits, new.skipped, new.dirty) == (ref.visits, ref.skipped, ref.dirty)
            _assert_compact(new)
            grew += new.U.shape[1] - 1 > live
            if moves == 0:
                break
        skipped += new.skipped
    assert grew > 0
    assert (skipped > 0) == tracking


@pytest.mark.parametrize("slot", [0, -1])
def test_debug_checks_catch_a_drifted_slot_table(monkeypatch, slot):
    local_moves = solver._local_moves

    def drifting(state, rng, eps):
        moves = local_moves(state, rng, eps)
        state.U[:, slot] += 1e-12 if slot == -1 else 1e-6  # the empty slot must stay exactly 0
        return moves

    monkeypatch.setattr(solver, "_local_moves", drifting)
    with pytest.raises(AssertionError, match="slot table"):
        louvain_project(PairVector.constant_vector(6, -1.0), seed=0, debug_checks=True)


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


def test_partitions_pinned():
    for gen, spec, sha in PINNED_PARTITIONS:
        G, T = generate(gen, 1)
        C, _ = detect_once(G, spec, T, seed=3)
        got = hashlib.sha1(C.membership.astype("<i8").tobytes()).hexdigest()
        assert got == sha, (gen.family, spec.label)


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
    coarse = _aggregate(inst, T.membership)  # Partition labels are compact
    assert inst.sign_rule and coarse.sign_rule and coarse.n == T.k


def _fine_level_counts(q, seed):
    state = SolverState(_Instance.from_pair_vector(q), np.arange(q.n), -q.total(), check_skips=True)
    _local_moves(state, np.random.default_rng(seed), 1e-12 * q.norm() * math.sqrt(q.N))
    return state.visits, state.skipped


def test_visit_counters_skip_only_under_the_sign_rule():
    G, T = generate(GeneratorSpec("ppm", n=400, k=20), 1)
    visits, skipped = _fine_level_counts(build_query(G, QuerySpec("cl-modularity", heuristic="exact"), T), 3)
    assert skipped > 0 and visits > 0
    G, T = _ppm200()
    q = build_query(G, QuerySpec("linear", c_j=0.0, c_d=-6.0, heuristic="exact"), T)
    assert q.constant > 0.6  # the corrected constant breaks the rule
    visits, skipped = _fine_level_counts(q, 3)
    assert skipped == 0 and visits % q.n == 0 and visits >= 2 * q.n


def test_dirty_set_solves_are_locally_optimal():
    rng = np.random.default_rng(40)
    for trial in range(12):
        q = _sign_rule_query(rng, int(rng.integers(20, 201)))
        assert _Instance.from_pair_vector(q).sign_rule
        C = louvain_project(q, seed=trial, debug_checks=True)
        assert max_single_move_gain(q, C) <= 1e-12 * q.norm() * math.sqrt(q.N)


def test_debug_checks_catch_a_dropped_mark(monkeypatch):
    """Without the marks for nodes with a row neighbour in the slot the mover
    left, some skipped visit would have moved."""
    q = _seeded_sign_rule_query(22)
    louvain_project(q, seed=22, debug_checks=True)

    def without_b_neighbours(state, j, c):
        state.dirty_view[state.inst.rows[j][0]] = 1
        state.dirty_view[state.membership == c] = 1

    monkeypatch.setattr(solver, "_mark_dirty", without_b_neighbours)
    with pytest.raises(AssertionError, match="would move"):
        louvain_project(q, seed=22, debug_checks=True)


def _merged_members_only(inst, before, after):
    owner = np.zeros(before.max() + 1, dtype=np.int64)
    owner[before] = after
    return (np.bincount(owner) >= 2)[after]


@pytest.mark.parametrize(
    "seed, marks",
    [(0, lambda inst, before, after: np.zeros(inst.n, dtype=bool)), (8, _merged_members_only)],
    ids=["no-marks", "no-neighbour-marks"],
)
def test_debug_checks_catch_dropped_merge_marks(monkeypatch, seed, marks):
    """After coarse levels merge communities, the fine level must revisit the
    merged communities' members and their row neighbours."""
    q = _seeded_sign_rule_query(seed)
    louvain_project(q, seed=seed, debug_checks=True)
    monkeypatch.setattr(solver, "_merge_marks", marks)
    with pytest.raises(AssertionError, match="would move"):
        louvain_project(q, seed=seed, debug_checks=True)


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


def _assert_pair_list_is_upper_triangle(inst):
    heads = np.repeat(np.arange(inst.n), np.diff(inst.indptr))
    up = heads < inst.nbr
    for got, want in zip((inst.pi, inst.pj, inst.pv), (heads[up], inst.nbr[up], inst.wts[up])):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("case", AGGREGATE_CASES)
def test_aggregate_matches_dense_block_sums(case):
    """Every coarse pair (a, b), a != b, holds the sum of the fine entries
    between supernodes a and b; the coarse rows hold no self entry, and the
    pair list holds the rows' upper triangle. A dense block gives the rows
    _build_csr gives, with values equal to round-off."""
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
        coarse = _aggregate(inst, memb)
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
        _assert_pair_list_is_upper_triangle(inst)
        _assert_pair_list_is_upper_triangle(coarse)
        ai, bj = memb[inst.pi], memb[inst.pj]
        cross = ai != bj
        indptr, nbr, wts = solver._build_csr(k, ai[cross], bj[cross], inst.pv[cross])
        assert np.array_equal(coarse.indptr, indptr) and np.array_equal(coarse.nbr, nbr)
        np.testing.assert_allclose(coarse.wts, wts, rtol=1e-12, atol=0)
        if case == "no-sparse-part":
            assert coarse.nbr.size == 0
    assert paths == AGGREGATE_PATHS[case]


def test_explicit_zero_pairs_are_left_out():
    """A sparse pair stored as 0.0 is in neither the rows nor the pair list,
    so it marks no neighbour: the solve visits and skips exactly as without it."""
    rng = np.random.default_rng(31)
    n = 60
    q = _sign_rule_query(rng, n)
    ii, jj = q.sparse_members()
    pairs = {(int(i), int(j)): v for i, j, v in zip(ii, jj, q.values) if (i, j) != (0, 1)}
    absent = [(int(i), int(j)) for i, j in zip(*np.triu_indices(n, k=1)) if (int(i), int(j)) not in pairs]
    zeros = {pair: 0.0 for pair in [(0, 1)] + [absent[i] for i in rng.choice(len(absent), 40, replace=False)]}
    without = PairVector.from_pairs(n, pairs, q.terms, q.constant)
    with_zeros = PairVector.from_pairs(n, {**pairs, **zeros}, q.terms, q.constant)
    states = []
    for v in (without, with_zeros):
        inst = _Instance.from_pair_vector(v)
        assert inst.sign_rule and inst.pv.all() and inst.pi.size == len(pairs)
        states.append(_project_once(inst, v, np.random.default_rng(4), True, 1e-12 * v.norm() * math.sqrt(v.N)))
    a, b = states
    assert a.skipped > 0
    assert np.array_equal(a.membership, b.membership) and (a.visits, a.skipped) == (b.visits, b.skipped)


@pytest.mark.parametrize("seed", range(6))
def test_merge_marks_match_a_dense_reference(seed):
    """The members of every community made of two or more old ones, and every
    node with a nonzero sparse entry towards one of them."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 40))
    q = random_sl_vector(rng, n, sparse_density=0.15)
    before = np.unique(rng.integers(0, n // 3, size=n), return_inverse=True)[1]
    owner = np.arange(before.max() + 1)
    a, b = rng.choice(owner.size, 2, replace=False)
    owner[b] = a  # two old communities merge, every other one stays
    after = np.unique(owner[before], return_inverse=True)[1]
    A = np.zeros((n, n))
    iu, ju = np.triu_indices(n, k=1)
    A[iu, ju] = dense_of(PairVector(n, q.pair_ids, q.values))  # the sparse part alone
    A += A.T
    merged = np.array([np.unique(before[after == after[i]]).size >= 2 for i in range(n)])
    want = merged | (A[:, merged] != 0).any(axis=1)
    assert np.array_equal(solver._merge_marks(_Instance.from_pair_vector(q), before, after), want)
