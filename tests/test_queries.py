import dataclasses
import math

import numpy as np
import pytest

from pairsphere import geometry
from pairsphere.clustering import Partition, partition_latitude, query_alignment, query_angular_distance, query_correlation_distance
from pairsphere.geometry import latitude
from pairsphere.graph import Graph
from pairsphere.queries import (
    QuerySpec,
    apply_granularity_heuristic,
    binary_ppm_query,
    build_query,
    cl_modularity_query,
    correlation_clustering_query,
    er_modularity_latitude,
    er_modularity_query,
    heuristic_latitude,
    linear_combination_query,
    markov_stability_query,
    ppm_likelihood_query,
    query_to_weights,
    rule_latitude,
)

from helpers import (
    all_partitions,
    clm_objective,
    dense_adjacency,
    erm_objective,
    markov_trace_objective,
    nontrivial_membership,
    random_graph_edges,
    same_ranking,
)


def _random_graph(rng, n, p=0.5):
    while True:
        edges = random_graph_edges(rng, n, p)
        G = Graph.from_edges(n, edges)
        if G.m and np.all(G.degrees > 0):
            return G


def test_er_query_gamma_zero_is_adjacency():
    G = Graph.from_edges(4, [(0, 1), (1, 2)])
    q = er_modularity_query(G, 0.0)
    assert q.constant == 0.0
    assert q.entry(0, 1) == 1.0 and q.entry(0, 3) == 0.0


def test_er_query_equator_at_gamma_one():
    rng = np.random.default_rng(1)
    for _ in range(5):
        G = _random_graph(rng, 10)
        q = er_modularity_query(G, 1.0)
        assert latitude(q) == pytest.approx(math.pi / 2, abs=1e-10)


def test_er_latitude_formula_path():
    G = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])  # m=3, N=6
    q = er_modularity_query(G, 2.0)
    assert latitude(q) == pytest.approx(math.pi / 4, abs=1e-12)
    assert er_modularity_latitude(G, 2.0) == pytest.approx(math.pi / 4, abs=1e-15)


@pytest.mark.parametrize("gamma", [0.1, 0.5, 2.0, 5.0])
def test_er_latitude_formula_random(gamma):
    rng = np.random.default_rng(int(gamma * 10))
    for _ in range(5):
        G = _random_graph(rng, 12, 0.4)
        q = er_modularity_query(G, gamma)
        assert latitude(q) == pytest.approx(er_modularity_latitude(G, gamma), abs=1e-10)


def test_cl_query_structure():
    G = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    q0 = cl_modularity_query(G, 0.0)
    assert not q0.terms
    q = cl_modularity_query(G, 1.5)
    assert q.entry(0, 1) == pytest.approx(1.0 - 1.5 * 1 * 2 / 6.0)
    assert q.entry(0, 3) == pytest.approx(-1.5 * 1 * 1 / 6.0)
    with pytest.raises(ValueError):
        cl_modularity_query(Graph.from_edges(3, []), 1.0)


def test_clm_ranking_equivalence_small():
    rng = np.random.default_rng(2)
    parts = [np.array(m) for m in all_partitions(6)]
    for gamma in (0.5, 1.0, 2.0):
        G = _random_graph(rng, 6)
        A = dense_adjacency(6, G.edges)
        q = cl_modularity_query(G, gamma)
        key1 = [clm_objective(A, m, gamma) for m in parts]
        key2 = [-query_angular_distance(q, Partition(m)) for m in parts]
        assert same_ranking(key1, key2)


def test_markov_single_edge():
    G = Graph.from_edges(2, [(0, 1)])
    q = markov_stability_query(G, 1)
    assert q.entry(0, 1) == pytest.approx(0.25)  # 1/2 - 1/4


def test_markov_trace_ranking_equivalence():
    rng = np.random.default_rng(3)
    parts = [np.array(m) for m in all_partitions(6)]
    for t in (1, 2, 3):
        G = _random_graph(rng, 6)
        A = dense_adjacency(6, G.edges)
        q = markov_stability_query(G, t)
        key1 = [markov_trace_objective(A, m, t) for m in parts]
        key2 = [query_alignment(q, Partition(m)) for m in parts]
        assert same_ranking(key1, key2)


def test_markov_t1_equals_cl_gamma1_ranking():
    rng = np.random.default_rng(4)
    parts = [np.array(m) for m in all_partitions(6)]
    for _ in range(5):
        G = _random_graph(rng, 6)
        q_ms = markov_stability_query(G, 1)
        q_cl = cl_modularity_query(G, 1.0)
        key1 = [query_alignment(q_ms, Partition(m)) for m in parts]
        key2 = [query_alignment(q_cl, Partition(m)) for m in parts]
        assert same_ranking(key1, key2)


def test_cc_query_and_inverse():
    w_plus = {(0, 1): 1.0, (1, 2): 0.25}
    w_minus = {(0, 2): 2.0, (1, 2): 1.0}
    q = correlation_clustering_query(w_plus, w_minus, 4)
    assert q.entry(0, 1) == 1.0
    assert q.entry(1, 2) == -0.75
    assert q.entry(0, 2) == -2.0
    wp, wm = query_to_weights(q)
    q2 = correlation_clustering_query(wp, wm, 4)
    assert np.array_equal(q.pair_ids, q2.pair_ids)
    np.testing.assert_allclose(q.values, q2.values)


def test_cc_query_cancellation():
    w = {(0, 1): 1.0, (2, 3): 0.5}
    q = correlation_clustering_query(w, dict(w), 4)
    assert q.norm() == 0.0


def test_cc_pm_one_variant():
    rng = np.random.default_rng(5)
    n = 6
    w_plus, w_minus = {}, {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                w_plus[(i, j)] = 1.0
            else:
                w_minus[(i, j)] = 1.0
    q = correlation_clustering_query(w_plus, w_minus, n)
    assert set(np.unique(q.values)) <= {-1.0, 1.0}


def test_binary_ppm_entries():
    G = Graph.from_edges(3, [(0, 1)])
    q = binary_ppm_query(G, 0.5, 0.25)
    assert q.entry(0, 1) == pytest.approx(math.log(2.0))
    assert q.entry(0, 2) == pytest.approx(math.log(2.0 / 3.0))
    zero = binary_ppm_query(G, 0.3, 0.3)
    assert zero.norm() == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        binary_ppm_query(G, 1.0, 0.5)


def test_general_ppm_query_matches_binary():
    G = Graph.from_edges(4, [(0, 1), (2, 3), (1, 2)])
    p_in, p_out = 0.6, 0.2
    interactions = {(int(u), int(v)): 1.0 for u, v in G.edges}

    def f_in(a):
        return p_in**a * (1 - p_in) ** (1 - a)

    def f_out(a):
        return p_out**a * (1 - p_out) ** (1 - a)

    general = ppm_likelihood_query(interactions, f_in, f_out, 4)
    binary = binary_ppm_query(G, p_in, p_out)
    for i in range(4):
        for j in range(i + 1, 4):
            assert general.entry(i, j) == pytest.approx(binary.entry(i, j), abs=1e-12)
    with pytest.raises(ValueError):
        ppm_likelihood_query(interactions, lambda a: 0.0, f_out, 4)


def test_linear_combination_special_cases():
    rng = np.random.default_rng(6)
    G = _random_graph(rng, 8)
    adj = linear_combination_query(G, 1.0, 0.0, 0.0, 0.0)
    from pairsphere.graph import adjacency_vector

    ref = adjacency_vector(G)
    assert np.array_equal(adj.pair_ids, ref.pair_ids)
    q_cl = linear_combination_query(G, 1.0, 0.0, -1.7, 0.0)
    ref_cl = cl_modularity_query(G, 1.7)
    for i in range(8):
        for j in range(i + 1, 8):
            assert q_cl.entry(i, j) == pytest.approx(ref_cl.entry(i, j), abs=1e-12)


def test_heuristic_latitude_endpoints():
    for lam_t in (0.2, 1.0, math.pi / 2, 2.7):
        assert heuristic_latitude(lam_t, 0.0) == pytest.approx(lam_t, abs=1e-12)
        assert heuristic_latitude(lam_t, math.pi / 2) == pytest.approx(math.pi / 2, abs=1e-12)


def test_heuristic_latitude_value():
    lam = heuristic_latitude(math.pi / 3, math.pi / 4)
    expected = math.acos(
        (0.5 * math.sqrt(2) / 2) / (1.0 + (math.sqrt(3) / 2) * (math.sqrt(2) / 2))
    )
    assert lam == pytest.approx(expected, abs=1e-12)
    assert lam == pytest.approx(1.3493, abs=5e-4)


def test_heuristic_latitude_monotone_and_bounded():
    for lam_t in (0.1, 0.8, 1.4):
        thetas = np.linspace(0.0, math.pi / 2, 40)
        vals = [heuristic_latitude(lam_t, th) for th in thetas]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(min(lam_t, math.pi / 2) - 1e-12 <= v <= math.pi / 2 + 1e-12 for v in vals)
    with pytest.raises(ValueError):
        heuristic_latitude(0.0, 0.1)
    with pytest.raises(ValueError):
        heuristic_latitude(1.0, 2.0)


def test_rule_latitude_strategies():
    lam_t, theta = 0.7, 0.4
    assert rule_latitude("match-planted", lam_t, theta) == lam_t
    expected = math.atan(math.cos(theta) * math.tan(lam_t))
    assert rule_latitude("min-distance", lam_t, theta) == pytest.approx(expected)
    with pytest.raises(ValueError):
        rule_latitude("nope", lam_t, theta)


def test_min_distance_rule_obtuse_reference():
    lam = rule_latitude("min-distance", 2.0, 0.3)
    assert math.pi / 2 < lam < math.pi
    assert math.tan(lam) == pytest.approx(math.cos(0.3) * math.tan(2.0), rel=1e-12)


def test_apply_heuristic_solves_distance_equation():
    rng = np.random.default_rng(7)
    for _ in range(10):
        G = _random_graph(rng, 12, 0.4)
        T = Partition(nontrivial_membership(rng, 12))
        q = er_modularity_query(G, 1.0)
        theta = query_correlation_distance(q, T)
        if theta > math.pi / 2:
            continue
        q_star = apply_granularity_heuristic(q, T)
        assert query_angular_distance(q_star, T) == pytest.approx(theta, abs=1e-9)


def test_apply_heuristic_fixed_values():
    rng = np.random.default_rng(8)
    G = _random_graph(rng, 10)
    q = er_modularity_query(G, 1.0)
    out = apply_granularity_heuristic(q, lam_t=0.9, theta=0.3)
    assert latitude(out) == pytest.approx(heuristic_latitude(0.9, 0.3), abs=1e-12)
    with pytest.raises(ValueError):
        apply_granularity_heuristic(q)


def test_corrected_query_keeps_the_sparse_members(monkeypatch):
    """Scaling and parallel projection keep the sparse pairs, so the vectors
    they return carry the cached (i, j) members: no second id inversion."""
    rng = np.random.default_rng(13)
    G = _random_graph(rng, 12, 0.4)
    T = Partition(nontrivial_membership(rng, 12))
    q = build_query(G, QuerySpec("markov", t=2), T)
    members = q.sparse_members()
    outs = [build_query(G, QuerySpec("markov", t=2, heuristic="exact"), T), q.scaled(2.0)]

    def inverted_again(ids, n):
        raise AssertionError("pair ids inverted again")

    monkeypatch.setattr(geometry, "pair_members", inverted_again)
    for out in outs:
        got = out.sparse_members()
        assert all(np.array_equal(a, b) for a, b in zip(got, members))


def test_positive_scaling_leaves_argmin_unchanged():
    rng = np.random.default_rng(9)
    parts = [Partition(np.array(m)) for m in all_partitions(6)]
    G = _random_graph(rng, 6)
    q = cl_modularity_query(G, 1.3)
    base = [query_angular_distance(q, C) for C in parts]
    scaled = [query_angular_distance(q.scaled(7.5), C) for C in parts]
    assert int(np.argmin(base)) == int(np.argmin(scaled))


def test_corclust_affine_invariance_of_argmax():
    rng = np.random.default_rng(10)
    from pairsphere.clustering import corclust_agreement

    n = 5
    parts = [Partition(np.array(m)) for m in all_partitions(n)]
    w_plus = {(i, j): float(rng.random()) for i in range(n) for j in range(i + 1, n)}
    w_minus = {(i, j): float(rng.random()) for i in range(n) for j in range(i + 1, n)}
    base = np.array([corclust_agreement(C, w_plus, w_minus) for C in parts])
    a, b = 3.0, 2.5
    wp2 = {k: a + b * v for k, v in w_plus.items()}
    wm2 = {k: a + b * v for k, v in w_minus.items()}
    shifted = np.array([corclust_agreement(C, wp2, wm2) for C in parts])
    assert set(np.flatnonzero(base == base.max())) == set(
        np.flatnonzero(np.isclose(shifted, shifted.max(), rtol=1e-12))
    )


def test_erm_ranking_equivalence_small():
    rng = np.random.default_rng(11)
    parts = [np.array(m) for m in all_partitions(6)]
    for gamma in (0.5, 2.0):
        G = _random_graph(rng, 6)
        A = dense_adjacency(6, G.edges)
        q = er_modularity_query(G, gamma)
        key1 = [erm_objective(A, m, gamma) for m in parts]
        key2 = [-query_angular_distance(q, Partition(m)) for m in parts]
        assert same_ranking(key1, key2)


def test_query_spec_validation():
    with pytest.raises(ValueError):
        QuerySpec("nope")
    with pytest.raises(ValueError):
        QuerySpec("markov", t=0)
    with pytest.raises(ValueError):
        QuerySpec("er-modularity", heuristic="fixed")
    with pytest.raises(ValueError, match="pilot"):
        QuerySpec("markov", heuristic="means", pilots=0)
    for p_in, p_out in ((None, 0.1), (0.3, None), (1.0, 0.1), (0.3, 0.0)):
        with pytest.raises(ValueError, match="strictly inside"):
            QuerySpec("ppm", p_in=p_in, p_out=p_out)
    with pytest.raises(ValueError, match="cc method"):
        QuerySpec("cc")
    assert QuerySpec("cc", w_minus={(0, 1): 1.0}).w_minus
    spec = QuerySpec("markov", t=2, heuristic="exact")
    assert "markov" in spec.label and "t=2" in spec.label


def test_base_key_covers_every_field_but_granularity_handling():
    base = QuerySpec("markov")
    changes = {
        "method": "cl-modularity", "gamma": 2.0, "t": 3, "isolated": "zero", "p_in": 0.5,
        "p_out": 0.1, "c_a": 2.0, "c_j": 0.5, "c_d": -1.0, "c_1": 0.3,
        "w_plus": {"adj": 1.0}, "w_minus": {"jac": 1.0},
        "heuristic": "exact", "lam_t": 1.0, "theta": 0.5, "pilots": 3, "rule": "min-distance",
        "name": "x",
    }
    assert set(changes) == {f.name for f in dataclasses.fields(QuerySpec)}
    handling = {"heuristic", "lam_t", "theta", "pilots", "rule", "name"}
    for name, value in changes.items():
        changed = dataclasses.replace(base, **{name: value}).base_key() != base.base_key()
        assert changed == (name not in handling), name
    a = QuerySpec("linear", w_plus={"adj": 1.0, "jac": 2.0})
    b = QuerySpec("linear", w_plus={"jac": 2.0, "adj": 1.0})
    assert a.base_key() == b.base_key()
    hash(a.base_key())


def test_build_query_dispatch_and_heuristic():
    rng = np.random.default_rng(12)
    G = _random_graph(rng, 10)
    T = Partition(nontrivial_membership(rng, 10))
    q = build_query(G, QuerySpec("er-modularity", gamma=1.0), T)
    assert latitude(q) == pytest.approx(math.pi / 2, abs=1e-10)
    qh = build_query(G, QuerySpec("er-modularity", gamma=1.0, heuristic="exact"), T)
    lam_t = partition_latitude(T)
    theta = query_correlation_distance(q, T)
    assert latitude(qh) == pytest.approx(heuristic_latitude(lam_t, theta), abs=1e-9)
    with pytest.raises(ValueError):
        build_query(G, QuerySpec("er-modularity", heuristic="exact"))
