import math
import tracemalloc

import numpy as np
import pytest

from pairsphere.graph import (
    Graph,
    adjacency_vector,
    degree_product_vector,
    jaccard_vector,
    read_edges,
    walk_distribution,
    write_edges,
)
from pairsphere.generators import GeneratorSpec, generate
from pairsphere.geometry import latitude
from pairsphere.pairs import pair_members
from pairsphere.queries import markov_stability_query

from helpers import dense_adjacency, dense_of, random_graph_edges


def test_graph_basics():
    G = Graph.from_edges(4, [(0, 1), (2, 1), (2, 3)])
    assert G.m == 3
    assert G.degrees.tolist() == [1, 2, 2, 1]
    assert sorted(G.neighbors(1).tolist()) == [0, 2]
    assert int(G.degrees.sum()) == 2 * G.m


def test_graph_without_edges():
    G = Graph.from_edges(3, [])
    assert G.degrees.tolist() == [0, 0, 0]
    assert all(G.neighbors(i).size == 0 for i in range(3))
    A = G.adjacency_csr()
    assert A.shape == (3, 3) and A.nnz == 0


def test_graph_dedup_and_self_loops():
    with pytest.warns(UserWarning, match="self-loop"):
        G = Graph.from_edges(3, [(0, 0), (0, 1)])
    assert G.m == 1
    with pytest.warns(UserWarning, match="duplicate"):
        G = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert G.m == 1


def test_graph_from_edge_array_equals_from_tuples():
    tuples = [(3, 1), (0, 2), (1, 3), (4, 0), (2, 2), (0, 1)]
    with pytest.warns(UserWarning):
        G = Graph.from_edges(5, tuples)
    with pytest.warns(UserWarning):
        H = Graph.from_edges(5, np.array(tuples, dtype=np.int32))
    assert H.n == G.n and H.edges.dtype == G.edges.dtype and H.edges.tobytes() == G.edges.tobytes()
    assert Graph.from_edges(5, iter(tuples[:2])).edges.tolist() == [[0, 2], [1, 3]]


def test_adjacency_vector():
    empty = Graph.from_edges(4, [])
    assert adjacency_vector(empty).norm() == 0.0
    k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    v = adjacency_vector(k3)
    assert v.norm() == pytest.approx(math.sqrt(3))
    assert v.entry(0, 1) == 1.0 and v.entry(0, 2) == 1.0


def test_adjacency_vector_latitude():
    # K4 minus one edge: n=4, m=5, N=6
    G = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    v = adjacency_vector(G)
    assert latitude(v) == pytest.approx(math.acos(-math.sqrt(5.0 / 6.0)), abs=1e-12)


def test_degree_product_vector():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    d = degree_product_vector(star)
    assert d.entry(0, 1) == pytest.approx(0.5)  # 3*1/(2*3)
    assert d.entry(1, 2) == pytest.approx(1.0 / 6.0)
    with pytest.raises(ValueError):
        degree_product_vector(Graph.from_edges(3, []))


def test_degree_product_regular_graph():
    cycle = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    d = degree_product_vector(cycle)
    for i in range(5):
        for j in range(i + 1, 5):
            assert d.entry(i, j) == pytest.approx(4.0 / 10.0)


def test_degree_product_total_identity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        edges = random_graph_edges(rng, 12, 0.4)
        if not edges:
            continue
        G = Graph.from_edges(12, edges)
        d = degree_product_vector(G)
        deg = G.degrees.astype(float)
        expected = ((2 * G.m) ** 2 - float(deg @ deg)) / (4.0 * G.m)
        assert d.total() == pytest.approx(expected, rel=1e-12)
        assert d.total() == pytest.approx(dense_of(d).sum(), rel=1e-9)


def test_jaccard_single_edge_and_triangle():
    pair = Graph.from_edges(2, [(0, 1)])
    assert jaccard_vector(pair).entry(0, 1) == pytest.approx(1.0)
    k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    j = jaccard_vector(k3)
    for i in range(3):
        for jj in range(i + 1, 3):
            assert j.entry(i, jj) == pytest.approx(1.0)


def test_jaccard_path():
    G = Graph.from_edges(3, [(0, 1), (1, 2)])
    j = jaccard_vector(G)
    assert j.entry(0, 2) == pytest.approx(1.0 / 3.0)
    assert j.entry(0, 1) == pytest.approx(2.0 / 3.0)


def test_jaccard_brute_force():
    rng = np.random.default_rng(9)
    for _ in range(10):
        edges = random_graph_edges(rng, 10, 0.3)
        G = Graph.from_edges(10, edges)
        j = jaccard_vector(G)
        nbrs = [set(G.neighbors(i).tolist()) | {i} for i in range(10)]
        for a in range(10):
            for b in range(a + 1, 10):
                inter = len(nbrs[a] & nbrs[b])
                expected = inter / len(nbrs[a] | nbrs[b]) if inter else 0.0
                assert j.entry(a, b) == pytest.approx(expected, abs=1e-12)
        vals_in_range = (j.values > 0) & (j.values <= 1.0)
        assert vals_in_range.all()


def test_walk_single_edge():
    G = Graph.from_edges(2, [(0, 1)])
    w = walk_distribution(G, 1)
    assert w.values.tolist() == [0.5]
    assert markov_stability_query(G, 1).terms[0].factor.tolist() == [0.5, 0.5]


def test_walk_t1_reduces_to_edges_over_2m():
    rng = np.random.default_rng(13)
    edges = random_graph_edges(rng, 9, 0.5)
    G = Graph.from_edges(9, edges)
    if np.any(G.degrees == 0):
        pytest.skip("needs no isolated nodes")
    w = walk_distribution(G, 1)
    ii, jj = pair_members(w.pair_ids, 9)
    A = dense_adjacency(9, G.edges)
    for a, b, val in zip(ii, jj, w.values):
        assert val == pytest.approx(A[a, b] / (2.0 * G.m), rel=1e-12)


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_walk_matches_dense_matrix_power(t):
    rng = np.random.default_rng(17 + t)
    while True:
        edges = random_graph_edges(rng, 11, 0.35)
        G = Graph.from_edges(11, edges)
        if G.m and np.all(G.degrees > 0):
            break
    w = walk_distribution(G, t)
    A = dense_adjacency(11, G.edges)
    P = A / A.sum(axis=1)[:, None]
    s = A.sum(axis=1) / A.sum()
    M = np.diag(s) @ np.linalg.matrix_power(P, t)
    ref = 0.5 * (M + M.T)
    dense = np.zeros((11, 11))
    ii, jj = pair_members(w.pair_ids, 11)
    dense[ii, jj] = w.values
    for a in range(11):
        for b in range(a + 1, 11):
            assert dense[a, b] == pytest.approx(ref[a, b], abs=1e-12)
    # row sums of P^t stay stochastic
    assert np.linalg.matrix_power(P, t).sum(axis=1) == pytest.approx(np.ones(11), abs=1e-12)


def test_walk_symmetry_check():
    rng = np.random.default_rng(23)
    edges = random_graph_edges(rng, 10, 0.4)
    G = Graph.from_edges(10, edges)
    if np.any(G.degrees == 0):
        pytest.skip("needs no isolated nodes")
    A = dense_adjacency(10, G.edges)
    P = A / A.sum(axis=1)[:, None]
    s = A.sum(axis=1) / A.sum()
    for t in (1, 2, 3):
        M = np.diag(s) @ np.linalg.matrix_power(P, t)
        assert np.abs(M - M.T).max() < 1e-12


def test_walk_isolated_node():
    G = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError, match="isolated"):
        walk_distribution(G, 1)
    w = walk_distribution(G, 1, isolated="zero")
    assert w.values.tolist() == [0.5]
    assert markov_stability_query(G, 1, isolated="zero").terms[0].factor.tolist() == [0.5, 0.5, 0.0]
    with pytest.raises(ValueError):
        walk_distribution(G, 0)


@pytest.mark.parametrize("t", [3, 4])
def test_walk_isolated_zero_matches_subgraph(t):
    # node 10 is isolated; its weights vanish and every other pair equals the
    # walk on the 10-node subgraph without it
    rng = np.random.default_rng(31 + t)
    while True:
        edges = random_graph_edges(rng, 10, 0.35)
        G = Graph.from_edges(11, edges)
        if np.all(G.degrees[:10] > 0):
            break
    w = walk_distribution(G, t, isolated="zero")
    A = dense_adjacency(10, G.edges)
    P = A / A.sum(axis=1)[:, None]
    s = A.sum(axis=1) / A.sum()
    ref = np.zeros((11, 11))
    ref[:10, :10] = np.diag(s) @ np.linalg.matrix_power(P, t)
    dense = np.zeros((11, 11))
    dense[pair_members(w.pair_ids, 11)] = w.values
    iu = np.triu_indices(11, k=1)
    np.testing.assert_allclose(dense[iu], ref[iu], rtol=0, atol=1e-12)


@pytest.mark.parametrize("t", [4, 5])
def test_walk_peak_memory_bounded_by_result(t):
    # the walk allocates O(result), never an n x n array: at n=1000 the
    # traced peak stays within 5x the bytes of the returned ids and values
    G, _ = generate(GeneratorSpec("ppm", n=1000, k=50), 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        w = walk_distribution(G, t, isolated="zero")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 5 * (w.pair_ids.nbytes + w.values.nbytes)


def test_walk_bipartite_finite_t_allowed():
    # a 4-cycle is bipartite (periodic); finite t is still well-defined
    G = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    w = walk_distribution(G, 2)
    assert w.values.size > 0


def test_edge_file_roundtrip(tmp_path):
    G = Graph.from_edges(5, [(0, 1), (2, 3), (1, 4)])
    path = tmp_path / "g.edges"
    write_edges(path, G)
    back, mapping = read_edges(path)
    assert mapping is None
    assert np.array_equal(back.edges, G.edges)


def test_edge_file_roundtrip_keeps_isolated_nodes(tmp_path):
    G = Graph.from_edges(5, [(0, 1), (1, 4)])  # nodes 2 and 3 have no edges
    path = tmp_path / "iso.edges"
    write_edges(path, G)
    back, mapping = read_edges(path)
    assert mapping is None
    assert back.n == 5
    assert np.array_equal(back.edges, G.edges)


def test_edge_file_single_token_node(tmp_path):
    path = tmp_path / "tok_iso.edges"
    path.write_text("alice bob\ncarol\n")
    G, mapping = read_edges(path)
    assert (G.n, G.m) == (3, 1)
    assert mapping == {"alice": 0, "bob": 1, "carol": 2}
    assert G.degrees.tolist() == [1, 1, 0]


def test_edge_file_token_mapping(tmp_path):
    path = tmp_path / "tok.edges"
    path.write_text("# comment\nalice bob\nbob carol\n")
    G, mapping = read_edges(path)
    assert G.n == 3 and G.m == 2
    assert mapping == {"alice": 0, "bob": 1, "carol": 2}


def test_edge_file_noncontiguous_ints_mapped(tmp_path):
    path = tmp_path / "sparse_ids.edges"
    path.write_text("10 20\n20 30\n")
    G, mapping = read_edges(path)
    assert G.n == 3
    assert mapping == {"10": 0, "20": 1, "30": 2}


def test_edge_file_bad_line(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("1 2 3\n")
    with pytest.raises(ValueError, match="expected"):
        read_edges(path)
