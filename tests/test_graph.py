import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from pairsphere import _kernel, geometry, graph, solver
from pairsphere.cli import main
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
from pairsphere.pairs import pair_id, pair_members
from pairsphere.queries import QuerySpec, build_query, markov_stability_query

from helpers import build_csr, dense_adjacency, dense_of, random_graph_edges


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


def test_adjacency_is_the_bytes_of_build_csr():
    """A graph's CSR adjacency holds the bytes of the scipy reference, with
    scipy's int32 indices: on shuffled random edge lists with isolated nodes,
    on no edges, and at n = 1 and n = 2."""
    rng = np.random.default_rng(29)
    cases = [(1, []), (2, []), (2, [(0, 1)]), (5, [])]
    for _ in range(30):
        n = int(rng.integers(3, 80))  # nodes n - 2 and n - 1 isolated
        cases.append((n, random_graph_edges(rng, n - 2, float(rng.choice([0.05, 0.3, 1.0])))))
    for n, edges in cases:
        given = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        G = Graph.from_edges(n, [given[t] for t in rng.permutation(len(given))])
        ii, jj = (np.array([e[c] for e in edges], dtype=np.int64) for c in (0, 1))
        want = build_csr(n, ii, jj, np.ones(len(edges)))
        A = G.adjacency_csr()
        for got, ref in zip((A.indptr, A.indices, A.data), want):
            ref = ref.astype(np.int32) if ref.dtype == np.int64 else ref
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        assert G.degrees.dtype == np.int64 and G.degrees.tolist() == np.diff(want[0]).tolist()


@pytest.mark.parametrize(
    "edges",
    [[[2, 0]], [[0, 1], [0, 1]], [[0, 2], [0, 1]], [[1, 2], [0, 1]], [[0, 3]], [[-1, 1]], [[1, 1]]],
    ids=["u-above-v", "repeat", "columns-descend", "rows-descend", "past-n", "negative", "self-loop"],
)
def test_graph_rejects_edges_that_break_its_invariant(edges):
    """Graph(n, edges) takes only sorted edges u < v < n without repeats;
    from_edges makes such a list from any edges."""
    with pytest.raises(ValueError, match="breaks the order"):
        Graph(3, edges)


def test_from_edges_traces_a_bounded_peak_per_edge():
    # about 800k edges; the build traces about 99 bytes per edge
    G, _ = generate(GeneratorSpec("ppm", n=200_000, k=10_000), 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        H = Graph.from_edges(G.n, G.edges)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert H.m == G.m and peak <= 128 * G.m


def test_from_edges_keeps_sorted_edges_without_a_sort(monkeypatch):
    """Edges already sorted u < v without repeats are the graph's edges as
    given: no np.unique, no warning, the same bytes."""
    rng = np.random.default_rng(31)
    edges = np.array(random_graph_edges(rng, 30, 0.2), dtype=np.int64)
    want = Graph(30, edges.copy())

    def no_sort(*args, **kwargs):
        raise AssertionError("sorted edges were sorted again")

    monkeypatch.setattr(graph.np, "unique", no_sort)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        G = Graph.from_edges(30, edges)
    assert G.edges.tobytes() == edges.tobytes()
    A, B = G.adjacency_csr(), want.adjacency_csr()
    assert all(a.tobytes() == b.tobytes() for a, b in zip((A.indptr, A.indices, A.data), (B.indptr, B.indices, B.data)))


def test_from_edges_sorts_and_dedups_other_edges():
    """Shuffled or flipped edges come out sorted without a warning; repeats
    are dropped with one."""
    rng = np.random.default_rng(32)
    edges = np.array(random_graph_edges(rng, 30, 0.2), dtype=np.int64)
    flipped = edges[:, ::-1]  # pair ids still ascend, but u > v
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for given in (edges[rng.permutation(len(edges))], flipped):
            assert Graph.from_edges(30, given).edges.tobytes() == edges.tobytes()
    with pytest.warns(UserWarning, match="dropping 3 duplicate edge"):
        G = Graph.from_edges(30, np.concatenate([edges, edges[:3]]))
    assert G.edges.tobytes() == edges.tobytes()


def test_adjacency_csr_is_a_fresh_matrix_with_the_pinned_bytes():
    """adjacency_csr() keeps the bytes (int32 indices) that a PPM sample's
    adjacency had when the graph held a scipy matrix, and each call returns
    a new one: writing into it changes neither the degrees, nor neighbors,
    nor a later call."""
    G, _ = generate(GeneratorSpec("ppm", n=2000, k=100), 1)

    def digest(A):
        h = hashlib.sha256()
        for a in (A.indptr, A.indices, A.data):
            h.update(a.dtype.str.encode() + a.tobytes())
        return h.hexdigest()

    A = G.adjacency_csr()
    assert digest(A) == "103a317711684d889404c4a3cd0e2a872ba78fa43082247e9302acb1b667734c"
    degrees, first = G.degrees.copy(), [G.neighbors(i).copy() for i in range(G.n)]
    A.data[:] = 7.0
    A.indices[:] = 0
    A.indptr[:] = 0
    assert np.array_equal(G.degrees, degrees) and all(np.array_equal(G.neighbors(i), first[i]) for i in range(G.n))
    assert digest(G.adjacency_csr()) == "103a317711684d889404c4a3cd0e2a872ba78fa43082247e9302acb1b667734c"


def test_edge_file_bytes_hold_across_chunks(tmp_path, monkeypatch):
    """With 7 lines a chunk, the 208 edge lines and 72 isolated-node lines
    of a sparse PPM sample cross chunk boundaries in both parts and keep the
    bytes one whole-file format gave."""
    G, _ = generate(GeneratorSpec("ppm", n=300, k=15, lambda_in=1.0, lambda_out=0.5), 2)
    assert G.m == 208 and int((G.degrees == 0).sum()) == 72
    monkeypatch.setattr(graph, "_CHUNK_LINES", 7)
    path = tmp_path / "g.edges"
    write_edges(path, G)
    text = path.read_bytes()
    want = "".join(f"{u} {v}\n" for u, v in G.edges.tolist()) + "".join(f"{i}\n" for i in np.flatnonzero(G.degrees == 0))
    assert text == want.encode()
    assert hashlib.sha256(text).hexdigest() == "82c69174a5fd6f3b9514d4e00820e7841cd32804c787db655afaf23c392de1f5"


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


@pytest.mark.parametrize("t", [4, 5])
def test_walk_peak_memory_bounded_by_its_pairs_and_rows(t):
    """The walk's traced peak at PPM n=1000 stays within 1.5x the bytes it
    returns, its rows included: the scipy product C @ Y and the converted
    factors' int32 indices are freed before the pairs and rows are allocated."""
    G, _ = generate(GeneratorSpec("ppm", n=1000, k=50), 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        w = walk_distribution(G, t, isolated="zero")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    rows = w._cache["support"]["rows"]
    assert peak <= 1.5 * (w.pair_ids.nbytes + w.values.nbytes + sum(a.nbytes for a in rows))


# -- the upper-triangle product -------------------------------------------------------


def _scipy_upper(A, B, n, scale):
    """The whole product, its strict upper triangle and sorted rows: the
    scipy expression graph._upper_pairs must reproduce byte for byte."""
    U = sp.triu(A @ B, k=1, format="csr")
    U.sort_indices()
    return pair_id(np.repeat(np.arange(n), np.diff(U.indptr)), U.indices, n), U.data * scale


def _scipy_walk(G, t):
    A = G.adjacency_csr()
    inv_deg = np.zeros(G.n)
    np.divide(1.0, G.degrees, out=inv_deg, where=G.degrees > 0)
    P = (sp.diags(inv_deg) @ A).tocsr()
    Y = sp.identity(G.n, format="csr")
    for _ in range(t // 2):
        Y = Y @ P
    C = A if t % 2 else sp.diags(G.degrees.astype(np.float64))
    return _scipy_upper(Y.T, C @ Y, G.n, 1.0 / (2.0 * G.m))


def _scipy_jaccard(G):
    B = G.adjacency_csr() + sp.identity(G.n, format="csr")
    ids, shared = _scipy_upper(B, B.T, G.n, 1.0)
    ii, jj = pair_members(ids, G.n)
    return ids, shared / (G.degrees[ii] + G.degrees[jj] + 2 - shared)


def _parity_graphs():
    """Random graphs (some with isolated nodes), n = 1, 2 and 3, a star, and
    a graph whose rows mix dense and short ones: a 40-clique, a hub joined to
    every node of a 120-node path, and the path's far end left bare."""
    rng = np.random.default_rng(71)
    graphs = {f"random-{s}": Graph.from_edges(n, random_graph_edges(rng, n, p))
              for s, (n, p) in enumerate([(9, 0.4), (30, 0.15), (60, 0.05), (80, 0.3), (45, 0.02)])}
    graphs.update({
        "n1": Graph.from_edges(1, []),
        "n2": Graph.from_edges(2, [(0, 1)]),
        "n3-path": Graph.from_edges(3, [(0, 1), (1, 2)]),
        "n3-isolated": Graph.from_edges(3, [(0, 2)]),
        "star": Graph.from_edges(50, [(0, j) for j in range(1, 50)]),
    })
    clique = [(i, j) for i in range(40) for j in range(i + 1, 40)]
    path = [(v, v + 1) for v in range(40, 199)]
    hub = [(39, v) for v in range(41, 160)]
    graphs["mixed"] = Graph.from_edges(220, clique + path + hub)
    graphs["ppm"] = generate(GeneratorSpec("ppm", n=300, k=15), 4)[0]
    return graphs


@pytest.mark.parametrize("name", list(_parity_graphs()))
def test_upper_product_is_the_bytes_of_the_scipy_expression(name):
    """Walk vectors (t = 1..6, isolated nodes at zero mass) and the Jaccard
    vector carry the pair ids and value bytes of the whole scipy product's
    upper triangle."""
    G = _parity_graphs()[name]
    ids, vals = _scipy_jaccard(G)
    q = jaccard_vector(G)
    assert q.pair_ids.tobytes() == ids.tobytes() and q.values.tobytes() == vals.tobytes()
    for t in range(1, 7):
        if G.m == 0:
            with pytest.raises(ValueError, match="no edges"):
                walk_distribution(G, t, isolated="zero")
            continue
        ids, vals = _scipy_walk(G, t)
        w = walk_distribution(G, t, isolated="zero")
        assert w.pair_ids.tobytes() == ids.tobytes() and w.values.tobytes() == vals.tobytes(), t


@pytest.mark.parametrize("name", list(_parity_graphs()))
def test_walk_rows_are_the_bytes_of_the_kernel_rows(name):
    """A walk (t = 1..6, isolated nodes at zero mass) comes with its support
    record filled by the product's pass, in the bytes of _kernel._rows on its
    pair ids."""
    G = _parity_graphs()[name]
    if G.m == 0:
        return
    for t in range(1, 7):
        w = walk_distribution(G, t, isolated="zero")
        rows = w._cache["support"]["rows"]
        want = _kernel._rows(G.n, w.pair_ids)
        assert [a.tobytes() for a in rows] == [a.tobytes() for a in want], t


def test_a_product_with_an_exact_zero_sum_falls_back_to_lazy_rows(monkeypatch):
    """Entries of opposite sign make a counted sum of exactly 0, which the
    fill drops: it then returns no rows, with the ids and values of scipy's
    product. A walk given no rows builds them at first use, the bytes of
    _kernel._rows on its kept ids."""
    # (A @ B)[0, 2] = 1 * 1 + 1 * -1
    A = sp.csr_matrix(np.array([[1.0, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]))
    B = sp.csr_matrix(np.array([[0.0, 0, 1, 1], [0, 0, -1, 1], [0, 0, 0, 2], [0, 0, 0, 0]]))
    ids, vals = _scipy_upper(A, B, 4, 1.0)
    a, b = graph._csr_arrays(A.tocsr()), graph._csr_arrays(B.tocsc().tocsr())
    got_ids, got_vals, rows = graph._upper_product(4, a, b, 1.0, rows=True)
    assert rows is None and got_ids.tobytes() == ids.tobytes() and got_vals.tobytes() == vals.tobytes()
    assert pair_id(0, 2, 4) not in got_ids  # counted, summed to 0, dropped
    real = graph._upper_product
    monkeypatch.setattr(graph, "_upper_product", lambda *args, **kw: real(*args, **kw)[:2] + (None,))
    G = _parity_graphs()["random-1"]
    w = walk_distribution(G, 3, isolated="zero")
    assert "support" not in w._cache
    want = _kernel._rows(G.n, w.pair_ids)
    assert [a.tobytes() for a in w.support_rows()] == [a.tobytes() for a in want]


@pytest.mark.parametrize("heuristic", ["off", "exact"])
def test_walk_solves_sort_no_pairs(heuristic, monkeypatch):
    """A raw and a corrected walk query, and their solves, read the rows the
    walk's product wrote: _kernel._rows is never called."""
    G, T = generate(GeneratorSpec("ppm", n=300, k=15), 2)
    calls = []
    for module in (_kernel, geometry, graph, solver):
        real = module._rows
        monkeypatch.setattr(module, "_rows", lambda n, ids, real=real: calls.append(n) or real(n, ids))
    for t in (1, 2, 5):
        q = build_query(G, QuerySpec("markov", t=t, isolated="zero", heuristic=heuristic), T)
        solver.louvain_project(q, seed=t)
    assert calls == []


def test_parity_graphs_cover_isolated_nodes_and_dense_rows():
    graphs = _parity_graphs()
    assert sum(int((G.degrees == 0).any()) for G in graphs.values()) >= 3
    mixed = graphs["mixed"]
    assert mixed.degrees.max() > 100 and (mixed.degrees <= 3).sum() > 150


def test_upper_product_rejects_factors_of_another_size():
    with pytest.raises(ValueError):
        graph._upper_pairs(sp.identity(3, format="csr"), sp.identity(4, format="csr"), 3)


@pytest.mark.parametrize("t", [2, 3])
def test_walk_support_over_the_budget_raises(t, monkeypatch):
    """A walk whose support passes MAX_WALK_PAIRS raises ValueError naming the
    support, the budget and t; at the budget it is built."""
    G = generate(GeneratorSpec("ppm", n=120, k=6), 2)[0]
    support = walk_distribution(G, t).pair_ids.size
    monkeypatch.setattr(graph, "MAX_WALK_PAIRS", support)
    assert walk_distribution(G, t).pair_ids.size == support
    monkeypatch.setattr(graph, "MAX_WALK_PAIRS", support - 1)
    message = f"t={t} walk reaches {support:,} pairs, over the budget of {support - 1:,}"
    with pytest.raises(ValueError, match=message):
        walk_distribution(G, t)
    assert jaccard_vector(G).pair_ids.size > 0  # the budget is the walk's


def test_detect_past_the_walk_budget_exits_1(tmp_path, monkeypatch, capsys):
    main(["generate", "--family", "ppm", "--n", "60", "--k", "3", "--seed", "5", "--out", str(tmp_path), "--name", "g"])
    monkeypatch.setattr(graph, "MAX_WALK_PAIRS", 10)
    code = main(["detect", "--graph", str(tmp_path / "g.edges"), "--method", "markov", "--t", "2",
                 "--seed", "0", "--out", str(tmp_path), "--name", "d"])
    assert code == 1
    assert "error: the t=2 walk reaches" in capsys.readouterr().err
    assert not (tmp_path / "d.membership").exists()


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


# node id forms of an edge file: contiguous and zero-padded ints are the ids
# themselves, gapped ints and tokens get dense ids in file order
ID_FORMS = {
    "contiguous": str,
    "zero-padded": lambda i: f"{i:04d}",
    "gapped": lambda i: str(3 * i + 1),
    "token": lambda i: f"v{i}",
}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 30), st.floats(0.0, 0.5), st.sampled_from(sorted(ID_FORMS)), st.integers(0, 2**32 - 1))
def test_edge_file_roundtrip_property(tmp_path_factory, n, p, form, seed):
    G = Graph.from_edges(n, random_graph_edges(np.random.default_rng(seed), n, p))
    path = tmp_path_factory.mktemp("roundtrip") / "g.edges"
    write_edges(path, G)
    name = ID_FORMS[form]
    lines = path.read_text().splitlines()
    path.write_text("".join(" ".join(name(int(tok)) for tok in line.split()) + "\n" for line in lines))
    back, mapping = read_edges(path)
    if form in ("contiguous", "zero-padded"):
        assert mapping is None
        dense = np.arange(n)
    else:
        assert list(mapping) == list(dict.fromkeys(path.read_text().split()))  # file order
        assert sorted(mapping.values()) == list(range(n))
        dense = np.array([mapping[name(i)] for i in range(n)])
    assert back.n == n
    assert np.array_equal(back.degrees[dense], G.degrees)
    assert np.array_equal(back.edges, Graph.from_edges(n, dense[G.edges]).edges)


def test_edge_file_text_is_pinned(tmp_path):
    path = tmp_path / "g.edges"
    write_edges(path, Graph.from_edges(6, [(3, 1), (0, 2), (1, 0)]))  # nodes 4 and 5 have no edges
    assert path.read_bytes() == b"0 1\n0 2\n1 3\n4\n5\n"


@pytest.mark.parametrize(
    "text, edges, mapping",
    [
        ("1 2  # note\n# whole line\n0 1\n", [[0, 1], [1, 2]], None),
        ("1 2 #\n0 1 # 5 6\n", [[0, 1], [1, 2]], None),
        ("u#1 v\nu w\n", [[0, 1], [2, 3]], {"u#1": 0, "v": 1, "u": 2, "w": 3}),
        ("a b\n#a c\n", [[0, 1]], {"a": 0, "b": 1}),
    ],
    ids=["trailing", "trailing-numbers", "hash-inside-token", "hash-starts-token"],
)
def test_edge_file_comment_rule(tmp_path, text, edges, mapping):
    """A token that starts with `#` begins a comment; a `#` inside a token is part of it."""
    path = tmp_path / "c.edges"
    path.write_text(text)
    G, got = read_edges(path)
    assert got == mapping
    assert G.edges.tolist() == edges


@pytest.mark.parametrize(
    "text, message",
    [("# c\n1 2 3 # x\n", r"c.edges:2: expected '<u> <v>' or '<u>'"), ("# only\n\n  # a note\n", "c.edges: no edges")],
)
def test_edge_file_errors(tmp_path, text, message):
    path = tmp_path / "c.edges"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_edges(path)


def test_edge_file_io_traces_a_bounded_peak_per_edge(tmp_path):
    # about 800k edges; writing traces about 8 bytes per edge and reading about 166
    G, _ = generate(GeneratorSpec("ppm", n=200_000, k=10_000), 1)
    path = tmp_path / "g.edges"
    peaks = {}
    for step, call in (("write", lambda: write_edges(path, G)), ("read", lambda: read_edges(path))):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = call()
            peaks[step] = (tracemalloc.get_traced_memory()[1] - before) / G.m
        finally:
            tracemalloc.stop()
    back, mapping = result
    assert mapping is None and np.array_equal(back.edges, G.edges)
    assert peaks["write"] <= 48 and peaks["read"] <= 256, peaks
