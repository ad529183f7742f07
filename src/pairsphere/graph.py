"""Undirected graphs and the pair vectors derived from them.

Provides the adjacency vector, the degree-product vector, the neighborhood
Jaccard vector, and t-step random-walk co-occurrence weights. Every result is
computed with sparse products and holds only its nonzero pairs; no n x n
array is ever allocated.

The Jaccard and walk vectors are the strict upper triangle (j > i) of a
symmetric sparse product, and only that triangle is computed (_upper_pairs),
in the compiled library (_sweep.c, loaded by _kernel): one pass counts the
support and one writes the pair ids, in pair-id order, and the values. Entry
(i, j) of A @ B is 0 + the sum over k ascending of B[k, j] * A[i, k], the
order of scipy's product, and a sum of exactly 0 is dropped, so the pairs
carry the bytes of scipy's whole product's upper triangle.
"""

from __future__ import annotations

import warnings
from array import array

import numpy as np
import scipy.sparse as sp

from ._kernel import _address, _compiled, _rows
from ._util import atomic_write_text, read_records
from .geometry import LowRankTerm, PairVector
from .pairs import num_pairs, pair_id, pair_members

# The most pairs a walk vector may hold. A whole exact-corrected detection
# peaks at about 65 traced bytes per walk pair (PPM n=1000, t=5 and n=2000,
# t=4: the pair ids and the corrected values, 8 bytes each, the support's
# rows, 32, and the solve's weights, 16), so 25 million pairs (a dense walk at
# n ~ 7,000) take about 1.6 GB. The largest walk of any test, config or bench
# workload has about 0.5 million (n=1000, t=5), 50 times fewer. Like
# MAX_SWEEPS, it is no user option.
MAX_WALK_PAIRS = 25_000_000


class Graph:
    """Simple undirected graph: sorted edges u < v < n, none repeated (from_edges
    takes any), held as their ascending pair ids and the rows _kernel._rows
    builds from them once (raising ValueError on ids out of order); all else
    is read from those rows, which the edge-set queries share (adjacency_vector)."""

    def __init__(self, n: int, edges):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        u, v = edges.T
        bad = np.flatnonzero((u < 0) | (u >= v) | (v >= n))
        if bad.size:
            raise ValueError(f"edge {bad[0]} ({u[bad[0]]}, {v[bad[0]]}) breaks the order u < v < {n}")
        self._take_ids(n, pair_id(u, v, n))

    def _take_ids(self, n: int, ids: np.ndarray) -> None:
        self.n, self._ids, self.m = n, ids, int(ids.size)
        self._support = {"rows": _rows(n, ids)}  # the record PairVector shares (support_rows)
        self.degrees = np.diff(self._support["rows"][0])

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build from an (m, 2) array or an iterable of (u, v); drops self-loops
        and duplicate edges. Edges whose pair ids already ascend strictly are
        not sorted again."""
        arr = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64).reshape(-1, 2)
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ValueError("edge endpoint out of range")
        loops = arr[:, 0] == arr[:, 1]
        if np.any(loops):
            warnings.warn(f"dropping {int(loops.sum())} self-loop(s)")
            arr = arr[~loops]
        ids = pair_id(np.minimum(*arr.T), np.maximum(*arr.T), n)
        if not (ids[1:] > ids[:-1]).all():
            # counts keep numpy 2.4 on its sort: its hash-table unique took 0.7 s on 800k ids, against 0.02 s
            ids, counts = np.unique(ids, return_counts=True)
            if np.any(counts > 1):
                warnings.warn(f"dropping {int((counts - 1).sum())} duplicate edge(s)")
        G = cls.__new__(cls)
        G._take_ids(n, ids)
        return G

    @property
    def N(self) -> int:
        return num_pairs(self.n)

    @property
    def edges(self) -> np.ndarray:
        """(m, 2) int64 edges u < v, sorted; a fresh array per call."""
        return np.stack(pair_members(self._ids, self.n), axis=1)

    def neighbors(self, i: int) -> np.ndarray:
        indptr, nbr, _ = self._support["rows"]
        return nbr[indptr[i] : indptr[i + 1]]

    def adjacency_csr(self) -> sp.csr_matrix:
        """Symmetric 0/1 adjacency matrix (int32 indices where they fit), made anew per call."""
        indptr, nbr, _ = self._support["rows"]
        return sp.csr_matrix((np.ones(nbr.size), nbr, indptr), shape=(self.n, self.n), copy=True)


def adjacency_vector(G: Graph) -> PairVector:
    """Sparse pair vector with entry 1 on every edge, on the graph's support record."""
    return PairVector(G.n, G._ids, np.ones(G.m), _cache={"support": G._support})


def degree_product_vector(G: Graph) -> PairVector:
    """Single rank-one term: entry (i, j) equals d_i * d_j / (2m)."""
    if G.m == 0:
        raise ValueError("degree-product vector undefined for an empty graph")
    term = LowRankTerm(1.0 / (2.0 * G.m), G.degrees.astype(np.float64))
    return PairVector(G.n, np.empty(0, np.int64), np.empty(0), (term,))


def _upper_pairs(A: sp.spmatrix, B: sp.spmatrix, n: int, scale: float = 1.0, t: int | None = None):
    """(pair ids, values) of the strict upper triangle of the n x n sparse
    product A @ B, in pair-id order, each value times scale.

    Entry (i, j) is 0 + the sum over k ascending of B[k, j] * A[i, k]: the
    order scipy's product follows when A comes from a CSC matrix with sorted
    indices (such as Y.T for a CSR matrix Y) or a CSR one with sorted rows.
    The compiled library reads A's CSR rows in that order and B's with sorted
    columns, and forms only the entries j > i: one pass counts the support,
    the next writes the pairs. A sum of exactly 0 is dropped, as scipy drops
    it. For a walk (t given), a support above MAX_WALK_PAIRS raises
    ValueError before any pair array is allocated."""
    lib = _compiled()
    if A.shape != (n, n) or B.shape != (n, n):
        raise ValueError(f"the product's factors must be {n} x {n}")
    A, B = A.tocsr(), B.tocsc().tocsr()  # rows sorted by the counting sorts of the conversions
    aptr, aidx, bptr, bidx = (
        np.ascontiguousarray(a, dtype=np.int64) for a in (A.indptr, A.indices, B.indptr, B.indices)
    )
    ax, bx = (np.ascontiguousarray(M.data, dtype=np.float64) for M in (A, B))
    rows, work = np.empty(n, dtype=np.int64), np.empty(4 * n, dtype=np.int64)
    support = lib.pairsphere_upper_count(n, *map(_address, (aptr, aidx, bptr, bidx, rows, work)))
    if t is not None and support > MAX_WALK_PAIRS:
        raise ValueError(
            f"the t={t} walk reaches {support:,} pairs, over the budget of {MAX_WALK_PAIRS:,} (MAX_WALK_PAIRS)"
        )
    ids, values = np.empty(support, dtype=np.int64), np.empty(support)
    args = map(_address, (aptr, aidx, ax, bptr, bidx, bx, rows))
    size = lib.pairsphere_upper_fill(n, *args, scale, *map(_address, (ids, values, work)))
    return ids[:size], values[:size]


def jaccard_vector(G: Graph) -> PairVector:
    """Jaccard similarity of closed neighborhoods, for pairs that share any
    closed neighbor. Entries lie in (0, 1]; adjacent pairs always qualify."""
    B = G.adjacency_csr() + sp.identity(G.n, format="csr")
    ids, shared = _upper_pairs(B, B.T, G.n)
    ii, jj = pair_members(ids, G.n)
    closed_deg = G.degrees + 1
    union = closed_deg[ii] + closed_deg[jj] - shared
    return PairVector(G.n, ids, shared / union)


def walk_distribution(G: Graph, t: int, isolated: str = "error") -> PairVector:
    """Random-walk co-occurrence weights after t steps.

    Computes diag(s) P^t for the simple random walk (P_ij = 1/d_i on edges,
    s = d/(2m)) and returns its upper-triangle pair weights as a sparse pair
    vector. With Y = P^(t//2), diag(s) P^t = Y^T C Y / (2m), where C is the
    adjacency A for odd t and the degree matrix D for even t; that product is
    symmetric by construction, so only its strict upper triangle is formed
    (_upper_pairs): pair (i, j) gets the sum over k ascending of
    (CY)[k, j] * Y[k, i], times the reciprocal of 2m (the way scipy divides a
    sparse matrix by a scalar; dividing by 2m would differ in the last bit).
    A support of more than MAX_WALK_PAIRS pairs raises ValueError.

    Isolated nodes leave P without a defined row; by default they raise.
    isolated="zero" instead assigns them zero stationary mass, which is the
    exact value of diag(s) P^t on the subgraph of non-isolated nodes (an
    isolated node is never visited, so all its pair weights vanish).
    """
    if t < 1:
        raise ValueError("walk length must be at least 1")
    if G.n == 0:
        raise ValueError("empty graph")
    if isolated not in ("error", "zero"):
        raise ValueError("isolated must be 'error' or 'zero'")
    if np.any(G.degrees == 0) and isolated == "error":
        bad = int(np.argmin(G.degrees))
        raise ValueError(f"graph has an isolated node ({bad}); random walk undefined")
    if G.m == 0:
        raise ValueError("graph has no edges; random walk undefined")
    A = G.adjacency_csr()
    inv_deg = np.zeros(G.n)
    np.divide(1.0, G.degrees, out=inv_deg, where=G.degrees > 0)
    P = (sp.diags(inv_deg) @ A).tocsr()
    Y = sp.identity(G.n, format="csr")
    for _ in range(t // 2):
        Y = Y @ P
    C = A if t % 2 else sp.diags(G.degrees.astype(np.float64))
    ids, w = _upper_pairs(Y.T, C @ Y, G.n, 1.0 / (2.0 * G.m), t)
    return PairVector(G.n, ids, w)


# -- edge-list file format -----------------------------------------------------

# lines per chunk a writer formats: a whole file's text at n = 10^6 would set the peak
_CHUNK_LINES = 1 << 16


def write_edges(path, G: Graph) -> None:
    """One `<u> <v>` line per edge, then one `<u>` line per isolated node,
    formatted and written _CHUNK_LINES lines at a time."""
    isolated = np.flatnonzero(G.degrees == 0)

    def chunks():
        for s in range(0, G.m, _CHUNK_LINES):
            block = np.stack(pair_members(G._ids[s : s + _CHUNK_LINES], G.n), axis=1)
            yield ("%d %d\n" * len(block)) % tuple(block.ravel().tolist())
        for s in range(0, isolated.size, _CHUNK_LINES):
            block = isolated[s : s + _CHUNK_LINES]
            yield ("%d\n" * len(block)) % tuple(block.tolist())

    atomic_write_text(path, chunks())


def read_edges(path) -> tuple[Graph, dict | None]:
    """Read an edge list (_util.read_records: a token starting with `#` begins
    a comment).

    A line is an edge `<u> <v>` or a node with no edges `<u>`. Tokens get
    dense ids in file order in one pass. If every token is an integer and the
    integers are exactly 0..n-1, they are the node ids (compared as integers,
    so `01` and `1` are one node) and no mapping is returned; otherwise the
    token -> dense id mapping is returned.
    """
    id_map: dict[str, int] = {}
    ends = array("q")  # each edge's two dense ids
    for _, parts in read_records(path, (1, 2), "'<u> <v>' or '<u>'"):
        u = id_map.setdefault(parts[0], len(id_map))
        if len(parts) == 2:
            ends.extend((u, id_map.setdefault(parts[1], len(id_map))))
    if not id_map:
        raise ValueError(f"{path}: no edges")
    edges = np.frombuffer(ends, dtype=np.int64).reshape(-1, 2)
    try:
        values = np.fromiter(map(int, id_map), dtype=np.int64, count=len(id_map))
    except (ValueError, OverflowError):  # a token that is no int64 integer
        return Graph.from_edges(len(id_map), edges), id_map
    n = np.unique(values).size
    if values.min() == 0 and values.max() == n - 1:  # the integers 0..n-1: the node ids
        return Graph.from_edges(n, values[edges]), None
    return Graph.from_edges(len(id_map), edges), id_map
