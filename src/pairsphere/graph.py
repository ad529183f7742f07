"""Undirected graphs and the pair vectors derived from them.

Provides the adjacency vector, the degree-product vector, the neighborhood
Jaccard vector, and t-step random-walk co-occurrence weights. Every result is
computed with sparse products and holds only its nonzero pairs; no n x n
array is ever allocated.

The Jaccard and walk vectors are the strict upper triangle (j > i) of a
symmetric sparse product, and only that triangle is computed
(_upper_product), in the compiled library (_sweep.c, loaded by _kernel): one
pass counts the support and one writes the pair ids, in pair-id order, and
the values. Entry (i, j) of A @ B is 0 + the sum over k ascending of
B[k, j] * A[i, k], the order of scipy's product, and a sum of exactly 0 is
dropped, so the pairs carry the bytes of scipy's whole product's upper
triangle. For a walk the same passes also count and write the pairs' CSR
rows, the support layout that every query and solve on the walk shares
(PairVector.support_rows), so no solve of a walk sorts its pairs again.
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
# peaks at about 65 traced bytes per walk pair (64.5 at PPM n=1000, t=5 and
# 64.7 at n=2000, t=4: the pair ids and the corrected values, 8 bytes each,
# the support's rows, which the walk's product writes, 32, and the solve's
# weights, 16), so 25 million pairs (a dense walk at n ~ 7,000) take about
# 1.6 GB. The largest walk of any test, config or bench workload has about
# 0.5 million (n=1000, t=5), 50 times fewer. Like MAX_SWEEPS, it is no user
# option.
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


def _csr_arrays(M: sp.csr_matrix) -> tuple:
    """A CSR matrix's (indptr, indices, data) as int64, int64 and float64, as
    the compiled library reads them (the data not copied where it is float64
    already)."""
    kinds = ((M.indptr, np.int64), (M.indices, np.int64), (M.data, np.float64))
    return tuple(np.ascontiguousarray(a, dtype=d) for a, d in kinds)


def _upper_pairs(A: sp.spmatrix, B: sp.spmatrix, n: int, scale: float = 1.0):
    """(pair ids, values) of the strict upper triangle of the n x n sparse
    product A @ B, in pair-id order, each value times scale (_upper_product).

    Entry (i, j) is 0 + the sum over k ascending of B[k, j] * A[i, k]: the
    order scipy's product follows when A comes from a CSC matrix with sorted
    indices (such as Y.T for a CSR matrix Y) or a CSR one with sorted rows.
    A's CSR rows are read in that order and B's with sorted columns."""
    if A.shape != (n, n) or B.shape != (n, n):
        raise ValueError(f"the product's factors must be {n} x {n}")
    # rows sorted by the counting sorts of the conversions
    return _upper_product(n, _csr_arrays(A.tocsr()), _csr_arrays(B.tocsc().tocsr()), scale)[:2]


def _upper_product(n: int, a: tuple, b: tuple, scale: float, t: int | None = None, rows: bool = False):
    """(pair ids, values, rows) of the strict upper triangle of A @ B, from
    the _csr_arrays of A and of B (its columns ascending in every row): the
    compiled library forms only the entries j > i, one pass counting the
    support and the next writing the pairs. A sum of exactly 0 is dropped,
    as scipy drops it. For a walk (t given), a support above MAX_WALK_PAIRS
    raises ValueError before any pair array is allocated.

    With rows, the fill writes each pair into its two rows as well: rows is
    then (indptr, nbr, pos), the bytes of _kernel._rows on the ids, unless a
    counted sum came out 0 (the layout then has a hole, and rows is None, as
    it is without rows)."""
    lib = _compiled()
    (aptr, aidx, ax), (bptr, bidx, bx) = a, b
    count, work = np.empty(n, dtype=np.int64), np.empty(5 * n, dtype=np.int64)
    indptr = np.empty(n + 1, dtype=np.int64) if rows else None
    support = lib.pairsphere_upper_count(n, *map(_address, (aptr, aidx, bptr, bidx, count, work, indptr)))
    if t is not None and support > MAX_WALK_PAIRS:
        raise ValueError(
            f"the t={t} walk reaches {support:,} pairs, over the budget of {MAX_WALK_PAIRS:,} (MAX_WALK_PAIRS)"
        )
    ids, values = np.empty(support, dtype=np.int64), np.empty(support)
    nbr, pos = (np.empty(2 * support, dtype=np.int64) for _ in range(2)) if rows else (None, None)
    args = map(_address, (aptr, aidx, ax, bptr, bidx, bx, count))
    size = lib.pairsphere_upper_fill(n, *args, scale, *map(_address, (ids, values, work, indptr, nbr, pos)))
    return ids[:size], values[:size], (indptr, nbr, pos) if rows and size == support else None


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
    (_upper_product): pair (i, j) gets the sum over k ascending of
    (CY)[k, j] * Y[k, i], times the reciprocal of 2m (the way scipy divides a
    sparse matrix by a scalar; dividing by 2m would differ in the last bit).
    A support of more than MAX_WALK_PAIRS pairs raises ValueError. The vector
    comes with its support's rows (support_rows), written by the same pass.

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
    # of C @ Y and the converted factors, only the arrays the library reads
    # live while the pairs and rows are allocated, and only for this call
    ids, w, rows = _upper_product(
        G.n, _csr_arrays(Y.T.tocsr()), _csr_arrays((C @ Y).tocsc().tocsr()), 1.0 / (2.0 * G.m), t, rows=True
    )
    return PairVector(G.n, ids, w, _cache={} if rows is None else {"support": {"rows": rows}})


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
