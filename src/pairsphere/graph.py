"""Undirected graphs and the pair vectors derived from them.

Provides the adjacency vector, the degree-product vector, the neighborhood
Jaccard vector, and t-step random-walk co-occurrence weights. Every result is
computed with sparse products and holds only its nonzero pairs; no n x n
array is ever allocated.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._util import atomic_write_text
from .geometry import LowRankTerm, PairVector
from .pairs import num_pairs, pair_id, pair_members


@dataclass(eq=False)
class Graph:
    """Simple undirected graph: deduplicated edges, no self-loops."""

    n: int
    edges: np.ndarray  # (m, 2) int64 with edges[:,0] < edges[:,1], sorted

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        self.m = int(self.edges.shape[0])
        heads = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        tails = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
        self._adj = sp.csr_matrix((np.ones(2 * self.m), (heads, tails)), shape=(self.n, self.n))
        self.degrees = np.diff(self._adj.indptr).astype(np.int64)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build from an (m, 2) array or an iterable of (u, v); drops self-loops
        and duplicate edges."""
        arr = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64).reshape(-1, 2)
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ValueError("edge endpoint out of range")
        loops = arr[:, 0] == arr[:, 1]
        if np.any(loops):
            warnings.warn(f"dropping {int(loops.sum())} self-loop(s)")
            arr = arr[~loops]
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        ids = pair_id(lo, hi, n) if arr.size else np.empty(0, np.int64)
        uniq, counts = np.unique(ids, return_counts=True)
        if np.any(counts > 1):
            warnings.warn(f"dropping {int((counts - 1).sum())} duplicate edge(s)")
        keep = np.stack(pair_members(uniq, n), axis=1) if uniq.size else np.empty((0, 2), np.int64)
        return cls(n, keep)

    @property
    def N(self) -> int:
        return num_pairs(self.n)

    def neighbors(self, i: int) -> np.ndarray:
        return self._adj.indices[self._adj.indptr[i] : self._adj.indptr[i + 1]]

    def adjacency_csr(self) -> sp.csr_matrix:
        """Symmetric 0/1 adjacency matrix; shared, so callers must not modify it."""
        return self._adj


def adjacency_vector(G: Graph) -> PairVector:
    """Sparse pair vector with entry 1 on every edge."""
    ids = pair_id(G.edges[:, 0], G.edges[:, 1], G.n) if G.m else np.empty(0, np.int64)
    return PairVector(G.n, ids, np.ones(G.m))


def degree_product_vector(G: Graph) -> PairVector:
    """Single rank-one term: entry (i, j) equals d_i * d_j / (2m)."""
    if G.m == 0:
        raise ValueError("degree-product vector undefined for an empty graph")
    term = LowRankTerm(1.0 / (2.0 * G.m), G.degrees.astype(np.float64))
    return PairVector(G.n, np.empty(0, np.int64), np.empty(0), (term,))


def _upper_pairs(A: sp.spmatrix, B: sp.spmatrix, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strict upper triangle of the symmetric sparse n x n product A @ B as
    (i, j, values), in pair-id order (row-major). The product is formed here
    so that it is freed as soon as its triangle is taken."""
    U = sp.triu(A @ B, k=1, format="csr")
    U.sort_indices()
    return np.repeat(np.arange(n), np.diff(U.indptr)), U.indices, U.data


def jaccard_vector(G: Graph) -> PairVector:
    """Jaccard similarity of closed neighborhoods, for pairs that share any
    closed neighbor. Entries lie in (0, 1]; adjacent pairs always qualify."""
    B = G.adjacency_csr() + sp.identity(G.n, format="csr")
    ii, jj, shared = _upper_pairs(B, B.T, G.n)
    closed_deg = G.degrees + 1
    union = closed_deg[ii] + closed_deg[jj] - shared
    return PairVector(G.n, pair_id(ii, jj, G.n), shared / union)


def walk_distribution(G: Graph, t: int, isolated: str = "error") -> PairVector:
    """Random-walk co-occurrence weights after t steps.

    Computes diag(s) P^t for the simple random walk (P_ij = 1/d_i on edges,
    s = d/(2m)) and returns its upper-triangle pair weights as a sparse pair
    vector. With Y = P^(t//2), diag(s) P^t = Y^T C Y / (2m), where C is the
    adjacency A for odd t and the degree matrix D for even t; that product is
    symmetric by construction, so only its strict upper triangle is kept.

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
    ii, jj, w = _upper_pairs(Y.T, C @ Y, G.n)
    # times the reciprocal, the way scipy divides a sparse matrix by a scalar:
    # w / (2m) would differ in the last bit
    return PairVector(G.n, pair_id(ii, jj, G.n), w * (1.0 / (2.0 * G.m)))


# -- edge-list file format -----------------------------------------------------


def write_edges(path, G: Graph) -> None:
    """One `<u> <v>` line per edge, then one `<u>` line per isolated node."""
    lines = [f"{int(u)} {int(v)}" for u, v in G.edges]
    lines += [str(int(u)) for u in np.flatnonzero(G.degrees == 0)]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def read_edges(path) -> tuple[Graph, dict | None]:
    """Read an edge list; `#` comments ignored.

    A line is an edge `<u> <v>` or a node with no edges `<u>`. Node ids that
    are 0-based contiguous integers are used directly; any other tokens are
    mapped to dense ids in file order and the mapping is returned.
    """
    tokens: list[list[str]] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) > 2:
                raise ValueError(f"{path}:{lineno}: expected '<u> <v>' or '<u>'")
            tokens.append(parts)
    if not tokens:
        raise ValueError(f"{path}: no edges")
    try:
        ints = [[int(u) for u in parts] for parts in tokens]
    except ValueError:
        ints = None
    if ints is not None:
        flat = {u for parts in ints for u in parts}
        if flat == set(range(len(flat))):
            return Graph.from_edges(len(flat), [p for p in ints if len(p) == 2]), None
    id_map: dict[str, int] = {}
    for parts in tokens:
        for u in parts:
            id_map.setdefault(u, len(id_map))
    mapped = [(id_map[p[0]], id_map[p[1]]) for p in tokens if len(p) == 2]
    return Graph.from_edges(len(id_map), mapped), id_map
