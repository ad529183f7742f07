"""Partitions, their embedding as pair vectors, and clustering comparison metrics.

A partition of n nodes embeds into pair space as the vector with entry +1 on
intra-community pairs and -1 on inter-community pairs. All comparison metrics
(Pearson correlation, granularity error) are computed from exact integer pair
counts, never from materialized vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    DegenerateVectorError,
    LowRankTerm,
    PairVector,
    _clamp_cos,
    _off_axis_norm,
    _vertex_angle,
    latitude,
)
from .pairs import num_pairs


class DegeneratePartitionError(ValueError):
    """Raised when a metric is undefined for a trivial partition."""


@dataclass(eq=False)
class Partition:
    """A clustering of n nodes into disjoint communities.

    Labels are canonicalized to 0..k-1 in order of first appearance, so two
    partitions are equal iff their membership arrays are equal.
    """

    membership: np.ndarray

    def __post_init__(self):
        self.membership = _canonicalize(np.asarray(self.membership))
        self.sizes = np.bincount(self.membership)
        self.k = int(self.sizes.size)

    @property
    def n(self) -> int:
        return int(self.membership.size)

    @property
    def N(self) -> int:
        return num_pairs(self.n)

    @classmethod
    def from_communities(cls, n: int, communities) -> "Partition":
        memb = np.full(n, -1, dtype=np.int64)
        for label, comm in enumerate(communities):
            for i in comm:
                if memb[i] != -1:
                    raise ValueError(f"node {i} assigned twice")
                memb[i] = label
        if np.any(memb < 0):
            raise ValueError("not all nodes assigned")
        return cls(memb)

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(np.arange(n))

    @classmethod
    def one_cluster(cls, n: int) -> "Partition":
        return cls(np.zeros(n, dtype=np.int64))

    def intra_pairs(self) -> int:
        """Number of same-community pairs, as an exact Python int."""
        return _pairs_within(self.sizes)

    def __eq__(self, other):
        return isinstance(other, Partition) and np.array_equal(self.membership, other.membership)


def _pairs_within(counts: np.ndarray) -> int:
    """sum of c * (c - 1) / 2 over the counts, as a Python int; int64 is exact
    while n * (n - 1) fits it, n being the counts' total (below 3e9)."""
    c = counts.astype(np.int64)
    return int((c * (c - 1) // 2).sum())


def _canonicalize(labels: np.ndarray) -> np.ndarray:
    uniq, first_idx, inv = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[np.argsort(first_idx, kind="stable")] = np.arange(uniq.size)
    return rank[inv.reshape(-1)].astype(np.int64)


@dataclass(frozen=True)
class PairCounts:
    """Exact intra-pair counts of two partitions and of their overlap."""

    m_c: int
    m_t: int
    m_ct: int
    N: int


def as_pair_vector(C: Partition) -> PairVector:
    """The +-1 embedding of a partition: constant -1 plus one rank-one
    indicator term of coefficient 2 per community. Norm is sqrt(N)."""
    terms = []
    for a in range(C.k):
        ind = (C.membership == a).astype(np.float64)
        terms.append(LowRankTerm(2.0, ind))
    return PairVector(C.n, np.empty(0, np.int64), np.empty(0), tuple(terms), -1.0)


def pair_counts(C: Partition, T: Partition) -> PairCounts:
    """Contingency-based counts; O(n + nonzero cells)."""
    if C.n != T.n:
        raise ValueError("partitions are over different node sets")
    joint = C.membership * np.int64(T.k) + T.membership
    m_ct = _pairs_within(np.bincount(joint))
    return PairCounts(C.intra_pairs(), T.intra_pairs(), m_ct, C.N)


def pearson_correlation(C: Partition, T: Partition) -> float:
    """Pearson correlation between the two +-1 pair vectors, from exact counts."""
    pc = pair_counts(C, T)
    for m in (pc.m_c, pc.m_t):
        if m == 0 or m == pc.N:
            raise DegeneratePartitionError(
                "correlation undefined for the singleton or one-cluster partition"
            )
    num = pc.m_ct * pc.N - pc.m_c * pc.m_t
    # one square root of the exact integer product: identical partitions give 1.0
    den = math.sqrt(pc.m_c * (pc.N - pc.m_c) * pc.m_t * (pc.N - pc.m_t))
    return num / den


def partition_latitude(C: Partition) -> float:
    """Granularity of a partition: arccos(1 - 2 * intra_pairs / N)."""
    return math.acos(_clamp_cos(1.0 - 2.0 * C.intra_pairs() / C.N))


def relative_granularity_error(C: Partition, T: Partition) -> float:
    """latitude(C)/latitude(T) - 1; positive means C is coarser than T."""
    lt = partition_latitude(T)
    if lt == 0.0:
        raise DegeneratePartitionError("reference partition has zero latitude (all singletons)")
    return partition_latitude(C) / lt - 1.0


def corclust_agreement(C: Partition, w_plus: dict, w_minus: dict) -> float:
    """Sum of similarity weights inside communities plus dissimilarity weights across.

    Weight maps are {(i, j): w} with i < j; missing pairs default to 0.
    """
    same = C.membership
    acc = 0.0
    for (i, j), w in w_plus.items():
        if same[i] == same[j]:
            acc += w
    for (i, j), w in w_minus.items():
        if same[i] != same[j]:
            acc += w
    return acc


def corclust_disagreement(C: Partition, w_plus: dict, w_minus: dict) -> float:
    """Complementary objective: total weight minus the agreement."""
    total = sum(w_plus.values()) + sum(w_minus.values())
    return total - corclust_agreement(C, w_plus, w_minus)


# -- query/partition couplings ------------------------------------------------


def query_alignment(q: PairVector, C: Partition) -> float:
    """Inner product <q, b(C)> without materializing b(C).

    This is the objective the projection solver maximizes; 2 * (intra sum)
    minus the total sum of q's entries.
    """
    if q.n != C.n:
        raise ValueError("dimension mismatch between query and partition")
    memb = C.membership
    intra = 0.0
    if q.pair_ids.size:
        ii, jj = q.sparse_members()
        mask = memb[ii] == memb[jj]
        intra += float(q.values[mask].sum())
    for t in q.terms:
        per_comm = np.bincount(memb, weights=t.factor, minlength=C.k)
        intra += t.coef * (float(per_comm @ per_comm) - float(t.factor @ t.factor)) / 2.0
    intra += q.constant * C.intra_pairs()
    return 2.0 * intra - q.total()


def query_angular_distance(q: PairVector, C: Partition) -> float:
    """Angular distance from a query vector to a clustering vector."""
    nq = q.norm()
    if nq == 0.0:
        raise ValueError("angular distance undefined for a zero query")
    return math.acos(_clamp_cos(query_alignment(q, C) / (nq * math.sqrt(q.N))))


def query_correlation_distance(q: PairVector, C: Partition) -> float:
    """Meridian angle between a query vector and a clustering vector: the law
    of cosines of `geometry.correlation_distance`, with the clustering's
    latitude and angular distance taken from exact pair counts."""
    m_c = C.intra_pairs()
    if m_c == 0 or m_c == C.N:
        raise DegeneratePartitionError("correlation undefined for a trivial partition")
    try:
        _off_axis_norm(q)
    except DegenerateVectorError as exc:
        raise DegeneratePartitionError("query lies on the pole axis") from exc
    return _vertex_angle(latitude(q), partition_latitude(C), query_angular_distance(q, C))


# -- detection metrics ---------------------------------------------------------


@dataclass
class DetectionResult:
    """Detected-partition metrics; fields are None when a metric is undefined.
    Field order is the key order of the JSON result."""

    rho: float | None = None
    latitude_C: float | None = None
    latitude_T: float | None = None
    d_a_qC: float | None = None
    d_a_qT: float | None = None
    d_cc_qT: float | None = None
    granularity_error: float | None = None
    excess_ratio: float | None = None
    seed: int | None = None
    solve_ms: float | None = None
    query_ms: float | None = None


def evaluate(
    q: PairVector,
    detected: Partition,
    planted: Partition | None = None,
    *,
    seed: int | None = None,
    solve_ms: float | None = None,
    query_ms: float | None = None,
) -> DetectionResult:
    """All quality metrics for a detected partition, against the query and
    (when given) the planted partition. Degenerate metrics come back as None."""
    res = DetectionResult(seed=seed, solve_ms=solve_ms, query_ms=query_ms)
    res.latitude_C = partition_latitude(detected)
    try:
        res.d_a_qC = query_angular_distance(q, detected)
    except ValueError:
        pass
    if planted is None:
        return res
    res.latitude_T = partition_latitude(planted)
    try:
        res.rho = pearson_correlation(detected, planted)
    except DegeneratePartitionError:
        pass
    try:
        res.granularity_error = relative_granularity_error(detected, planted)
    except DegeneratePartitionError:
        pass
    try:
        res.d_a_qT = query_angular_distance(q, planted)
    except ValueError:
        pass
    try:
        res.d_cc_qT = query_correlation_distance(q, planted)
    except (ValueError, DegeneratePartitionError):
        pass
    if res.d_a_qC is not None and res.d_a_qT is not None and res.d_a_qT > 0:
        res.excess_ratio = res.d_a_qC / res.d_a_qT - 1.0
    return res


# -- membership file format ----------------------------------------------------


def write_membership(path, C: Partition, id_map: dict | None = None) -> None:
    """One line per node: `<node_id> <label>` with canonical integer labels.

    Node ids are the dense ids 0..n-1, or the external tokens of an id_map
    (token -> dense id, as returned by `read_edges`).
    """
    from ._util import atomic_write_text

    names = {i: tok for tok, i in id_map.items()} if id_map is not None else range(C.n)
    lines = [f"{names[i]} {int(C.membership[i])}" for i in range(C.n)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_membership(path, n: int | None = None, id_map: dict | None = None) -> Partition:
    """Read a membership file; labels may be arbitrary tokens.

    Node ids must be 0-based and contiguous unless an id_map from external
    tokens to dense ids is supplied.
    """
    raw: dict[int, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected '<node> <label>'")
            tok, lab = parts
            if id_map is not None:
                if tok not in id_map:
                    raise ValueError(f"{path}:{lineno}: unknown node id {tok!r}")
                node = id_map[tok]
            else:
                try:
                    node = int(tok)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: non-integer node id {tok!r}") from exc
            if node in raw:
                raise ValueError(f"{path}: duplicate assignment for node {tok}")
            raw[node] = lab
    if not raw:
        raise ValueError(f"{path}: empty membership file")
    count = n if n is not None else max(raw) + 1
    labels = []
    for i in range(count):
        if i not in raw:
            raise ValueError(f"{path}: missing membership line for node {i}")
        labels.append(raw[i])
    extra = set(raw) - set(range(count))
    if extra:
        raise ValueError(f"{path}: node id {min(extra)} out of range for n={count}")
    return Partition(np.array(labels))  # label strings, numbered by first appearance
