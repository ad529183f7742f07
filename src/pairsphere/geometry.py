"""Hyperspherical geometry over the space of node-pair vectors.

A vector over the pairs of an n-node set has one real coordinate per
unordered pair (i, j), i < j, so the ambient dimension is N = n(n-1)/2.
Clustering vectors live on the sphere of radius sqrt(N); the all-ones and
all-minus-ones vectors are the two poles.

Vectors are stored in sparse-plus-low-rank form and never materialized:

    entry(i, j) = sparse[(i, j)] + sum_k c_k * u_k[i] * u_k[j] + c0

All operations below (inner products, angular distance, latitude,
correlation distance, parallel projection) work on this representation in
closed form. The key identity for rank-one cross terms is

    sum_{i<j} w_i * w_j = ((sum_i w_i)^2 - sum_i w_i^2) / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .pairs import num_pairs, pair_id, pair_members

# Squared-relative threshold below which a vector's component orthogonal to
# the all-ones direction is treated as zero (vector lies on the pole axis).
# The off-axis mass is computed as a difference of squares, so anything below
# a few ulps of norm^2 is indistinguishable from zero.
_POLE_AXIS_SQ_RTOL = 1e-14


class DegenerateVectorError(ValueError):
    """Raised when an operation is undefined for vectors on the pole axis."""


@dataclass(frozen=True)
class LowRankTerm:
    """One weighted rank-one term: contributes coef * factor[i] * factor[j] to pair (i, j)."""

    coef: float
    factor: np.ndarray


@dataclass(eq=False)
class PairVector:
    """Sparse-plus-low-rank vector over node pairs. Treated as immutable."""

    n: int
    pair_ids: np.ndarray
    values: np.ndarray
    terms: tuple[LowRankTerm, ...] = ()
    constant: float = 0.0
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one node")
        self.pair_ids = np.asarray(self.pair_ids, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.pair_ids.shape != self.values.shape:
            raise ValueError("pair_ids and values must have the same length")
        if self.pair_ids.size:
            if self.pair_ids[0] < 0 or self.pair_ids[-1] >= self.N:
                raise ValueError("pair id out of range")
            if np.any(np.diff(self.pair_ids) <= 0):
                raise ValueError("pair_ids must be sorted and unique")
            if not np.all(np.isfinite(self.values)):
                raise ValueError("non-finite sparse value")
        clean = []
        for t in self.terms:
            f = np.asarray(t.factor, dtype=np.float64)
            if f.shape != (self.n,):
                raise ValueError("rank-one factor must have length n")
            if not (math.isfinite(t.coef) and np.all(np.isfinite(f))):
                raise ValueError("non-finite rank-one term")
            clean.append(LowRankTerm(float(t.coef), f))
        self.terms = tuple(clean)
        if not math.isfinite(self.constant):
            raise ValueError("non-finite constant")
        self.constant = float(self.constant)

    @property
    def N(self) -> int:
        return num_pairs(self.n)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_pairs(cls, n: int, weights, terms=(), constant: float = 0.0) -> "PairVector":
        """Build from a {(i, j): w} mapping."""
        ids, vals = [], []
        for (i, j), w in weights.items():
            if i == j or not (0 <= i < n and 0 <= j < n):
                raise IndexError(f"invalid pair ({i}, {j}) for n={n}")
            if i > j:
                i, j = j, i
            ids.append(pair_id(i, j, n))
            vals.append(float(w))
        ids = np.asarray(ids, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        order = np.argsort(ids, kind="stable")
        ids, vals = ids[order], vals[order]
        if ids.size and np.any(np.diff(ids) == 0):
            raise ValueError("duplicate pair key")
        return cls(n, ids, vals, tuple(terms), constant)

    @classmethod
    def constant_vector(cls, n: int, c: float) -> "PairVector":
        """The vector with every pair entry equal to c (c=1 gives the coarse pole)."""
        return cls(n, np.empty(0, np.int64), np.empty(0), (), c)

    # -- entry access --------------------------------------------------------

    def entry(self, i: int, j: int) -> float:
        """Coordinate for the unordered pair (i, j)."""
        if i == j or not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"invalid pair ({i}, {j}) for n={self.n}")
        if i > j:
            i, j = j, i
        val = self.constant
        for t in self.terms:
            val += t.coef * t.factor[i] * t.factor[j]
        pid = int(pair_id(i, j, self.n))
        pos = np.searchsorted(self.pair_ids, pid)
        if pos < self.pair_ids.size and self.pair_ids[pos] == pid:
            val += float(self.values[pos])
        return float(val)

    def smooth_at(self, ii, jj) -> np.ndarray:
        """Low-rank + constant part evaluated at pairs given by index arrays."""
        out = np.full(len(ii), self.constant, dtype=np.float64)
        for t in self.terms:
            out += t.coef * t.factor[ii] * t.factor[jj]
        return out

    def sparse_members(self):
        """(i, j) arrays of the sparse support, cached."""
        if "ij" not in self._cache:
            self._cache["ij"] = pair_members(self.pair_ids, self.n)
        return self._cache["ij"]

    # -- cached scalars ------------------------------------------------------

    def total(self) -> float:
        """Sum of all N entries, i.e. the inner product with the all-ones vector."""
        if "total" not in self._cache:
            acc = float(self.values.sum()) + self.constant * self.N
            for t in self.terms:
                s = float(t.factor.sum())
                acc += t.coef * (s * s - float(t.factor @ t.factor)) / 2.0
            self._cache["total"] = acc
        return self._cache["total"]

    def norm(self) -> float:
        if "norm" not in self._cache:
            self._cache["norm"] = math.sqrt(max(inner(self, self), 0.0))
        return self._cache["norm"]

    # -- algebra -------------------------------------------------------------

    def scaled(self, a: float) -> "PairVector":
        terms = tuple(LowRankTerm(a * t.coef, t.factor) for t in self.terms)
        return self._on_same_support(a * self.values, terms, a * self.constant)

    def _on_same_support(self, values, terms, constant) -> "PairVector":
        """A vector over the same sparse pairs, carrying the cached (i, j) members."""
        out = PairVector(self.n, self.pair_ids, values, terms, constant)
        if "ij" in self._cache:
            out._cache["ij"] = self._cache["ij"]
        return out


def combine(parts) -> PairVector:
    """Linear combination sum_i coef_i * vec_i from (coef, PairVector) pairs."""
    parts = [(c, v) for c, v in parts if c != 0.0]
    if not parts:
        raise ValueError("empty combination")
    n = parts[0][1].n
    if any(v.n != n for _, v in parts):
        raise ValueError("dimension mismatch in combination")
    ids = np.concatenate([v.pair_ids for _, v in parts])
    vals = np.concatenate([c * v.values for c, v in parts])
    uniq, inv = np.unique(ids, return_inverse=True)
    summed = np.bincount(inv, weights=vals, minlength=uniq.size)
    terms = []
    const = 0.0
    for c, v in parts:
        terms.extend(LowRankTerm(c * t.coef, t.factor) for t in v.terms)
        const += c * v.constant
    return PairVector(n, uniq, summed, tuple(terms), const)


def _clamp_cos(c: float) -> float:
    # round-off can push |cos| marginally above 1
    return min(1.0, max(-1.0, c))


def _smooth_terms_with_constant(x: PairVector):
    for t in x.terms:
        yield t.coef, t.factor
    if x.constant != 0.0:
        yield x.constant, np.ones(x.n)


def _sparse_dot_smooth(xs: PairVector, ys: PairVector) -> float:
    if xs.pair_ids.size == 0 or (not ys.terms and ys.constant == 0.0):
        return 0.0
    ii, jj = xs.sparse_members()
    return float(xs.values @ ys.smooth_at(ii, jj))


def inner(x: PairVector, y: PairVector) -> float:
    """Exact inner product sum_{i<j} x_ij * y_ij of two pair vectors."""
    if x.n != y.n:
        raise ValueError(f"dimension mismatch: n={x.n} vs n={y.n}")
    acc = 0.0
    if x.pair_ids.size and y.pair_ids.size:
        if x.pair_ids is y.pair_ids:
            acc += float(x.values @ y.values)
        else:
            _, ix, iy = np.intersect1d(
                x.pair_ids, y.pair_ids, assume_unique=True, return_indices=True
            )
            acc += float(x.values[ix] @ y.values[iy])
    xy = _sparse_dot_smooth(x, y)
    acc += xy
    acc += xy if y is x else _sparse_dot_smooth(y, x)  # one pass for a norm
    for ca, ua in _smooth_terms_with_constant(x):
        for cb, ub in _smooth_terms_with_constant(y):
            z = ua * ub
            s = float(z.sum())
            acc += ca * cb * (s * s - float(z @ z)) / 2.0
    return acc


def angular_distance(x: PairVector, y: PairVector) -> float:
    """Angle arccos(<x,y>/(|x||y|)) in [0, pi]."""
    nx, ny = x.norm(), y.norm()
    if nx == 0.0 or ny == 0.0:
        raise ValueError("angular distance undefined for a zero vector")
    return math.acos(_clamp_cos(inner(x, y) / (nx * ny)))


def latitude(x: PairVector) -> float:
    """Angular distance to the all-minus-ones pole; measures clustering granularity."""
    nx = x.norm()
    if nx == 0.0:
        raise ValueError("latitude undefined for a zero vector")
    return math.acos(_clamp_cos(-x.total() / (nx * math.sqrt(x.N))))


def _off_axis_norm(x: PairVector) -> float:
    """Norm of the component orthogonal to the all-ones direction; raises
    DegenerateVectorError when x lies on the pole axis (a multiple of all-ones)."""
    norm_sq = x.norm() ** 2
    off_sq = norm_sq - x.total() ** 2 / x.N
    if norm_sq == 0.0 or off_sq <= _POLE_AXIS_SQ_RTOL * norm_sq:
        raise DegenerateVectorError("vector lies on the pole axis (multiple of all-ones)")
    return math.sqrt(off_sq)


def correlation_distance(x: PairVector, y: PairVector) -> float:
    """Angle between the meridians of x and y: arccos of their Pearson correlation.

    Computed from the angular distance and the two latitudes via the
    hyperspherical law of cosines anchored at the fine pole.
    """
    _off_axis_norm(x)  # raises on the pole axis
    _off_axis_norm(y)
    return _vertex_angle(latitude(x), latitude(y), angular_distance(x, y))


def _vertex_angle(a: float, b: float, g: float) -> float:
    """Angle between the sides a and b of a spherical triangle whose third
    side is g (spherical law of cosines)."""
    c = (math.cos(g) - math.cos(a) * math.cos(b)) / (math.sin(a) * math.sin(b))
    return math.acos(_clamp_cos(c))


def spherical_angle(x: PairVector, r: PairVector, y: PairVector) -> float:
    """Surface angle at r between the great-circle arcs r->x and r->y."""
    a = angular_distance(x, r)
    b = angular_distance(y, r)
    if math.sin(a) <= 1e-7 or math.sin(b) <= 1e-7:
        raise DegenerateVectorError("spherical angle undefined at coincident/antipodal points")
    return _vertex_angle(a, b, angular_distance(x, y))


def parallel_projection(x: PairVector, lam: float) -> PairVector:
    """Project x along its meridian onto the parallel of latitude lam in (0, pi).

    The result keeps x's sparse and low-rank structure (scaled), adjusts only
    the constant offset, has norm sqrt(N), latitude lam, and correlation
    distance 0 to x.
    """
    if not 0.0 < lam < math.pi:
        raise ValueError("target latitude must lie strictly between 0 and pi")
    alpha = math.sin(lam) * math.sqrt(x.N) / _off_axis_norm(x)
    mu = x.total() / x.N
    terms = tuple(LowRankTerm(alpha * t.coef, t.factor) for t in x.terms)
    const = alpha * (x.constant - mu) - math.cos(lam)
    return x._on_same_support(alpha * x.values, terms, const)
