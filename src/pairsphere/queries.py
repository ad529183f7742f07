"""Query-vector constructors and the granularity correction.

Each community detection objective maps a graph to a point in pair space;
detecting communities then means finding the nearest clustering vector. All
constructors here return sparse-plus-low-rank vectors so the local-move
solver stays near-linear in the sparse support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .clustering import Partition, partition_latitude, query_correlation_distance
from .geometry import LowRankTerm, PairVector, combine, parallel_projection
from .graph import Graph, adjacency_vector, degree_product_vector, jaccard_vector, walk_distribution
from .pairs import pair_members


def er_modularity_query(G: Graph, gamma: float) -> PairVector:
    """Adjacency vector minus gamma * (edge density) on every pair.

    On the meridian of the adjacency vector; gamma = 1 puts it on the equator.
    """
    if G.m == 0:
        raise ValueError("modularity query undefined for an empty graph")
    base = adjacency_vector(G)
    return base._on_same_support(base.values, (), -gamma * G.m / G.N)


def cl_modularity_query(G: Graph, gamma: float) -> PairVector:
    """Adjacency vector minus gamma times the degree-product vector."""
    if G.m == 0:
        raise ValueError("modularity query undefined for an empty graph")
    base = adjacency_vector(G)
    if gamma == 0.0:
        return base
    term = LowRankTerm(-gamma / (2.0 * G.m), G.degrees.astype(np.float64))
    return base._on_same_support(base.values, (term,), 0.0)


def er_modularity_latitude(G: Graph, gamma: float) -> float:
    """Closed-form latitude of the ER-modularity query as a function of gamma."""
    if G.m == 0 or G.m == G.N:
        raise ValueError("latitude formula needs 0 < m < N")
    return math.atan2(math.sqrt((G.N - G.m) / G.m), gamma - 1.0)


def markov_stability_query(G: Graph, t: int, isolated: str = "error") -> PairVector:
    """Pair weights of diag(s) P^t minus the rank-one outer product of the
    stationary law s = d/(2m), which is 0 on isolated nodes."""
    walk = walk_distribution(G, t, isolated=isolated)
    term = LowRankTerm(-1.0, G.degrees / (2.0 * G.m))
    return walk._on_same_support(walk.values, (term,), 0.0)


def correlation_clustering_query(w_plus: dict, w_minus: dict, n: int) -> PairVector:
    """Pairwise similarity-minus-dissimilarity weights as a sparse vector."""
    diff: dict[tuple[int, int], float] = {}
    for (i, j), w in w_plus.items():
        key = (i, j) if i < j else (j, i)
        diff[key] = diff.get(key, 0.0) + w
    for (i, j), w in w_minus.items():
        key = (i, j) if i < j else (j, i)
        diff[key] = diff.get(key, 0.0) - w
    return PairVector.from_pairs(n, diff)


def query_to_weights(q: PairVector) -> tuple[dict, dict]:
    """Split a query's entries by sign into similarity/dissimilarity weight maps
    (the inverse of correlation_clustering_query: w+ = max(0, q), w- = max(0, -q)).

    Requires a purely sparse query; splitting smooth parts entrywise would
    materialize the full pair space.
    """
    if q.terms or q.constant != 0.0:
        raise ValueError("weight split requires a purely sparse query")
    ii, jj = pair_members(q.pair_ids, q.n)
    w_plus: dict = {}
    w_minus: dict = {}
    for i, j, v in zip(ii.tolist(), jj.tolist(), q.values.tolist()):
        if v > 0:
            w_plus[(i, j)] = v
        elif v < 0:
            w_minus[(i, j)] = -v
    return w_plus, w_minus


def ppm_likelihood_query(interactions: dict, f_in, f_out, n: int, default_value=0.0) -> PairVector:
    """Log-likelihood-ratio query for pairwise-independent interaction models.

    `interactions` maps pairs to observed values; unobserved pairs carry
    `default_value`, whose log-ratio is folded into the constant term.
    """
    base_in, base_out = f_in(default_value), f_out(default_value)
    if base_in <= 0 or base_out <= 0:
        raise ValueError("density must be positive at the default interaction value")
    const = math.log(base_in / base_out)
    entries: dict[tuple[int, int], float] = {}
    for (i, j), a in interactions.items():
        fi, fo = f_in(a), f_out(a)
        if fi <= 0 or fo <= 0:
            raise ValueError(f"density not positive at observed value {a!r}")
        key = (i, j) if i < j else (j, i)
        if key in entries:
            raise ValueError(f"interactions give the pair {key} twice")
        entries[key] = math.log(fi / fo) - const
    return PairVector.from_pairs(n, entries, (), const)


def binary_ppm_query(G: Graph, p_in: float, p_out: float) -> PairVector:
    """Likelihood query for the two-density edge model: edges carry
    log(p_in/p_out), non-edges log((1-p_in)/(1-p_out)) via the constant."""
    for p in (p_in, p_out):
        if not 0.0 < p < 1.0:
            raise ValueError("edge probabilities must lie strictly inside (0, 1)")
    const = math.log((1.0 - p_in) / (1.0 - p_out))
    edge_val = math.log(p_in / p_out) - const
    return adjacency_vector(G)._on_same_support(np.full(G.m, edge_val), (), const)


def linear_combination_queries(G: Graph, cj_grid, cd_grid, c_a: float = 1.0, c_1: float = 0.0):
    """Yield (c_j, c_d, query) for each grid cell, c_j-major: the query
    c_a * adjacency + c_j * jaccard + c_d * degree-product + c_1 * ones.

    The Jaccard vector and the degree term are built once, and only if some
    c_j, or c_d, needs them. Each c_j's sparse part is combined once; its
    cells share its support record, so the first solve on one builds the row
    layout for all. Each cell has, bit for bit, the fields of
    combine([(c_a, adj), (c_j, jac), (c_d, deg), (c_1, ones)]), or of the
    zero constant vector when every coefficient is 0."""
    adj = adjacency_vector(G) if c_a != 0.0 else None
    jac = jaccard_vector(G) if any(cj_grid) else None
    deg_term = degree_product_vector(G).terms[0] if any(cd_grid) else None
    for c_j in cj_grid:
        parts = [(c, v) for c, v in ((c_a, adj), (c_j, jac)) if c != 0.0]
        sparse = combine(parts) if parts else PairVector.constant_vector(G.n, 0.0)
        for c_d in cd_grid:
            terms = (LowRankTerm(c_d * deg_term.coef, deg_term.factor),) if c_d != 0.0 else ()
            yield c_j, c_d, sparse._on_same_support(sparse.values, terms, c_1 or 0.0)


def linear_combination_query(
    G: Graph, c_a: float = 1.0, c_j: float = 0.0, c_d: float = 0.0, c_1: float = 0.0
) -> PairVector:
    """c_a * adjacency + c_j * jaccard + c_d * degree-product + c_1 * ones: the
    one cell of linear_combination_queries."""
    ((_, _, q),) = linear_combination_queries(G, [c_j], [c_d], c_a, c_1)
    return q


# -- granularity correction -----------------------------------------------------

LATITUDE_RULES = ("corrected", "match-planted", "min-distance")


def heuristic_latitude(lam_t: float, theta: float) -> float:
    """Target query latitude that makes the projected query's distance to the
    reference clustering equal theta.

    Interpolates between lam_t (theta = 0) and the equator (theta = pi/2).
    """
    if not 0.0 < lam_t < math.pi:
        raise ValueError("reference latitude must lie strictly between 0 and pi")
    if not 0.0 <= theta <= math.pi / 2:
        raise ValueError("meridian angle must lie in [0, pi/2]")
    return math.acos(math.cos(lam_t) * math.cos(theta) / (1.0 + math.sin(lam_t) * math.sin(theta)))


def rule_latitude(rule: str, lam_t: float, theta: float) -> float:
    """Latitude prescribed by one of the named strategies.

    corrected     -- heuristic_latitude (the default correction)
    match-planted -- lam = lam_t
    min-distance  -- tan(lam) = cos(theta) * tan(lam_t)
    """
    check_latitude_rule(rule)
    if rule == "corrected":
        return heuristic_latitude(lam_t, theta)
    if rule == "match-planted":
        return lam_t
    lam = math.atan2(math.cos(theta) * math.sin(lam_t), math.cos(lam_t))
    if not 0.0 < lam < math.pi:
        raise ValueError("min-distance latitude degenerates to a pole")
    return lam


def check_latitude_rule(rule: str) -> None:
    """Raise ValueError unless `rule` names one of LATITUDE_RULES."""
    if rule not in LATITUDE_RULES:
        raise ValueError(f"unknown latitude rule {rule!r}; pick one of {LATITUDE_RULES}")


def apply_granularity_heuristic(
    q: PairVector,
    T: Partition | None = None,
    *,
    lam_t: float | None = None,
    theta: float | None = None,
    rule: str = "corrected",
) -> PairVector:
    """Re-project a query to the corrected latitude.

    With a reference partition T, the reference latitude and the meridian
    angle are computed exactly from the inputs. Alternatively both may be
    supplied directly (e.g. means estimated from a generator).
    """
    if T is not None:
        lam_t = partition_latitude(T)
        theta = query_correlation_distance(q, T)
    if lam_t is None or theta is None:
        raise ValueError("need either a reference partition or (lam_t, theta)")
    return parallel_projection(q, rule_latitude(rule, lam_t, theta))


# -- declarative query descriptions ----------------------------------------------

METHODS = ("er-modularity", "cl-modularity", "markov", "ppm", "linear")
HEURISTIC_MODES = ("off", "exact", "fixed", "means")


# QuerySpec fields that only steer granularity handling or label the query
_HANDLING_FIELDS = ("heuristic", "lam_t", "theta", "pilots", "rule", "name")


@dataclass
class QuerySpec:
    """Declarative description of a query mapping plus granularity handling."""

    method: str
    gamma: float = 1.0
    t: int = 1
    isolated: str = "error"  # markov behavior on isolated nodes: error | zero
    p_in: float | None = None
    p_out: float | None = None
    c_a: float = 1.0
    c_j: float = 0.0
    c_d: float = 0.0
    c_1: float = 0.0
    heuristic: str = "off"
    lam_t: float | None = None
    theta: float | None = None
    pilots: int = 10
    rule: str = "corrected"
    name: str | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; pick one of {METHODS}")
        if self.heuristic not in HEURISTIC_MODES:
            raise ValueError(
                f"unknown heuristic mode {self.heuristic!r}; pick one of {HEURISTIC_MODES}"
            )
        if self.method == "markov" and self.t < 1:
            raise ValueError("walk length must be at least 1")
        if self.isolated not in ("error", "zero"):
            raise ValueError("isolated must be 'error' or 'zero'")
        if self.method in ("er-modularity", "cl-modularity") and not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError("resolution parameter must be finite and nonnegative")
        if self.method == "linear" and not all(map(math.isfinite, (self.c_a, self.c_j, self.c_d, self.c_1))):
            raise ValueError("linear coefficients c_a, c_j, c_d and c_1 must be finite")
        if self.method == "ppm" and not all(p is not None and 0.0 < p < 1.0 for p in (self.p_in, self.p_out)):
            raise ValueError("ppm method needs p_in and p_out strictly inside (0, 1)")
        if self.heuristic == "fixed" and not (
            None not in (self.lam_t, self.theta) and 0.0 < self.lam_t < math.pi and 0.0 <= self.theta <= math.pi / 2
        ):
            raise ValueError(f"fixed heuristic needs 0 < lam_t < pi and 0 <= theta <= pi/2, not {self.lam_t}, {self.theta}")
        if self.heuristic == "means" and self.pilots < 1:
            raise ValueError("means heuristic mode needs at least one pilot sample")
        check_latitude_rule(self.rule)

    @property
    def label(self) -> str:
        if self.name:
            return self.name
        bits = [self.method]
        if self.method in ("er-modularity", "cl-modularity"):
            bits.append(f"gamma={self.gamma:g}")
        elif self.method == "markov":
            bits.append(f"t={self.t}")
        elif self.method == "linear":
            bits.append(f"cj={self.c_j:g},cd={self.c_d:g}")
        if self.heuristic != "off":
            bits.append(f"heur={self.heuristic}")
        return " ".join(bits)

    def base_key(self) -> tuple:
        """Cache key identifying the query before granularity handling: every
        field but the handling's and the name."""
        return tuple(getattr(self, f.name) for f in fields(self) if f.name not in _HANDLING_FIELDS)


def build_base_query(G: Graph, spec: QuerySpec) -> PairVector:
    """Construct the raw query vector, before any latitude correction."""
    if spec.method == "er-modularity":
        return er_modularity_query(G, spec.gamma)
    if spec.method == "cl-modularity":
        return cl_modularity_query(G, spec.gamma)
    if spec.method == "markov":
        return markov_stability_query(G, spec.t, isolated=spec.isolated)
    if spec.method == "ppm":
        return binary_ppm_query(G, spec.p_in, spec.p_out)
    if spec.method == "linear":
        return linear_combination_query(G, spec.c_a, spec.c_j, spec.c_d, spec.c_1)
    raise ValueError(f"unknown method {spec.method!r}")


def build_query(G: Graph, spec: QuerySpec, planted: Partition | None = None, base: PairVector | None = None) -> PairVector:
    """Construct the query vector with the spec's granularity handling applied.

    `exact` mode computes the reference latitude and meridian angle from the
    planted partition; `fixed`/`means` modes use the spec's stored values
    (means are estimated upstream by the experiment harness).
    """
    q = base if base is not None else build_base_query(G, spec)
    if spec.heuristic == "off":
        return q
    if spec.heuristic == "exact":
        if planted is None:
            raise ValueError("exact heuristic mode needs the planted partition")
        return apply_granularity_heuristic(q, planted, rule=spec.rule)
    # fixed or means: values live on the spec
    return apply_granularity_heuristic(q, lam_t=spec.lam_t, theta=spec.theta, rule=spec.rule)
