"""Random-graph generators with planted partitions, plus benchmark ingestion.

Families:
  ppm   -- k equal communities; uniform intra/inter edge probabilities chosen
           so nodes expect lambda_in neighbors inside and lambda_out outside.
  hppm  -- power-law community sizes; per-community intra rate, global inter
           rate normalized to keep the expected outside-degree at lambda_out.
  dcppm -- equal communities, heavy-tailed node weights; pair probabilities
           proportional to weight products, clipped at 1, so hubs fall well
           short of their weight in degree (see README, "DCPPM degrees").
  ring  -- deterministic ring of k cliques of size s, joined by single edges.

Uniform-probability pair blocks are sampled in O(expected edges) by geometric
gap skipping over flat pair indices, never by iterating all pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import rng_from
from .clustering import Partition, read_membership
from .graph import Graph, read_edges
from .pairs import num_pairs, pair_members


@dataclass
class GeneratorSpec:
    """Declarative description of a generator instance."""

    family: str = "ppm"
    n: int = 0
    k: int | None = None
    s: int | None = None
    lambda_in: float = 6.0
    lambda_out: float = 2.0
    delta: float = 2.5  # community-size power-law exponent (hppm)
    s_min: int = 10
    s_max: int = 100
    tau: float = 2.5  # degree power-law exponent (dcppm)
    edge_file: str | None = None
    membership_file: str | None = None

    def __post_init__(self):
        if self.family not in ("ppm", "hppm", "dcppm", "ring", "external"):
            raise ValueError(f"unknown generator family {self.family!r}")
        if self.family != "external":
            if self.family == "ring":
                _check_ring(self.k, self.s)
            elif self.n < 2:
                raise ValueError("need at least two nodes")
        if self.lambda_in < 0 or self.lambda_out < 0:
            raise ValueError("expected degrees must be nonnegative")
        if self.delta <= 1 or self.tau <= 1:
            raise ValueError("power-law exponents must exceed 1")
        if self.family == "ppm":
            _ppm_probabilities(self)
        elif self.family == "dcppm":
            _block_size(self.n, self.k)
            if self.tau <= 2:
                raise ValueError("weight exponent must exceed 2 for a finite mean")
        elif self.family == "hppm" and not 2 <= self.s_min <= self.s_max:
            raise ValueError("community sizes need 2 <= s_min <= s_max")

    def to_flat(self) -> dict:
        out = {"family": self.family}
        if self.family == "ring":
            out.update(k=self.k, s=self.s)
        elif self.family == "external":
            out.update(edge_file=self.edge_file, membership_file=self.membership_file)
        else:
            out.update(n=self.n, lambda_in=self.lambda_in, lambda_out=self.lambda_out)
            if self.family in ("ppm", "dcppm"):
                out["k"] = self.k
            if self.family == "hppm":
                out.update(delta=self.delta, s_min=self.s_min, s_max=self.s_max)
            if self.family == "dcppm":
                out["tau"] = self.tau
        return out


def generate(spec: GeneratorSpec, seed) -> tuple[Graph, Partition]:
    """Dispatch on the family; deterministic for a fixed (spec, seed)."""
    if spec.family == "ppm":
        return generate_ppm(spec, seed)
    if spec.family == "hppm":
        return generate_hppm(spec, seed)
    if spec.family == "dcppm":
        return generate_dcppm(spec, seed)
    if spec.family == "ring":
        return ring_of_cliques(spec.k, spec.s)
    if spec.family == "external":
        return load_external(spec.edge_file, spec.membership_file)
    raise ValueError(spec.family)


# -- uniform-block pair sampling -------------------------------------------------


def _bernoulli_pair_ids(rng: np.random.Generator, n_pairs: int, p: float) -> np.ndarray:
    """Indices of successes among n_pairs independent Bernoulli(p) trials,
    sampled by geometric gap skipping in O(successes)."""
    if n_pairs <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(n_pairs, dtype=np.int64)
    chunks = []
    pos = np.int64(-1)
    batch = max(64, int(n_pairs * p * 1.2) + 16)
    while True:
        gaps = rng.geometric(p, size=batch).astype(np.int64)
        positions = pos + np.cumsum(gaps)
        inside = positions[positions < n_pairs]
        chunks.append(inside)
        if inside.size < positions.size:
            break
        pos = positions[-1]
    return np.concatenate(chunks)


def _sample_block_pairs(rng, members: np.ndarray, p: float) -> np.ndarray:
    """Edges inside one community (all pairs of `members` at probability p)."""
    a, b = pair_members(_bernoulli_pair_ids(rng, num_pairs(members.size), p), members.size)
    return np.stack([members[a], members[b]], axis=1)


def _sample_inter_pairs(rng, n: int, p: float, membership: np.ndarray) -> np.ndarray:
    """Inter-community edges at uniform probability p: sample over all N pairs
    and discard intra hits (exact thinning of the complement blocks)."""
    a, b = pair_members(_bernoulli_pair_ids(rng, num_pairs(n), p), n)
    keep = membership[a] != membership[b]
    return np.stack([a[keep], b[keep]], axis=1)


# -- families --------------------------------------------------------------------


def _block_size(n: int, k: int | None) -> int:
    """Size of each of k equal communities over n nodes."""
    if k is None or k < 1 or n % k != 0:
        raise ValueError("community count must divide the node count")
    s = n // k
    if s < 2:
        raise ValueError("communities need at least two nodes")
    return s


def _check_ring(k: int | None, s: int | None) -> None:
    if k is None or s is None or k < 3 or s < 2:
        raise ValueError("ring of cliques needs k >= 3 and s >= 2")


def _ppm_probabilities(spec: GeneratorSpec) -> tuple[float, float]:
    """Block probabilities of a ppm spec, each checked to lie in [0, 1]."""
    s = _block_size(spec.n, spec.k)
    p_in = spec.lambda_in / (s - 1)
    p_out = spec.lambda_out / (spec.n - s) if spec.n > s else 0.0
    for name, p in (("p_in", p_in), ("p_out", p_out)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name}={p:.4g} outside [0, 1]; adjust the expected degrees")
    return p_in, p_out


def _planted_graph(rng, sizes, lambda_in: float, p_out: float) -> tuple[Graph, Partition]:
    """Consecutive communities of the given sizes: each block at
    p_in = min(1, lambda_in/(s-1)), then every inter-community pair at p_out."""
    T = Partition(np.repeat(np.arange(len(sizes)), sizes))
    bounds = np.cumsum([0, *sizes]).tolist()
    parts = [
        _sample_block_pairs(rng, np.arange(a, b), min(lambda_in / (b - a - 1), 1.0))
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    parts.append(_sample_inter_pairs(rng, T.n, p_out, T.membership))
    return Graph.from_edges(T.n, np.concatenate(parts)), T


def generate_ppm(spec: GeneratorSpec, seed) -> tuple[Graph, Partition]:
    """Equal-size planted partition: p_in = lambda_in/(s-1), p_out = lambda_out/(n-s)."""
    _, p_out = _ppm_probabilities(spec)
    sizes = [spec.n // spec.k] * spec.k
    return _planted_graph(rng_from(seed, "ppm"), sizes, spec.lambda_in, p_out)


def _powerlaw_sizes(rng, n: int, delta: float, s_min: int, s_max: int) -> np.ndarray:
    """Community sizes from P(s) ~ s^-delta on [s_min, s_max], drawn until they
    cover n; the last size is truncated to fit (merged into the previous
    community if the remainder drops below 2)."""
    support = np.arange(s_min, s_max + 1)
    pmf = support.astype(np.float64) ** (-delta)
    pmf /= pmf.sum()
    sizes: list[int] = []
    remaining = n
    while remaining > 0:
        s = int(rng.choice(support, p=pmf))
        if s >= remaining:
            if remaining >= 2 or not sizes:
                sizes.append(remaining)
            else:
                sizes[-1] += remaining
            remaining = 0
        else:
            sizes.append(s)
            remaining -= s
    return np.asarray(sizes, dtype=np.int64)


def generate_hppm(spec: GeneratorSpec, seed) -> tuple[Graph, Partition]:
    """Power-law community sizes; p_in depends on the community size, the
    uniform p_out is normalized so outside-degrees average lambda_out."""
    rng = rng_from(seed, "hppm")
    sizes = _powerlaw_sizes(rng, spec.n, spec.delta, spec.s_min, spec.s_max).tolist()
    m_t = sum(num_pairs(s) for s in sizes)
    N = num_pairs(spec.n)
    if N == m_t:
        raise ValueError("planted partition leaves no inter-community pairs")
    p_out = spec.n * spec.lambda_out / (2.0 * (N - m_t))
    if p_out > 1.0:
        raise ValueError(f"p_out={p_out:.4g} exceeds 1; lambda_out too large for these sizes")
    return _planted_graph(rng, sizes, spec.lambda_in, p_out)


def _pareto_weights(rng, n: int, tau: float, mean: float) -> np.ndarray:
    """Continuous Pareto(tau > 2) weights with the floor set so E[w] = mean."""
    floor = mean * (tau - 2.0) / (tau - 1.0)
    return floor * rng.random(n) ** (-1.0 / (tau - 1.0))


def generate_dcppm(spec: GeneratorSpec, seed) -> tuple[Graph, Partition]:
    """Degree-corrected planted partition: heavy-tailed node weights, pair
    probabilities proportional to weight products (clipped at 1; the number
    of clipped pairs is recorded on the returned graph as `prob_clips`)."""
    s = _block_size(spec.n, spec.k)
    T = Partition(np.repeat(np.arange(spec.k), s))
    rng = rng_from(seed, "dcppm")
    lam = spec.lambda_in + spec.lambda_out
    if lam <= 0:
        return Graph.from_edges(spec.n, []), T
    theta = _pareto_weights(rng, spec.n, spec.tau, lam)
    total = float(theta.sum())
    f_in = spec.lambda_in / lam
    f_out = spec.lambda_out / lam
    clips = 0

    def hits(probs):
        nonlocal clips
        clips += int((probs > 1.0).sum())
        return np.nonzero(rng.random(probs.shape) < np.minimum(probs, 1.0))

    # Draw order: every block inside a community, community by community, each
    # block's pairs in triu order; then, for a = 0..k-2, the blocks b > a, each
    # s x s and row-major.
    th = theta.reshape(spec.k, s)
    iu, ju = np.triu_indices(s, k=1)
    prod = th[:, iu] * th[:, ju]
    a, e = hits(f_in * prod / th.sum(axis=1)[:, None] + f_out * prod / total)
    edge_chunks = [np.stack([a * s + iu[e], a * s + ju[e]], axis=1)]
    for a in range(spec.k - 1):
        b, i, j = hits(f_out * (th[a + 1 :, None, :] * th[a][:, None]) / total)
        edge_chunks.append(np.stack([a * s + i, (a + 1 + b) * s + j], axis=1))
    edges = np.concatenate(edge_chunks)
    G = Graph.from_edges(spec.n, edges)
    G.prob_clips = clips
    G.weights = theta
    return G, T


def ring_of_cliques(k: int, s: int) -> tuple[Graph, Partition]:
    """k cliques of size s, consecutive cliques joined by one edge (a cycle)."""
    _check_ring(k, s)
    edges = []
    for c in range(k):
        base = c * s
        for i in range(s):
            for j in range(i + 1, s):
                edges.append((base + i, base + j))
        edges.append((base + s - 1, ((c + 1) % k) * s))
    T = Partition(np.repeat(np.arange(k), s))
    return Graph.from_edges(k * s, edges), T


def load_external(edge_file, membership_file) -> tuple[Graph, Partition]:
    """Load an externally generated benchmark (edge list + membership)."""
    if edge_file is None or membership_file is None:
        raise ValueError("external family needs edge_file and membership_file")
    G, id_map = read_edges(edge_file)
    T = read_membership(membership_file, n=G.n, id_map=id_map)
    return G, T
