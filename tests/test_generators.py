import math

import numpy as np
import pytest

from pairsphere.generators import (
    GeneratorSpec,
    generate,
    generate_hppm,
    generate_ppm,
    load_external,
    ring_of_cliques,
)
from pairsphere.generators import _bernoulli_pair_ids, _powerlaw_sizes
from pairsphere.graph import write_edges
from pairsphere.clustering import write_membership
from pairsphere.pairs import num_pairs


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("lfr")
    with pytest.raises(ValueError):
        GeneratorSpec("ppm", n=1)
    with pytest.raises(ValueError):
        GeneratorSpec("ring")
    with pytest.raises(ValueError):
        GeneratorSpec("ppm", n=10, delta=0.5)
    # rejected up front, before any sample would fail
    with pytest.raises(ValueError, match="p_in"):
        GeneratorSpec("ppm", n=6, k=2, lambda_in=3)
    with pytest.raises(ValueError, match="divide"):
        GeneratorSpec("ppm", n=40, k=3)
    with pytest.raises(ValueError, match="divide"):
        GeneratorSpec("dcppm", n=40, k=3)
    with pytest.raises(ValueError, match="divide"):
        GeneratorSpec("ppm", n=40)
    with pytest.raises(ValueError, match="k >= 3"):
        GeneratorSpec("ring", k=2, s=4)
    with pytest.raises(ValueError, match="s >= 2"):
        GeneratorSpec("ring", k=3, s=1)
    for s_min, s_max in ((50, 10), (0, 10), (1, 10)):
        with pytest.raises(ValueError, match="s_min"):
            GeneratorSpec("hppm", n=200, s_min=s_min, s_max=s_max)
    GeneratorSpec("hppm", n=200, s_min=2, s_max=2)
    for tau in (2.0, 1.5):  # no weight of finite mean to sample
        with pytest.raises(ValueError, match="weight exponent must exceed 2"):
            GeneratorSpec("dcppm", n=60, k=3, tau=tau)
    assert GeneratorSpec(n=40, k=4).family == "ppm"


def test_bernoulli_skipping_distribution():
    rng = np.random.default_rng(0)
    m, p = 40_000, 0.05
    counts = [(_bernoulli_pair_ids(rng, m, p)).size for _ in range(30)]
    mean = np.mean(counts)
    # 30 trials of Binomial(40000, 0.05): mean 2000, sd ~8 on the mean
    assert abs(mean - m * p) < 5 * math.sqrt(m * p * (1 - p) / 30)
    ids = _bernoulli_pair_ids(rng, 1000, 0.3)
    assert np.all(np.diff(ids) > 0) and ids.min() >= 0 and ids.max() < 1000
    assert _bernoulli_pair_ids(rng, 100, 0.0).size == 0
    assert _bernoulli_pair_ids(rng, 100, 1.0).size == 100


def test_ppm_zero_rates_gives_empty_graph():
    G, T = generate_ppm(GeneratorSpec("ppm", n=20, k=4, lambda_in=0, lambda_out=0), 1)
    assert G.m == 0
    assert T.k == 4


def test_ppm_forced_cliques():
    # lambda_in = s-1 forces p_in = 1: communities become cliques
    G, T = generate_ppm(GeneratorSpec("ppm", n=20, k=2, lambda_in=9, lambda_out=0), 2)
    assert G.m == 2 * (10 * 9 // 2)
    for a, b in G.edges:
        assert T.membership[a] == T.membership[b]


def test_ppm_partition_and_determinism():
    spec = GeneratorSpec("ppm", n=60, k=6, lambda_in=5, lambda_out=2)
    G1, T1 = generate(spec, 7)
    G2, T2 = generate(spec, 7)
    assert np.array_equal(G1.edges, G2.edges) and T1 == T2
    G3, _ = generate(spec, 8)
    assert not np.array_equal(G1.edges, G3.edges)
    assert T1.sizes.tolist() == [10] * 6
    with pytest.raises(ValueError):
        generate_ppm(GeneratorSpec("ppm", n=10, k=3), 0)  # k does not divide n
    with pytest.raises(ValueError):
        generate_ppm(GeneratorSpec("ppm", n=10, k=5, lambda_in=5), 0)  # p_in > 1


def test_ppm_mean_degree_monte_carlo():
    spec = GeneratorSpec("ppm", n=500, k=25, lambda_in=6, lambda_out=2)
    degs = [2 * generate(spec, s)[0].m / 500 for s in range(25)]
    assert np.mean(degs) == pytest.approx(8.0, abs=0.3)


def test_ppm_intra_density_within_binomial_bounds():
    spec = GeneratorSpec("ppm", n=100, k=5, lambda_in=6, lambda_out=1)
    s = 20
    p_in = 6 / (s - 1)
    n_intra_pairs = 5 * num_pairs(s)
    total = 0
    reps = 40
    for sd in range(reps):
        G, T = generate(spec, sd)
        intra = sum(1 for a, b in G.edges if T.membership[a] == T.membership[b])
        total += intra
    mean = total / reps
    sigma = math.sqrt(n_intra_pairs * p_in * (1 - p_in) / reps)
    assert abs(mean - n_intra_pairs * p_in) < 3 * sigma  # z = 1.66 at these seeds


def test_powerlaw_sizes_cover_n_and_bounds():
    rng = np.random.default_rng(3)
    for n in (50, 137, 1000):
        sizes = _powerlaw_sizes(rng, n, 2.5, 10, 100)
        assert sizes.sum() == n
        assert sizes.min() >= 2
        assert sizes[:-1].max() <= 100


def test_powerlaw_sizes_fixed_support_reduces_to_equal():
    rng = np.random.default_rng(4)
    sizes = _powerlaw_sizes(rng, 100, 2.5, 20, 20)
    assert sizes.tolist() == [20] * 5


def test_powerlaw_tail_exponent_loose():
    rng = np.random.default_rng(5)
    draws = []
    for _ in range(300):
        draws.extend(_powerlaw_sizes(rng, 1000, 2.5, 10, 100).tolist())
    draws = np.array([d for d in draws if 10 <= d <= 100])
    # log-log regression of the empirical pmf against s^-delta
    vals, counts = np.unique(draws, return_counts=True)
    keep = counts > 5
    slope = np.polyfit(np.log(vals[keep]), np.log(counts[keep]), 1)[0]
    assert slope == pytest.approx(-2.5, abs=0.5)


def test_hppm_identity_and_interdegree():
    spec = GeneratorSpec("hppm", n=400, lambda_in=6, lambda_out=2)
    inter_degs = []
    for sd in range(15):
        G, T = generate(spec, sd)
        inter = sum(1 for a, b in G.edges if T.membership[a] != T.membership[b])
        inter_degs.append(2 * inter / 400)
    assert np.mean(inter_degs) == pytest.approx(2.0, rel=0.10)


def test_hppm_equal_sizes_reduce_to_ppm_intra_law():
    spec = GeneratorSpec("hppm", n=100, lambda_in=6, lambda_out=1, s_min=20, s_max=20)
    G, T = generate(spec, 9)
    assert T.sizes.tolist() == [20] * 5


def test_hppm_p_out_validation():
    with pytest.raises(ValueError, match="p_out"):
        generate_hppm(GeneratorSpec("hppm", n=30, lambda_in=2, lambda_out=40, s_min=10, s_max=15), 0)


def test_dcppm_reduces_to_homogeneous_when_weights_equal():
    # tau -> large makes the Pareto concentrate at its floor
    spec = GeneratorSpec("dcppm", n=100, k=5, lambda_in=6, lambda_out=2, tau=60.0)
    G, T = generate(spec, 3)
    assert G.weights.std() / G.weights.mean() < 0.05
    assert T.sizes.tolist() == [20] * 5


def test_dcppm_weight_floor_gives_requested_mean():
    spec = GeneratorSpec("dcppm", n=4000, k=200, lambda_in=6, lambda_out=2)
    means = [generate(spec, s)[0].weights.mean() for s in range(8)]
    # tau=2.5 has infinite variance: the sample mean is noisy but centers on 8
    assert np.median(means) == pytest.approx(8.0, rel=0.25)


def test_dcppm_degree_tracks_weight():
    spec = GeneratorSpec("dcppm", n=1000, k=50, lambda_in=6, lambda_out=2)
    for sd in range(3):
        G, _ = generate(spec, sd)
        r = np.corrcoef(G.weights, G.degrees)[0, 1]
        assert r >= 0.8
        assert G.prob_clips >= 0


def test_dcppm_mean_degree_frozen_band():
    # heavy-tail corrections + probability clipping pull the realized mean
    # degree below the weight mean of 8; the Monte-Carlo value is ~5.9
    spec = GeneratorSpec("dcppm", n=1000, k=50, lambda_in=6, lambda_out=2)
    degs = [2 * generate(spec, 100 + s)[0].m / 1000 for s in range(10)]
    assert 5.2 <= np.mean(degs) <= 6.6


def test_ring_of_cliques_counts():
    G, T = ring_of_cliques(3, 3)
    assert (G.n, G.m) == (9, 12)
    assert T.k == 3
    with pytest.raises(ValueError):
        ring_of_cliques(2, 3)
    with pytest.raises(ValueError):
        ring_of_cliques(3, 1)


def test_ring_latitude_shrinks_with_k():
    from pairsphere.clustering import partition_latitude

    lats = []
    for k in (5, 20, 80):
        _, T = ring_of_cliques(k, 5)
        lats.append(partition_latitude(T))
    assert lats[0] > lats[1] > lats[2]
    assert lats[2] < 0.25


def test_external_roundtrip(tmp_path):
    spec = GeneratorSpec("ppm", n=40, k=4, lambda_in=5, lambda_out=1)
    G, T = generate(spec, 5)
    write_edges(tmp_path / "g.edges", G)
    write_membership(tmp_path / "g.membership", T)
    G2, T2 = load_external(tmp_path / "g.edges", tmp_path / "g.membership")
    assert np.array_equal(G.edges, G2.edges)
    assert T == T2


def test_external_missing_node(tmp_path):
    (tmp_path / "g.edges").write_text("0 1\n1 2\n")
    (tmp_path / "g.membership").write_text("0 0\n1 0\n")
    with pytest.raises(ValueError, match="node 2"):
        load_external(tmp_path / "g.edges", tmp_path / "g.membership")


def test_generated_partitions_cover_all_nodes():
    for fam, kw in (
        ("ppm", dict(n=60, k=6)),
        ("hppm", dict(n=80)),
        ("dcppm", dict(n=60, k=6)),
    ):
        spec = GeneratorSpec(fam, lambda_in=4, lambda_out=1, **kw)
        G, T = generate(spec, 13)
        assert T.n == G.n
        assert T.sizes.sum() == G.n
