import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pairsphere.geometry import (
    DegenerateVectorError,
    LowRankTerm,
    PairVector,
    angular_distance,
    combine,
    correlation_distance,
    inner,
    latitude,
    parallel_projection,
    spherical_angle,
)
from pairsphere._kernel import _rows, _smooth_at
from pairsphere.clustering import Partition, as_pair_vector
from pairsphere.pairs import pair_members

from helpers import dense_of, dense_partition_vector, nontrivial_membership, random_sl_vector


def test_entry_constant_only():
    v = PairVector.constant_vector(4, 1.0)
    assert v.entry(0, 1) == 1.0


def test_entry_sparse_plus_rank_one():
    v = PairVector.from_pairs(3, {(0, 1): 2.0}, (LowRankTerm(1.0, np.ones(3)),))
    assert v.entry(0, 1) == 3.0
    assert v.entry(1, 0) == 3.0  # symmetric access


def test_entry_rank_one_product():
    v = PairVector(3, np.empty(0, np.int64), np.empty(0), (LowRankTerm(1.0, np.array([1.0, 2, 3])),))
    assert v.entry(1, 2) == 6.0


def test_entry_rejects_diagonal_and_range():
    v = PairVector.constant_vector(4, 1.0)
    with pytest.raises(IndexError):
        v.entry(1, 1)
    with pytest.raises(IndexError):
        v.entry(0, 4)


def test_rejects_nonfinite():
    with pytest.raises(ValueError):
        PairVector.from_pairs(3, {(0, 1): float("nan")})
    with pytest.raises(ValueError):
        PairVector.constant_vector(3, float("inf"))


def test_inner_all_ones():
    one = PairVector.constant_vector(4, 1.0)
    assert inner(one, one) == 6.0  # N ones


def test_inner_triangle_with_ones():
    tri = PairVector.from_pairs(3, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})
    one = PairVector.constant_vector(3, 1.0)
    assert inner(tri, one) == 3.0


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        inner(PairVector.constant_vector(3, 1.0), PairVector.constant_vector(4, 1.0))


def test_inner_matches_dense_reference():
    rng = np.random.default_rng(7)
    for _ in range(30):
        x = random_sl_vector(rng, 20)
        y = random_sl_vector(rng, 20)
        ref = float(dense_of(x) @ dense_of(y))
        got = inner(x, y)
        assert got == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_inner_of_a_vector_with_itself_makes_one_sparse_smooth_pass(monkeypatch):
    """inner(q, q) adds the one sparse-smooth product twice: the same bits as
    inner with a distinct twin of q, which computes it twice."""
    from pairsphere import geometry

    rng = np.random.default_rng(11)
    passes = []
    dot = geometry._sparse_dot_smooth
    monkeypatch.setattr(geometry, "_sparse_dot_smooth", lambda x, y: passes.append(1) or dot(x, y))
    for _ in range(30):
        q = random_sl_vector(rng, int(rng.integers(2, 40)), sparse_density=rng.uniform(0.05, 0.6))
        twin = PairVector(q.n, q.pair_ids, q.values, q.terms, q.constant)
        passes.clear()
        got = inner(q, q)
        assert len(passes) == 1
        assert got.hex() == inner(q, twin).hex() and len(passes) == 3


def test_angular_distance_identity_and_poles():
    rng = np.random.default_rng(3)
    x = random_sl_vector(rng, 8)
    assert angular_distance(x, x) == pytest.approx(0.0, abs=1e-7)
    one = PairVector.constant_vector(5, 1.0)
    minus = PairVector.constant_vector(5, -1.0)
    assert angular_distance(one, minus) == pytest.approx(math.pi)


def test_angular_distance_partition_example():
    C = Partition(np.array([0, 0, 1]))
    T = Partition(np.array([0, 1, 1]))
    d = angular_distance(as_pair_vector(C), as_pair_vector(T))
    assert d == pytest.approx(math.acos(-1.0 / 3.0), abs=1e-12)


def test_angular_distance_zero_norm_errors():
    zero = PairVector.constant_vector(4, 0.0)
    with pytest.raises(ValueError):
        angular_distance(zero, PairVector.constant_vector(4, 1.0))


def test_latitude_trivial_partitions():
    n = 6
    singles = as_pair_vector(Partition(np.arange(n)))
    lumped = as_pair_vector(Partition(np.zeros(n, dtype=int)))
    assert latitude(singles) == pytest.approx(0.0, abs=1e-7)
    assert latitude(lumped) == pytest.approx(math.pi, abs=1e-7)


def test_latitude_two_pairs_formula():
    b = as_pair_vector(Partition(np.array([0, 0, 1, 1])))
    assert latitude(b) == pytest.approx(math.acos(1.0 / 3.0), abs=1e-12)
    # latitude = arccos(-mean * sqrt(N) / |x|) on a general vector
    x = random_sl_vector(np.random.default_rng(47), 10)
    d = dense_of(x)
    assert latitude(x) == pytest.approx(math.acos(-d.mean() * math.sqrt(d.size) / np.linalg.norm(d)), abs=1e-12)


def test_correlation_distance_self_and_meridian():
    rng = np.random.default_rng(5)
    x = random_sl_vector(rng, 10)
    assert correlation_distance(x, x) == pytest.approx(0.0, abs=1e-6)
    for lam in (0.3, math.pi / 2, 2.5):
        p = parallel_projection(x, lam)
        assert correlation_distance(x, p) == pytest.approx(0.0, abs=1e-6)


def test_correlation_distance_matches_dense_pearson():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m1 = nontrivial_membership(rng, 12)
        m2 = nontrivial_membership(rng, 12)
        x = as_pair_vector(Partition(m1))
        y = as_pair_vector(Partition(m2))
        dx, dy = dense_partition_vector(m1), dense_partition_vector(m2)
        ref = math.acos(np.clip(np.corrcoef(dx, dy)[0, 1], -1, 1))
        assert correlation_distance(x, y) == pytest.approx(ref, abs=1e-10)


def test_correlation_distance_pole_errors():
    one = PairVector.constant_vector(5, 1.0)
    x = random_sl_vector(np.random.default_rng(0), 5)
    with pytest.raises(DegenerateVectorError):
        correlation_distance(one, x)


def test_spherical_angle_reduces_to_correlation_distance():
    rng = np.random.default_rng(13)
    minus = PairVector.constant_vector(10, -1.0)
    for _ in range(10):
        x = random_sl_vector(rng, 10)
        y = random_sl_vector(rng, 10)
        assert spherical_angle(x, minus, y) == pytest.approx(
            correlation_distance(x, y), abs=1e-12
        )


def test_spherical_angle_zero_for_equal_points():
    rng = np.random.default_rng(17)
    x = random_sl_vector(rng, 8)
    r = random_sl_vector(rng, 8)
    assert spherical_angle(x, r, x) == pytest.approx(0.0, abs=1e-6)


def test_spherical_angle_matches_dense():
    rng = np.random.default_rng(19)
    for _ in range(10):
        ms = [nontrivial_membership(rng, 10) for _ in range(3)]
        vecs = [as_pair_vector(Partition(m)) for m in ms]
        dense = [dense_partition_vector(m) for m in ms]

        def d(a, b):
            return math.acos(
                np.clip(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)), -1, 1)
            )

        g, a, b = d(dense[0], dense[2]), d(dense[0], dense[1]), d(dense[2], dense[1])
        if min(math.sin(a), math.sin(b)) < 1e-6:
            continue
        ref = math.acos(np.clip((math.cos(g) - math.cos(a) * math.cos(b)) / (math.sin(a) * math.sin(b)), -1, 1))
        assert spherical_angle(vecs[0], vecs[1], vecs[2]) == pytest.approx(ref, abs=1e-10)


def test_spherical_angle_coincident_errors():
    rng = np.random.default_rng(23)
    x = random_sl_vector(rng, 6)
    with pytest.raises(DegenerateVectorError):
        spherical_angle(x, x, random_sl_vector(rng, 6))


def test_parallel_projection_fixed_point():
    rng = np.random.default_rng(29)
    x = random_sl_vector(rng, 9)
    p = parallel_projection(x, latitude(x))
    assert angular_distance(x, p) == pytest.approx(0.0, abs=1e-6)


def test_parallel_projection_equator():
    rng = np.random.default_rng(31)
    x = random_sl_vector(rng, 9)
    p = parallel_projection(x, math.pi / 2)
    assert latitude(p) == pytest.approx(math.pi / 2, abs=1e-12)
    assert p.total() / p.N == pytest.approx(0.0, abs=1e-12)


def test_parallel_projection_path_graph():
    from pairsphere.graph import Graph, adjacency_vector

    G = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    v = adjacency_vector(G)
    p = parallel_projection(v, 1.0)
    assert latitude(p) == pytest.approx(1.0, abs=1e-12)
    # a zero angle is only resolvable to sqrt(ulp); check its cosine instead
    assert math.cos(correlation_distance(p, v)) >= 1.0 - 1e-12


def test_parallel_projection_idempotent():
    rng = np.random.default_rng(37)
    x = random_sl_vector(rng, 7)
    p1 = parallel_projection(x, 0.8)
    p2 = parallel_projection(p1, 0.8)
    assert angular_distance(p1, p2) == pytest.approx(0.0, abs=1e-7)


def test_parallel_projection_rejects_poles_and_axis():
    rng = np.random.default_rng(41)
    x = random_sl_vector(rng, 6)
    with pytest.raises(ValueError):
        parallel_projection(x, 0.0)
    with pytest.raises(ValueError):
        parallel_projection(x, math.pi)
    with pytest.raises(DegenerateVectorError):
        parallel_projection(PairVector.constant_vector(6, 2.0), 1.0)


def test_parallel_projection_matches_dense():
    rng = np.random.default_rng(43)
    for _ in range(10):
        x = random_sl_vector(rng, 15)
        lam = rng.uniform(0.1, math.pi - 0.1)
        d = dense_of(x)
        N = d.size
        centered = d - d.mean()
        ref = math.sin(lam) * math.sqrt(N) / np.linalg.norm(centered) * centered - math.cos(lam)
        got = dense_of(parallel_projection(x, lam))
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9)


def test_combine_merges_sparse_and_terms():
    a = PairVector.from_pairs(4, {(0, 1): 1.0, (2, 3): 2.0})
    b = PairVector.from_pairs(4, {(0, 1): -1.0}, (LowRankTerm(2.0, np.ones(4)),), 0.5)
    c = combine([(1.0, a), (3.0, b)])
    assert c.entry(0, 1) == pytest.approx(1.0 - 3.0 + 6.0 + 1.5)
    assert c.entry(2, 3) == pytest.approx(2.0 + 6.0 + 1.5)


@pytest.mark.parametrize("supports", ["overlapping", "disjoint", "empty", "one-empty"])
def test_combine_unions_the_supports_as_np_unique_does(supports):
    """combine's linear-time union of the parts' sorted supports gives the
    ids and the value bytes of the np.unique form (values summed by
    np.bincount in the parts' order)."""
    rng = np.random.default_rng(26)
    for _ in range(20):
        n = int(rng.integers(8, 60))
        N = n * (n - 1) // 2
        owner = rng.integers(0, 3, N)  # the part of each pair, for disjoint supports
        parts = []
        for t in range(3):
            keep = rng.random(N) < (0.0 if supports == "empty" or (supports == "one-empty" and t == 1) else 0.3)
            ids = np.flatnonzero(keep & (owner == t) if supports == "disjoint" else keep)
            parts.append((float(rng.normal()), PairVector(n, ids, rng.normal(size=ids.size))))
        ids = np.concatenate([v.pair_ids for _, v in parts])
        uniq, inv = np.unique(ids, return_inverse=True)
        vals = np.bincount(inv, weights=np.concatenate([c * v.values for c, v in parts]), minlength=uniq.size)
        got = combine(parts)
        assert got.pair_ids.tobytes() == uniq.astype(np.int64).tobytes() and got.values.tobytes() == vals.tobytes()
        if supports == "overlapping":
            assert uniq.size < ids.size
        elif supports == "disjoint":
            assert uniq.size == ids.size


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=3, max_value=12), st.floats(min_value=0.05, max_value=20.0), st.integers())
@example(n=3, alpha=1.19921875, seed=1979869)  # two constant vectors of opposite sign: theta = pi
def test_scale_invariance(n, alpha, seed):
    rng = np.random.default_rng(abs(seed) % 2**32)
    x = random_sl_vector(rng, n)
    y = random_sl_vector(rng, n)
    if x.norm() == 0 or y.norm() == 0:
        return
    scaled, theta = angular_distance(x.scaled(alpha), y), angular_distance(x, y)
    if math.sin(theta) >= 1e-6:
        assert scaled == pytest.approx(theta, abs=1e-9)
    else:  # acos has condition number 1/sin(theta): near 0 and pi only the cosine is accurate
        assert math.cos(scaled) == pytest.approx(math.cos(theta), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers())
def test_law_of_cosines_consistency(seed):
    rng = np.random.default_rng(abs(seed) % 2**32)
    x = random_sl_vector(rng, 10)
    y = random_sl_vector(rng, 10)
    try:
        dcc = correlation_distance(x, y)
    except DegenerateVectorError:
        return
    lx, ly = latitude(x), latitude(y)
    lhs = math.cos(angular_distance(x, y))
    rhs = math.cos(lx) * math.cos(ly) + math.cos(dcc) * math.sin(lx) * math.sin(ly)
    assert lhs == pytest.approx(rhs, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers())
def test_triangle_inequality(seed):
    rng = np.random.default_rng(abs(seed) % 2**32)
    x, y, z = (random_sl_vector(rng, 8) for _ in range(3))
    if min(x.norm(), y.norm(), z.norm()) == 0:
        return
    assert angular_distance(x, z) <= angular_distance(x, y) + angular_distance(y, z) + 1e-12


# -- the compiled pair kernels and the shared support layout ---------------------

SMOOTH_CASES = {
    # name: (n, pair ids, term count, constant)
    "empty-support": (5, [], 2, 0.5),
    "n=1": (1, [], 3, -1.0),
    "n=2": (2, [0], 3, 0.25),
    "last-row": (7, [20], 2, 0.0),  # id 20 = (5, 6)
    "K=0-with-constant": (6, [0, 4, 9, 14], 0, -0.3),
    "K>=3": (40, None, 4, 1.7),
}


@pytest.mark.parametrize("case", SMOOTH_CASES)
def test_smooth_kernel_is_the_bits_of_numpy(case):
    """_kernel._smooth_at gives the bytes of numpy's constant plus
    `coef * factor[ii] * factor[jj]`, added term by term, at every pair."""
    rng = np.random.default_rng(list(SMOOTH_CASES).index(case))
    n, ids, K, c = SMOOTH_CASES[case]
    if ids is None:
        ids = np.flatnonzero(rng.random(n * (n - 1) // 2) < 0.4)
    ids = np.asarray(ids, dtype=np.int64)
    coefs = rng.normal(size=K) * 10.0 ** rng.uniform(-3, 3, size=K)
    factors = rng.normal(size=(K, n)) * 10.0 ** rng.uniform(-3, 3, size=(K, n))
    ii, jj = pair_members(ids, n)
    want = np.full(ids.size, c)
    for coef, f in zip(coefs.tolist(), factors):
        want += coef * f[ii] * f[jj]
    got = _smooth_at(n, ids, coefs, factors, c)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_vectors_on_one_support_share_one_layout():
    """A vector's scaled copies and parallel projections share its support
    layout, whichever of them builds it, and it is the layout of _rows."""
    rng = np.random.default_rng(50)
    q = random_sl_vector(rng, 30, sparse_density=0.3)
    copies = [q.scaled(2.0), parallel_projection(q, 1.1), parallel_projection(q.scaled(-0.5), 2.0)]
    layout = copies[2].support_rows()
    assert all(v.support_rows() is layout for v in [q, *copies])
    for got, want in zip(layout, _rows(q.n, q.pair_ids)):
        assert got.tobytes() == want.tobytes()
    fresh = PairVector(q.n, q.pair_ids, q.values, q.terms, q.constant)
    assert fresh.support_rows() is not layout  # another vector made on the same ids builds its own


def test_an_overflowing_scaled_vector_still_raises():
    """A copy on the same support skips the check of the shared ids, but
    not that of its own values, terms and constant."""
    q = PairVector.from_pairs(4, {(0, 1): 1e300, (2, 3): 1.0}, (LowRankTerm(1.0, np.ones(4)),), 0.5)
    for a in (1e10, np.inf):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite sparse value"):
            q.scaled(a)
    r = PairVector(4, np.empty(0, np.int64), np.empty(0), (LowRankTerm(1e300, np.ones(4)),))
    with pytest.raises(ValueError, match="non-finite rank-one term"):
        r.scaled(1e10)
    with pytest.raises(ValueError, match="non-finite constant"):
        PairVector.constant_vector(4, 1e300).scaled(1e10)
