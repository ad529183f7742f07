import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pairsphere.clustering import (
    DegeneratePartitionError,
    Partition,
    as_pair_vector,
    corclust_agreement,
    corclust_disagreement,
    pair_counts,
    partition_latitude,
    pearson_correlation,
    query_alignment,
    query_angular_distance,
    query_correlation_distance,
    read_membership,
    relative_granularity_error,
    write_membership,
)
from pairsphere._kernel import _same_label
from pairsphere.generators import ring_of_cliques
from pairsphere.geometry import correlation_distance, inner, latitude
from pairsphere.pairs import pair_members

from helpers import (
    all_partitions,
    dense_of,
    dense_partition_vector,
    nontrivial_membership,
    random_membership,
    random_sl_vector,
)


def test_canonical_labels():
    C = Partition(np.array([5, 5, 2, 9, 2]))
    assert C.membership.tolist() == [0, 0, 1, 2, 1]
    assert C.k == 3
    assert C.sizes.tolist() == [2, 2, 1]


def _sorted_canonical(labels):
    """First-appearance labels through np.unique: the sort path."""
    uniq, first_idx, inv = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[np.argsort(first_idx, kind="stable")] = np.arange(uniq.size)
    return rank[inv.reshape(-1)].astype(np.int64)


def test_canonical_labels_match_the_sort_path():
    """Partition's labels are the arrays of the sort path, dtype included:
    integer labels in 0..n-1 (with gaps and unused labels, of several
    dtypes) take the O(n) path, and negative, large and string labels
    np.unique."""
    rng = np.random.default_rng(14)
    cases = [np.array([0]), np.array([3, 3, 3, 3]), np.arange(7)[::-1], np.array([5, 5, 2, 9, 2, -1])]
    for _ in range(60):
        n = int(rng.integers(1, 300))
        labels = rng.integers(0, int(rng.integers(1, n + 1)), n)  # gaps: labels that no node carries
        cases += [labels, labels.astype(np.uint16), labels.astype(np.int32), labels - int(rng.integers(0, 3))]
        cases += [labels * int(rng.integers(2, 10**12)), np.array([f"c{x}" for x in labels])]
    for labels in cases:
        got = Partition(labels).membership
        want = _sorted_canonical(labels)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_from_communities_and_equality():
    a = Partition.from_communities(4, [[0, 1], [2, 3]])
    b = Partition(np.array([7, 7, 1, 1]))
    assert a == b
    with pytest.raises(ValueError):
        Partition.from_communities(4, [[0, 1], [1, 2, 3]])
    with pytest.raises(ValueError):
        Partition.from_communities(4, [[0, 1]])
    for bad in (-1, 3):  # a node outside 0..n-1 is named, not wrapped or an IndexError
        with pytest.raises(ValueError, match=rf"node {bad} is outside 0\.\.2"):
            Partition.from_communities(3, [[0, 1], [bad]])


def test_intra_pairs_identity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        C = Partition(random_membership(rng, 30))
        sq = int((C.sizes.astype(object) ** 2).sum())
        assert C.intra_pairs() == (sq - C.n) // 2


def test_pair_vector_entries():
    b = as_pair_vector(Partition(np.array([0, 0, 1])))
    assert (b.entry(0, 1), b.entry(0, 2), b.entry(1, 2)) == (1.0, -1.0, -1.0)
    singles = as_pair_vector(Partition.singletons(5))
    assert all(singles.entry(i, j) == -1.0 for i in range(5) for j in range(i + 1, 5))
    lumped = as_pair_vector(Partition.one_cluster(5))
    assert all(lumped.entry(i, j) == 1.0 for i in range(5) for j in range(i + 1, 5))


def test_pair_vector_norm_is_sqrt_N():
    rng = np.random.default_rng(2)
    for _ in range(10):
        C = Partition(random_membership(rng, 25))
        assert as_pair_vector(C).norm() == pytest.approx(math.sqrt(C.N), rel=1e-12)


def test_pair_counts_hand_example():
    C = Partition.from_communities(5, [[0, 1, 2], [3, 4]])
    T = Partition.from_communities(5, [[0, 1], [2, 3, 4]])
    pc = pair_counts(C, T)
    assert (pc.m_c, pc.m_t, pc.m_ct, pc.N) == (4, 4, 2, 10)


def test_pair_counts_trivial_cases():
    C = Partition(np.array([0, 1, 0, 1]))
    same = pair_counts(C, C)
    assert same.m_ct == same.m_c == same.m_t
    singles = Partition.singletons(4)
    pc = pair_counts(singles, C)
    assert pc.m_c == 0 and pc.m_ct == 0


def test_pair_counts_against_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(15):
        mc = random_membership(rng, 12)
        mt = random_membership(rng, 12)
        m_ct = sum(
            1
            for i in range(12)
            for j in range(i + 1, 12)
            if mc[i] == mc[j] and mt[i] == mt[j]
        )
        assert pair_counts(Partition(mc), Partition(mt)).m_ct == m_ct


def test_pair_counts_m_ct_matches_the_contingency_table():
    """m_ct from the sorted joint labels equals the sum over every cell of
    the dense k_C x k_T contingency table (the zero cells add nothing)."""
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(1, 60))
        C = Partition(rng.integers(0, int(rng.integers(1, n + 1)), n))
        T = Partition(rng.integers(0, int(rng.integers(1, n + 1)), n))
        table = np.bincount(C.membership * T.k + T.membership, minlength=C.k * T.k)
        assert pair_counts(C, T).m_ct == int((table * (table - 1) // 2).sum())


def test_pair_counts_memory_is_linear_in_n():
    """Two partitions of n=10,000 with 5,000 labels each: a dense contingency
    table would hold 2.5e7 cells (200 MB of int64); the counts stay within
    2 MB of traced memory."""
    rng = np.random.default_rng(5)
    labels = np.arange(10_000) % 5_000
    C, T = Partition(rng.permutation(labels)), Partition(rng.permutation(labels))
    assert C.k == T.k == 5_000
    tracemalloc.start()
    try:
        pc = pair_counts(C, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert pc.m_c == pc.m_t == 5_000


def test_pair_counts_exact_at_scale():
    """One cluster of 200,000 nodes: every count is N = 19,999,900,000 exactly,
    a Python int (past 2^32, where a float32 or int32 sum would be wrong)."""
    C = Partition.one_cluster(200_000)
    pc = pair_counts(C, C)
    assert C.intra_pairs() == C.N == 200_000 * 199_999 // 2
    assert (pc.m_c, pc.m_t, pc.m_ct, pc.N) == (C.N,) * 4
    assert all(type(m) is int for m in (pc.m_c, pc.m_t, pc.m_ct))


def test_pearson_plug_in_example():
    C = Partition.from_communities(5, [[0, 1, 2], [3, 4]])
    T = Partition.from_communities(5, [[0, 1], [2, 3, 4]])
    assert pearson_correlation(C, T) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_pearson_self_symmetry_and_errors():
    rng = np.random.default_rng(4)
    C = Partition(nontrivial_membership(rng, 15))
    T = Partition(nontrivial_membership(rng, 15))
    assert pearson_correlation(C, C) == pytest.approx(1.0)
    assert pearson_correlation(C, T) == pytest.approx(pearson_correlation(T, C))
    with pytest.raises(DegeneratePartitionError):
        pearson_correlation(Partition.singletons(5), C := Partition(np.array([0, 0, 1, 1, 2])))
    with pytest.raises(DegeneratePartitionError):
        pearson_correlation(C, Partition.one_cluster(5))


def test_pearson_identical_partitions_exactly_one():
    _, T = ring_of_cliques(25, 5)
    assert pearson_correlation(T, T) == 1.0


def test_pearson_matches_meridian_angle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        C = Partition(nontrivial_membership(rng, 20))
        T = Partition(nontrivial_membership(rng, 20))
        via_geometry = math.cos(correlation_distance(as_pair_vector(C), as_pair_vector(T)))
        assert pearson_correlation(C, T) == pytest.approx(via_geometry, abs=1e-10)


def test_partition_latitude_closed_form():
    rng = np.random.default_rng(6)
    for _ in range(15):
        C = Partition(random_membership(rng, 18))
        assert partition_latitude(C) == pytest.approx(
            latitude(as_pair_vector(C)), abs=1e-12
        )


def test_granularity_error_examples():
    T = Partition(np.array([0, 0, 1, 1]))
    assert relative_granularity_error(T, T) == 0.0
    assert relative_granularity_error(Partition.singletons(4), T) == -1.0
    coarse = Partition.one_cluster(4)
    assert relative_granularity_error(coarse, T) == pytest.approx(
        math.pi / math.acos(1.0 / 3.0) - 1.0
    )
    with pytest.raises(DegeneratePartitionError):
        relative_granularity_error(T, Partition.singletons(4))


def test_corclust_agreement_examples():
    C = Partition.from_communities(3, [[0, 1], [2]])
    assert corclust_agreement(C, {}, {}) == 0.0
    w_plus = {(0, 1): 1.0}
    w_minus = {(1, 2): 1.0}
    assert corclust_agreement(C, w_plus, w_minus) == 2.0
    assert corclust_disagreement(C, w_plus, w_minus) == 0.0


def test_corclust_ranking_matches_query_alignment():
    # all 5 partitions of 3 nodes, ranked by agreement vs by inner product
    from pairsphere.queries import correlation_clustering_query

    w_plus = {(0, 1): 2.0, (1, 2): 0.5}
    w_minus = {(0, 2): 1.5, (1, 2): 1.0}
    q = correlation_clustering_query(w_plus, w_minus, 3)
    parts = [Partition(np.array(m)) for m in all_partitions(3)]
    agree = [corclust_agreement(C, w_plus, w_minus) for C in parts]
    align = [query_alignment(q, C) for C in parts]
    assert np.argsort(agree).tolist() == np.argsort(align).tolist()


def test_query_alignment_matches_dense():
    rng = np.random.default_rng(7)
    for _ in range(20):
        q = random_sl_vector(rng, 14)
        C = Partition(random_membership(rng, 14))
        ref = float(dense_of(q) @ dense_partition_vector(C.membership))
        assert query_alignment(q, C) == pytest.approx(ref, rel=1e-9, abs=1e-9)
        assert query_alignment(q, C) == pytest.approx(
            inner(q, as_pair_vector(C)), rel=1e-9, abs=1e-9
        )


def test_query_angular_distance_consistency():
    rng = np.random.default_rng(8)
    q = random_sl_vector(rng, 12)
    C = Partition(random_membership(rng, 12))
    from pairsphere.geometry import angular_distance

    assert query_angular_distance(q, C) == pytest.approx(
        angular_distance(q, as_pair_vector(C)), abs=1e-10
    )


def test_query_correlation_distance_matches_pair_vector_route():
    rng = np.random.default_rng(11)
    for _ in range(20):
        q = random_sl_vector(rng, 14)
        C = Partition(nontrivial_membership(rng, 14))
        assert query_correlation_distance(q, C) == pytest.approx(
            correlation_distance(q, as_pair_vector(C)), abs=1e-10
        )


@settings(max_examples=30, deadline=None)
@given(st.integers())
def test_property_latitude_norm_counts(seed):
    rng = np.random.default_rng(abs(seed) % 2**32)
    n = int(rng.integers(3, 30))
    C = Partition(random_membership(rng, n))
    b = as_pair_vector(C)
    assert b.norm() == pytest.approx(math.sqrt(C.N), rel=1e-12)
    assert partition_latitude(C) == pytest.approx(
        math.acos(max(-1.0, min(1.0, 1.0 - 2.0 * C.intra_pairs() / C.N))), abs=1e-12
    )


def test_membership_file_roundtrip(tmp_path):
    C = Partition(np.array([3, 1, 3, 0, 1]))
    path = tmp_path / "memb.txt"
    write_membership(path, C)
    back = read_membership(path)
    assert back == C
    # arbitrary label strings are accepted
    path2 = tmp_path / "memb2.txt"
    path2.write_text("0 red\n1 blue\n2 red\n")
    got = read_membership(path2)
    assert got.membership.tolist() == [0, 1, 0]


def test_membership_file_missing_node(tmp_path):
    path = tmp_path / "gap.txt"
    path.write_text("0 a\n2 b\n")
    with pytest.raises(ValueError, match="node 1"):
        read_membership(path)


def test_membership_file_validates_lines(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 a extra\n")
    with pytest.raises(ValueError, match="expected"):
        read_membership(path)


def test_membership_file_text_is_pinned(tmp_path):
    path = tmp_path / "memb.txt"
    C = Partition(np.array([5, 5, 2, 7]))
    write_membership(path, C)
    assert path.read_bytes() == b"0 0\n1 0\n2 1\n3 2\n"
    write_membership(path, C, {"d": 3, "a": 0, "c": 2, "b": 1})
    assert path.read_bytes() == b"a 0\nb 0\nc 1\nd 2\n"


def test_membership_file_rejects_an_id_map_of_another_size(tmp_path):
    path = tmp_path / "memb.txt"
    with pytest.raises(ValueError, match="id_map holds 2 node ids for a partition of 3 nodes"):
        write_membership(path, Partition(np.array([0, 1, 0])), {"a": 0, "b": 1})
    assert not path.exists()


@pytest.mark.parametrize(
    "text, labels",
    [
        ("# header\n0 a  # note\n1 b\n", [0, 1]),
        ("0 a#1\n1 a\n2 a#1 # a#1 is a label\n", [0, 1, 0]),
    ],
    ids=["comments", "hash-inside-label"],
)
def test_membership_file_comment_rule(tmp_path, text, labels):
    """A token that starts with `#` begins a comment; a `#` inside a token is part of it."""
    path = tmp_path / "memb.txt"
    path.write_text(text)
    assert read_membership(path).membership.tolist() == labels


@pytest.mark.parametrize(
    "text, kwargs, message",
    [
        ("0 a\n1 #b\n", {}, r"memb.txt:2: expected '<node> <label>'"),
        ("0 a\nx b\n", {}, r"memb.txt:2: non-integer node id 'x'"),
        ("0 a\nc b\n", {"id_map": {"0": 0, "1": 1}}, r"memb.txt:2: unknown node id 'c'"),
        ("0 a\n0 b\n", {}, "duplicate assignment for node 0"),
        ("0 a\n2 b\n", {"n": 3}, "missing membership line for node 1"),
        ("0 a\n1 b\n", {"n": 1}, "node id 1 out of range for n=1"),
        ("# nothing\n\n", {}, "empty membership file"),
    ],
    ids=["width", "non-integer", "unknown", "duplicate", "missing", "out-of-range", "empty"],
)
def test_membership_file_errors(tmp_path, text, kwargs, message):
    path = tmp_path / "memb.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_membership(path, **kwargs)


@pytest.mark.parametrize(
    "n, ids",
    [(5, []), (1, []), (2, [0]), (7, [20]), (7, [0, 5, 6, 20]), (60, None)],
    ids=["empty-support", "n=1", "n=2", "last-row", "row-ends", "random"],
)
def test_same_label_kernel_is_numpys_mask(n, ids):
    """_kernel._same_label marks the pairs whose ends share a label, as
    numpy's memb[ii] == memb[jj] does, on singletons, one cluster and
    random memberships."""
    rng = np.random.default_rng(n)
    if ids is None:
        ids = np.flatnonzero(rng.random(n * (n - 1) // 2) < 0.3)
    ids = np.asarray(ids, dtype=np.int64)
    ii, jj = pair_members(ids, n)
    for memb in (np.arange(n), np.zeros(n, dtype=np.int64), rng.integers(0, max(1, n // 4), size=n)):
        got = _same_label(n, ids, memb)
        assert got.dtype == bool and np.array_equal(got, memb[ii] == memb[jj])
