import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pairsphere.pairs import num_pairs, pair_id, pair_members


@pytest.mark.parametrize("n", [2, 3, 5, 17, 64])
def test_roundtrip_enumeration(n):
    expected = list(itertools.combinations(range(n), 2))
    ids = np.arange(num_pairs(n))
    ii, jj = pair_members(ids, n)
    assert list(zip(ii.tolist(), jj.tolist())) == expected
    back = pair_id(ii, jj, n)
    assert np.array_equal(back, ids)
    # unsorted ids, and the last id of every row (where a row-border slip shows)
    rows = np.arange(n - 1)
    for extra in (np.random.default_rng(n).permutation(ids), pair_id(rows, np.full(n - 1, n - 1), n)):
        ii, jj = pair_members(extra, n)
        assert np.all(ii < jj)
        assert np.array_equal(pair_id(ii, jj, n), extra)


@given(st.integers(min_value=2, max_value=3000), st.data())
def test_roundtrip_random(n, data):
    i = data.draw(st.integers(min_value=0, max_value=n - 2))
    j = data.draw(st.integers(min_value=i + 1, max_value=n - 1))
    pid = int(pair_id(i, j, n))
    assert 0 <= pid < num_pairs(n)
    ii, jj = pair_members(np.array([pid]), n)
    assert (int(ii[0]), int(jj[0])) == (i, j)


def test_large_ids_stay_exact():
    n = 2_000_000
    i, j = n - 2, n - 1
    pid = int(pair_id(i, j, n))
    assert pid == num_pairs(n) - 1
    ii, jj = pair_members(np.array([pid, 0, 12345]), n)
    assert (ii[0], jj[0]) == (i, j)
    assert (ii[1], jj[1]) == (0, 1)
