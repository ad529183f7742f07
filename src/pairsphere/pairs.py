"""Flat indexing of unordered node pairs.

Pairs (i, j) with 0 <= i < j < n are enumerated in lexicographic order and
addressed by a single integer id in [0, n*(n-1)/2). All conversions are
vectorized; ids fit in int64 for any n reachable in memory.
"""

from __future__ import annotations

import numpy as np


def num_pairs(n: int) -> int:
    """Number of unordered pairs of an n-element set."""
    return n * (n - 1) // 2


def pair_id(i, j, n: int):
    """Flat id of pairs (i, j); arguments may be scalars or arrays with i < j."""
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def pair_members(ids, n: int):
    """Invert pair_id: return (i, j) arrays for flat pair ids, in any order."""
    ids = np.asarray(ids, dtype=np.int64)
    rows = np.arange(n - 1, dtype=np.int64)
    row_start = pair_id(rows, rows + 1, n)
    i = np.searchsorted(row_start, ids, side="right") - 1
    return i, ids - row_start[i] + i + 1
