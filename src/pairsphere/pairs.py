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
    """Invert pair_id: return (i, j) arrays for flat pair ids."""
    ids = np.asarray(ids, dtype=np.int64)
    # first guess from the quadratic formula, then fix rounding at row borders
    i = ((2 * n - 1) - np.sqrt((2 * n - 1) ** 2 - 8.0 * ids)) // 2
    i = i.astype(np.int64)
    i = np.clip(i, 0, n - 2)
    row_start = i * (2 * n - i - 1) // 2
    too_far = row_start > ids
    while np.any(too_far):
        i[too_far] -= 1
        row_start = i * (2 * n - i - 1) // 2
        too_far = row_start > ids
    row_end = (i + 1) * (2 * n - i - 2) // 2
    too_near = row_end <= ids
    while np.any(too_near):
        i[too_near] += 1
        row_end = (i + 1) * (2 * n - i - 2) // 2
        too_near = row_end <= ids
    row_start = i * (2 * n - i - 1) // 2
    j = ids - row_start + i + 1
    return i, j
