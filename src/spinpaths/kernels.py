"""The two numpy kernels: `subset_rows`, the N-subsets of 0..top as one
array (the sector basis, the walker DP's configurations), and
`stacked_dets`, the alternants of `schur.schur_values` by `np.linalg.det`
on stacks of at most SUBSET_BLOCK minors of one table, so peak memory
does not grow with their count.  No correlator sums over momentum subsets.
"""

from __future__ import annotations

from itertools import chain
from math import comb

import numpy as np

from .partitions import descending_subsets

SUBSET_BLOCK = 128


def subset_rows(top: int, n: int) -> np.ndarray:
    """`descending_subsets(top, n)` as one (C(top+1, n), n) int64 array."""
    count = comb(top + 1, n)
    return np.fromiter(chain.from_iterable(descending_subsets(top, n)),
                       dtype=np.int64, count=count * n).reshape(count, n)


def stacked_dets(index: np.ndarray, build) -> np.ndarray:
    """Determinants of one matrix per row of `index`: `build(rows)` gathers
    the (B, N, N) stack for `rows`, a slice of at most SUBSET_BLOCK rows."""
    out = np.empty(len(index), dtype=complex)
    for start in range(0, len(index), SUBSET_BLOCK):
        rows = index[start:start + SUBSET_BLOCK]
        out[start:start + len(rows)] = np.linalg.det(build(rows))
    return out
