"""Hot numeric kernel for the momentum-subset spectral sums.

Every spectral correlator reduces to a weighted sum of determinants over
the C(M+1, N) momentum subsets of a geometry.  They are taken by batched
`np.linalg.det` calls on (B, N, N) stacks of at most SUBSET_BLOCK subsets,
so peak memory does not grow with the subset count.
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


def stacked_dets(count: int, build) -> np.ndarray:
    """Determinants of `count` matrices; `build(rows)` returns the (B, N, N)
    stack for the subsets in the slice `rows`."""
    out = np.empty(count, dtype=complex)
    for start in range(0, count, SUBSET_BLOCK):
        rows = slice(start, min(start + SUBSET_BLOCK, count))
        out[rows] = np.linalg.det(build(rows))
    return out

