"""Hot numeric kernel for the momentum-subset spectral sums.

Every spectral correlator reduces to a weighted sum of determinants over
the C(M+1, N) momentum subsets of a geometry.  Each matrix entry is a
function of one of a few bases (a grid point or a Schur parameter) and
one exponent, so `power_stacks` takes each such value once, in a small
table, and gathers the matrices from it.  The determinants are taken by
batched `np.linalg.det` calls on (B, N, N) stacks of at most SUBSET_BLOCK
subsets, so peak memory does not grow with the subset count.
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


def power_stacks(bases: np.ndarray, exponents: np.ndarray, index: np.ndarray,
                 power=np.power):
    """A `stacked_dets(index, ...)` builder: rows (B, N) of the (S, N) indices
    into `bases` give the C-ordered (B, E, N) stack
    power(bases[rows[b, a]], exponents[e]).

    When `index` has more entries than there are bases, the (len(bases), E)
    table of every power is built once and only gathered from; with N >= 2
    the sector cap keeps a momentum grid under 318 points.  Otherwise (at
    N = 1 each grid point is one subset) each block's powers are taken
    directly, so the memory stays one block's.  Either way each entry is
    the same scalar operation on the same operands.
    """
    if len(bases) >= index.size:
        return lambda rows: power(bases[rows][:, None, :], exponents[:, None])
    table = power(bases[:, None], exponents)
    cols = np.arange(len(exponents))[:, None]
    return lambda rows: table[rows[:, None, :], cols]


def stacked_dets(index: np.ndarray, build) -> np.ndarray:
    """Determinants of one matrix per row of `index`: `build(rows)` returns
    the (B, N, N) stack for `rows`, a slice of at most SUBSET_BLOCK rows."""
    out = np.empty(len(index), dtype=complex)
    for start in range(0, len(index), SUBSET_BLOCK):
        rows = index[start:start + SUBSET_BLOCK]
        out[start:start + len(rows)] = np.linalg.det(build(rows))
    return out
