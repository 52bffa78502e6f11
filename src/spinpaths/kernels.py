"""Hot numeric kernel for the momentum-subset spectral sums.

Every spectral correlator reduces to a weighted sum of determinants over
the C(M+1, N) momentum subsets of a geometry.  They are taken by batched
`np.linalg.det` calls on (B, N, N) stacks of at most SUBSET_BLOCK subsets,
so peak memory does not grow with the subset count.
"""

from __future__ import annotations

import numpy as np

SUBSET_BLOCK = 128


def stacked_dets(count: int, build) -> np.ndarray:
    """Determinants of `count` matrices; `build(rows)` returns the (B, N, N)
    stack for the subsets in the slice `rows`."""
    out = np.empty(count, dtype=complex)
    for start in range(0, count, SUBSET_BLOCK):
        rows = slice(start, min(start + SUBSET_BLOCK, count))
        out[rows] = np.linalg.det(build(rows))
    return out


def det_product_sum(phis: np.ndarray, mu_left, mu_right, weights) -> complex:
    """sum_s w_s det(exp(+i phi_{s,a} muL_b)) det(exp(-i phi_{s,a} muR_b)).

    The determinant pair absorbs both the squared Vandermonde modulus and
    the two Schur factors of a spectral sum.
    """
    phis = np.ascontiguousarray(phis, dtype=np.float64)
    mu_left = np.ascontiguousarray(mu_left, dtype=np.int64)
    mu_right = np.ascontiguousarray(mu_right, dtype=np.int64)
    weights = np.ascontiguousarray(weights, dtype=np.complex128)
    if phis.ndim != 2 or phis.shape[1] != mu_left.size or mu_left.size != mu_right.size:
        raise ValueError("inconsistent kernel input shapes")
    if phis.shape[1] == 0:
        return complex(np.sum(weights))

    def alternants(mu):
        return stacked_dets(len(phis), lambda rows:
                            np.exp(1j * phis[rows, :, None] * mu))

    return complex(weights @ (alternants(mu_left) * alternants(-mu_right)))
