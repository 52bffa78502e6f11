"""The multi-particle function as a momentum-subset sum, as a test reference.

det G[j, l] = sum_s exp(t sum cos theta_s) det(e^{i theta_s j})
det(e^{-i theta_s l}) / (M+1)^N over the C(M+1, N) momentum subsets s of
the N-walker grid: the sum that `correlators._momentum_minor` collapses by
Cauchy-Binet into one N x N determinant.  Each alternant stack is a minor
of one table, taken by `kernels.stacked_dets`.
"""

import numpy as np

from spinpaths.chain import ChainGeometry, momentum_table
from spinpaths.kernels import stacked_dets


def det_product_spectral(m: int, j, l, t: complex) -> complex:
    """sum_s exp(t sum cos) det(e^{i theta_s j}) det(e^{-i theta_s l}) / (M+1)^N."""
    geom = ChainGeometry(m, len(j))
    table = momentum_table(geom)

    def alternants(mu):
        # exp(i theta mu), not phases ** mu: the bitwise alternant test in
        # test_kernels.py pins its bits
        powers = np.exp(1j * table.grid_thetas * mu[:, None])
        return stacked_dets(table.indices, lambda rows: powers.T[rows])

    return complex(np.exp(t * table.cos_sums) / geom.sites ** geom.n @
                   (alternants(np.array(j)) * alternants(-np.array(l))))
