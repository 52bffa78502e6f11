import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from spinpaths import correlators
from spinpaths.core import ChainGeometry
from spinpaths.kernels import SUBSET_BLOCK, stacked_dets, subset_rows
from spinpaths.partitions import lambda_to_mu, shifted_boxed_partitions
from spinpaths.schur import schur_values, vandermonde
from det_product_spectral import det_product_spectral

RNG = np.random.default_rng(7)


def test_multi_block_stack_matches_brute_force():
    """A stack spanning several blocks, the last one partial."""
    shape = (2 * SUBSET_BLOCK + 5, 3, 3)
    mats = RNG.normal(size=shape) + 1j * RNG.normal(size=shape)
    got = stacked_dets(np.arange(len(mats)), lambda rows: mats[rows])
    assert np.array_equal(got, [np.linalg.det(a) for a in mats])


def test_boxed_shapes_are_shifted_subsets():
    # mu = lam + staircase maps the N x W box, in order, onto the N-subsets
    # of 0..W+N-1; a shift n adds n to every part
    for nvar in range(1, 5):
        for width in range(5):
            for shift in range(3):
                want = [list(lambda_to_mu(lam, nvar)) for lam in
                        shifted_boxed_partitions(nvar, width, shift)]
                assert (shift + subset_rows(width + nvar - 1, nvar)).tolist() == want


# the stacks gathered from one table against stacks built one subset at a
# time: each entry comes from the same scalar operations on the same operands,
# so the values agree bit for bit.
# N = 1 and N = M + 1 gather single columns and the whole table; (150, 1)
# and (9, 4) span several blocks.
STACK_GEOMETRIES = [(5, 1), (150, 1), (4, 5), (7, 3), (9, 4)]


def subset_thetas(geom, subset):
    """theta_s = 2 pi/(M+1) (s - (N-1)/2) at the grid indices of one subset."""
    return 2.0 * np.pi / geom.sites * (np.array(subset, dtype=float) - (geom.n - 1) / 2.0)


def subsets(geom):
    return list(combinations(range(geom.m, -1, -1), geom.n))


def distinct_params(n):
    return np.array([complex(0.5 + 0.3 * k, 0.2 - 0.1 * k) for k in range(n)])


@pytest.mark.parametrize("m,n", STACK_GEOMETRIES)
def test_alternant_stacks_are_bitwise_per_subset(m, n):
    geom = ChainGeometry(m, n)
    j = np.arange(m, m - n, -1)
    l = np.arange(n)[::-1]

    def alternants(mu):
        return np.array([np.linalg.det(np.exp(1j * subset_thetas(geom, s)[:, None] * mu))
                         for s in subsets(geom)])

    cos_sums = np.array([np.sum(np.cos(subset_thetas(geom, s))) for s in subsets(geom)])
    want = complex(np.exp(0.3 * cos_sums) / geom.sites ** n @ (alternants(j) * alternants(-l)))
    got = det_product_spectral(m, tuple(j), tuple(l), 0.3)
    assert got == want


def test_boxed_sums_stay_linear_in_the_ring():
    """The amplitude's boxed sums hold a few columns of M+1 grid values, not
    an (M+1) x (K-n+N) table of powers: at (499, 1), where such a table
    takes 4 MB, a call peaks under 1 MiB."""
    args = (ChainGeometry(499, 1), (0.7,), (1.1,), 1, 0.3)
    correlators._transition_spectral(*args)
    tracemalloc.start()
    try:
        correlators._transition_spectral(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


# each row's alternant is gathered from one table of the powers x_j^m, one
# column per distinct exponent m; with every exponent distinct none is shared
@pytest.mark.parametrize("n,rows,distinct", [(1, 5, False), (3, 40, False),
                                             (4, 210, False), (3, 150, True)])
def test_schur_value_stacks_are_bitwise_per_row(n, rows, distinct):
    x = distinct_params(n)
    if distinct:
        mus = np.arange(rows * n, dtype=float).reshape(rows, n)[:, ::-1]
    else:
        mus = np.array([sorted(RNG.choice(9, n, replace=False), reverse=True)
                        for _ in range(rows)], dtype=float)
    sign = -1.0 if (n * (n - 1) // 2) % 2 else 1.0
    want = [np.linalg.det(x[:, None] ** mu[None, :]) / (sign * vandermonde(x))
            for mu in mus]
    assert np.array_equal(schur_values(x, mus), want)
