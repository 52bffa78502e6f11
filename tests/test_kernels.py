import numpy as np

from spinpaths.kernels import SUBSET_BLOCK, stacked_dets, subset_rows
from spinpaths.partitions import lambda_to_mu, shifted_boxed_partitions

RNG = np.random.default_rng(7)


def test_multi_block_stack_matches_brute_force():
    """A stack spanning several blocks, the last one partial."""
    shape = (2 * SUBSET_BLOCK + 5, 3, 3)
    mats = RNG.normal(size=shape) + 1j * RNG.normal(size=shape)
    got = stacked_dets(len(mats), lambda rows: mats[rows])
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
